#include "svc/batch.hpp"

#include <utility>

#include "analysis/hash.hpp"
#include "analysis/registry.hpp"
#include "common/contracts.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace reconf::svc {

namespace {

/// Serving-tier metric handles, resolved once per process (function-local
/// statics; thread-safe init) — evaluate_with_engine then pays relaxed
/// increments and, while obs is enabled, two clock reads for the latency
/// histogram.
struct SvcMetrics {
  obs::Counter& requests =
      obs::MetricsRegistry::instance().counter("reconf_svc_requests_total");
  obs::Counter& accepted =
      obs::MetricsRegistry::instance().counter("reconf_svc_accepted_total");
  obs::Histogram& latency_ns = obs::MetricsRegistry::instance().histogram(
      "reconf_svc_request_latency_ns");
  obs::Counter& shed_deadline = obs::MetricsRegistry::instance().counter(
      "reconf_svc_shed_total{reason=\"deadline\"}");

  static const SvcMetrics& get() {
    static const SvcMetrics metrics;
    return metrics;
  }
};

}  // namespace

BatchVerdict evaluate_with_engine(const analysis::AnalysisEngine& engine,
                                  const BatchRequest& request,
                                  VerdictStore* cache, bool explain) {
  const obs::Span request_span("svc.request", "svc");
  const SvcMetrics& metrics = SvcMetrics::get();
  const bool timed = obs::enabled();
  Stopwatch latency_watch;
  metrics.requests.inc();

  BatchVerdict out;
  out.id = request.id;
  if (request.deadline != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() >= request.deadline) {
    // The client has already given up on this answer; shed, don't analyze.
    out.shed = "deadline";
    metrics.shed_deadline.inc();
    return out;
  }
  if (engine.empty()) {
    // Refusing beats silently answering kInconclusive for every input: the
    // caller selected tests that all fell to the scheduler restriction
    // (e.g. {"gn1"} under an EDF-FkF pipeline) and must be told so.
    out.error = "no analyzers to run: the selected tests were all removed "
                "by the pipeline's scheduler restriction";
    return out;
  }
  out.hash = verdict_cache_key(request.taskset, request.device, engine);

  if (cache != nullptr) {
    const obs::Span lookup_span("cache.lookup", "cache");
    if (auto cached = cache->lookup(out.hash)) {
      out.cache_hit = true;
      out.accepted = cached->accepted;
      out.accepted_by = cached->accepted_by;
      if (out.accepted) metrics.accepted.inc();
      if (timed) {
        metrics.latency_ns.record(
            static_cast<std::uint64_t>(latency_watch.seconds() * 1e9));
      }
      return out;
    }
  }

  if (!explain) {
    // Serving default: the allocation-free kernel verdict, identical to
    // run()'s by contract, with nothing to report beyond it.
    const analysis::Decision decision =
        engine.decide(request.taskset, request.device);
    out.accepted = decision.accepted();
    out.accepted_by = std::string(decision.accepted_by);
  } else {
    const auto report = engine.run(request.taskset, request.device);
    out.accepted = report.accepted();
    out.accepted_by = report.accepted_by();
    out.sub.reserve(report.outcomes.size());
    for (const analysis::AnalyzerOutcome& o : report.outcomes) {
      out.sub.push_back(
          {o.id, o.ran, o.ran && o.report.accepted(), o.seconds * 1e6});
    }
  }
  if (cache != nullptr) {
    cache->insert(out.hash, CachedVerdict{out.accepted, out.accepted_by});
  }
  if (out.accepted) metrics.accepted.inc();
  if (timed) {
    metrics.latency_ns.record(
        static_cast<std::uint64_t>(latency_watch.seconds() * 1e9));
  }
  return out;
}

EngineTable::EngineTable(const BatchOptions& options)
    : default_(options.request) {}

const analysis::AnalysisEngine& EngineTable::resolve(
    std::span<const std::string> tests) {
  if (tests.empty()) return default_;
  std::uint64_t key = 0;
  for (const std::string& id : tests) key |= bit_for(id);
  auto it = lineups_.find(key);
  if (it == lineups_.end()) {
    analysis::AnalysisRequest lineup = default_.request();
    lineup.tests.assign(tests.begin(), tests.end());
    it = lineups_.emplace(key, analysis::AnalysisEngine(std::move(lineup)))
             .first;
  }
  return it->second;
}

std::uint64_t EngineTable::bit_for(const std::string& id) {
  std::size_t i = 0;
  while (i < ids_.size() && ids_[i] != id) ++i;
  if (i == ids_.size()) {
    // Only registered ids get a bit, so ids_ never outgrows the registry.
    const auto& registry = analysis::AnalyzerRegistry::instance();
    if (registry.find(id) == nullptr) {
      throw analysis::UnknownAnalyzerError(id, registry.id_list());
    }
    RECONF_ASSERT(i < 64);  // one key bit per registered analyzer
    ids_.push_back(id);
  }
  return std::uint64_t{1} << i;
}

std::uint64_t verdict_cache_key(const TaskSet& ts, Device device,
                                const analysis::AnalysisEngine& engine)
    noexcept {
  return analysis::mix64(analysis::canonical_hash(ts, device) ^
                         engine.fingerprint());
}

std::vector<BatchVerdict> run_batch(std::span<const BatchRequest> requests,
                                    VerdictStore* cache, ThreadPool& pool,
                                    const BatchOptions& options) {
  const obs::Span batch_span("svc.run_batch", "svc");
  // Lineups are resolved up front on this thread; the workers only read
  // the table's immutable engines.
  EngineTable engines(options);
  std::vector<const analysis::AnalysisEngine*> resolved;
  resolved.reserve(requests.size());
  for (const BatchRequest& request : requests) {
    resolved.push_back(&engines.resolve(request.tests));
  }

  std::vector<BatchVerdict> results(requests.size());
  pool.parallel_for(requests.size(), [&](std::size_t i) {
    results[i] = evaluate_with_engine(*resolved[i], requests[i], cache,
                                      options.explain);
  });
  return results;
}

}  // namespace reconf::svc
