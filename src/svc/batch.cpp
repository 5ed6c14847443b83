#include "svc/batch.hpp"

#include <map>
#include <utility>

#include "analysis/hash.hpp"
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
  obs::Counter& cache_hits = obs::MetricsRegistry::instance().counter(
      "reconf_svc_cache_hits_total");
  obs::Counter& cache_misses = obs::MetricsRegistry::instance().counter(
      "reconf_svc_cache_misses_total");
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
                                  VerdictStore* cache) {
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
      metrics.cache_hits.inc();
      out.cache_hit = true;
      out.accepted = cached->accepted;
      out.accepted_by = std::move(cached->accepted_by);
      if (out.accepted) metrics.accepted.inc();
      if (timed) {
        metrics.latency_ns.record(
            static_cast<std::uint64_t>(latency_watch.seconds() * 1e9));
      }
      return out;
    }
    metrics.cache_misses.inc();
  }

  if (!engine.request().diagnostics) {
    // Serving default: the allocation-free SoA fast path. No sub-verdicts —
    // decide() early-exits inside the kernels and produces nothing to
    // report beyond the union verdict (identical to run()'s by contract).
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

namespace {

/// Engine for a request that names its own tests: the pipeline request with
/// the lineup overridden.
analysis::AnalysisEngine engine_for(const BatchRequest& request,
                                    const BatchOptions& options) {
  analysis::AnalysisRequest custom = options.request;
  custom.tests = request.tests;
  return analysis::AnalysisEngine(std::move(custom));
}

}  // namespace

std::uint64_t verdict_cache_key(const TaskSet& ts, Device device,
                                const analysis::AnalysisEngine& engine)
    noexcept {
  return analysis::mix64(analysis::canonical_hash(ts, device) ^
                         engine.fingerprint());
}

BatchVerdict evaluate_request(const BatchRequest& request, VerdictStore* cache,
                              const BatchOptions& options) {
  if (request.tests.empty()) {
    return evaluate_with_engine(analysis::AnalysisEngine(options.request),
                                request, cache);
  }
  return evaluate_with_engine(engine_for(request, options), request, cache);
}

std::vector<BatchVerdict> run_batch(std::span<const BatchRequest> requests,
                                    VerdictStore* cache, ThreadPool& pool,
                                    const BatchOptions& options) {
  const obs::Span batch_span("svc.run_batch", "svc");
  // One shared engine serves every default-lineup request in the batch;
  // run() is thread-safe (stats cells are atomic). Custom lineups are
  // resolved once per distinct `tests` vector, up front — workers never
  // touch the registry mutex, and a stream where every line repeats the
  // same override costs one engine, not N.
  const analysis::AnalysisEngine shared(options.request);
  std::map<std::vector<std::string>, analysis::AnalysisEngine> custom;
  for (const BatchRequest& request : requests) {
    if (!request.tests.empty() && !custom.contains(request.tests)) {
      custom.emplace(request.tests, engine_for(request, options));
    }
  }

  std::vector<BatchVerdict> results(requests.size());
  pool.parallel_for(requests.size(), [&](std::size_t i) {
    const BatchRequest& request = requests[i];
    const analysis::AnalysisEngine& engine =
        request.tests.empty() ? shared : custom.at(request.tests);
    results[i] = evaluate_with_engine(engine, request, cache);
  });
  return results;
}

}  // namespace reconf::svc
