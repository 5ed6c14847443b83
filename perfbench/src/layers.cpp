// The traced per-layer pass. It calls each layer's public functions in the
// order a server does (frame -> parse -> key -> cache -> decide -> format),
// with one span per call and one id per generated request, then derives the
// per-layer metrics from the spans and writes them as a Chrome trace.
// Spans live only in this file: nothing inside the program is changed.

#include <algorithm>
#include <array>
#include <optional>
#include <span>

#include "analysis/engine.hpp"
#include "common/thread_pool.hpp"
#include "inputs.hpp"
#include "obs/chrome_trace.hpp"
#include "svc/batch.hpp"
#include "svc/codec.hpp"
#include "svc/shard_cache.hpp"
#include "svc/verdict_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using reconf::analysis::AnalysisEngine;
using reconf::analysis::Decision;

enum Layer : std::uint8_t {
  kRequest,
  kFrame,
  kParse,
  kKey,
  kLookup,
  kDecideMiss,
  kInsert,
  kFormat,
  kEval,
  kDecide,
  kDp,
  kGn1,
  kGn2,
  kRunBatch,
  kRunScenario,
  kGateDecide,
  kLayerCount,
};

struct LayerInfo {
  const char* span;    ///< span name in the trace file
  const char* metric;  ///< metric stem, or nullptr when not reported
  std::uint32_t tid;   ///< trace row
};

constexpr std::array<LayerInfo, kLayerCount> kLayers = {{
    {"request", nullptr, 1},
    {"frame", "svc.frame_ns", 1},
    {"parse", "svc.parse_ns", 1},
    {"cache_key", "svc.key_ns", 1},
    {"cache_lookup", "svc.cache_lookup_ns", 1},
    {"decide", nullptr, 1},
    {"cache_insert", "svc.cache_insert_ns", 1},
    {"format", "svc.format_ns", 1},
    {"evaluate_with_engine", "svc.eval_ns", 2},
    {"decide", "analysis.decide_ns", 3},
    {"dp", "analysis.dp_ns", 3},
    {"gn1", "analysis.gn1_ns", 3},
    {"gn2", "analysis.gn2_ns", 3},
    {"run_batch", "svc.run_batch_ns", 4},
    {"run_scenario", "rt.run_scenario_us", 5},
    {"gate_decide", "rt.gate_decide_ns", 6},
}};

struct Span {
  std::int64_t start = 0;
  std::int64_t dur = 0;
  std::uint32_t id = 0;
  Layer layer = kRequest;
};

class Recorder {
 public:
  explicit Recorder(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }
  void add(Span s) { spans_.push_back(s); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// One span around a scope; free when the recorder is off.
class Scope {
 public:
  Scope(Recorder& rec, Layer layer, std::uint32_t id)
      : rec_(rec), layer_(layer), id_(id), t0_(rec.on() ? now_ns() : 0) {}
  ~Scope() {
    if (rec_.on()) rec_.add({t0_, now_ns() - t0_, id_, layer_});
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& rec_;
  Layer layer_;
  std::uint32_t id_;
  std::int64_t t0_;
};

constexpr std::size_t kCacheCapacity = 65'536;

void prefill(reconf::svc::VerdictStore& cache) {
  for (std::uint64_t i = 0; i < kCacheCapacity; ++i) {
    cache.insert(mix(0xCAC4E000 + i), reconf::svc::CachedVerdict{});
  }
}

struct SvcCounts {
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::array<std::uint64_t, 4> shares{};  ///< dp, gn1, gn2, reject
  reconf::svc::CacheStats cache;
  std::uint64_t mismatches = 0;
};

struct Engines {
  AnalysisEngine serving{reconf::svc::BatchOptions{}.request};
  AnalysisEngine dp{reconf::analysis::fast_single_request("dp")};
  AnalysisEngine gn1{reconf::analysis::fast_single_request("gn1")};
  AnalysisEngine gn2{reconf::analysis::fast_single_request("gn2")};
};

/// One pass over every request line. Returns its wall time in ns.
std::int64_t svc_pass(const LayerInputs& in, const std::string& framed_input,
                      const Engines& eng, Recorder& rec, SvcCounts& counts) {
  reconf::svc::ShardCache cache(kCacheCapacity);
  reconf::svc::ShardCache eval_cache(kCacheCapacity);
  if (in.prefill_cache) {
    prefill(cache);
    prefill(eval_cache);
  }
  const reconf::svc::CacheStats base = cache.stats();
  reconf::svc::StreamFramer framer;
  std::string framed;
  reconf::svc::LineStatus status;
  std::size_t offset = 0;

  const std::int64_t t0 = now_ns();
  for (std::uint32_t i = 0; i < in.lines.size(); ++i) {
    const std::size_t len = in.lines[i].size() + 1;
    reconf::svc::BatchRequest request;
    reconf::svc::BatchVerdict verdict;
    {
      Scope whole(rec, kRequest, i);
      {
        Scope s(rec, kFrame, i);
        framer.feed(framed_input.data() + offset, len);
        framer.next(framed, status);
      }
      offset += len;
      {
        Scope s(rec, kParse, i);
        request = reconf::svc::parse_request_line(framed);
      }
      std::uint64_t key = 0;
      {
        Scope s(rec, kKey, i);
        key = reconf::svc::verdict_cache_key(request.taskset, request.device,
                                             eng.serving);
      }
      std::optional<reconf::svc::CachedVerdict> hit;
      {
        Scope s(rec, kLookup, i);
        hit = cache.lookup(key);
      }
      verdict.id = request.id;
      verdict.hash = key;
      if (hit) {
        verdict.cache_hit = true;
        verdict.accepted = hit->accepted;
        verdict.accepted_by = hit->accepted_by;
      } else {
        Decision d;
        {
          Scope s(rec, kDecideMiss, i);
          d = eng.serving.decide(request.taskset, request.device);
        }
        Scope s(rec, kInsert, i);
        verdict.accepted = d.accepted();
        verdict.accepted_by = std::string(d.accepted_by);
        cache.insert(key, {verdict.accepted, verdict.accepted_by});
      }
      std::string response;
      {
        Scope s(rec, kFormat, i);
        response = reconf::svc::format_verdict_line(verdict, &request.taskset);
      }
      counts.bytes_out += response.size() + 1;
    }
    counts.bytes_in += len;

    reconf::svc::BatchVerdict evaluated;
    {
      Scope s(rec, kEval, i);
      evaluated =
          reconf::svc::evaluate_with_engine(eng.serving, request, &eval_cache);
    }
    Decision d;
    {
      Scope s(rec, kDecide, i);
      d = eng.serving.decide(request.taskset, request.device);
    }
    {
      Scope s(rec, kDp, i);
      (void)eng.dp.decide(request.taskset, request.device);
    }
    {
      Scope s(rec, kGn1, i);
      (void)eng.gn1.decide(request.taskset, request.device);
    }
    {
      Scope s(rec, kGn2, i);
      (void)eng.gn2.decide(request.taskset, request.device);
    }
    ++counts.shares[!d.accepted()              ? 3
                    : d.accepted_by == "dp"    ? 0
                    : d.accepted_by == "gn1"   ? 1
                                               : 2];
    if (verdict.accepted != d.accepted() || evaluated.accepted != d.accepted() ||
        evaluated.accepted_by != verdict.accepted_by) {
      ++counts.mismatches;
    }
  }
  const std::int64_t wall = now_ns() - t0;
  const reconf::svc::CacheStats end = cache.stats();
  counts.cache.hits = end.hits - base.hits;
  counts.cache.misses = end.misses - base.misses;
  counts.cache.evictions = end.evictions - base.evictions;
  return wall;
}

/// The stdio frontend's batch pipeline: waves of 256 parsed requests.
void run_batch_pass(const LayerInputs& in, Recorder& rec) {
  std::vector<reconf::svc::BatchRequest> requests;
  for (const std::string& line : in.lines) {
    requests.push_back(reconf::svc::parse_request_line(line));
  }
  reconf::svc::VerdictCache cache(kCacheCapacity);
  if (in.prefill_cache) prefill(cache);
  reconf::ThreadPool pool;
  constexpr std::size_t kWave = 256;
  for (std::size_t at = 0; at < requests.size(); at += kWave) {
    const std::size_t n = std::min(kWave, requests.size() - at);
    const std::span<const reconf::svc::BatchRequest> wave(
        requests.data() + at, n);
    const std::int64_t t0 = now_ns();
    (void)reconf::svc::run_batch(wave, &cache, pool);
    // The span keeps the wave's size as its id; the metric is per request.
    rec.add({t0, now_ns() - t0, static_cast<std::uint32_t>(n), kRunBatch});
  }
}

struct RtCounts {
  double runs = 0;
  double gate_attempts = 0;
  double dispatches = 0;
  double preemptions = 0;
  double cold_loads = 0;
  double prefetch_hits = 0;
  double releases = 0;
  double misses = 0;
  double hidden = 0;
  double stalled = 0;
};

void rt_pass(const LayerInputs& in, const Engines& eng, Recorder& rec,
             RtCounts& counts) {
  std::vector<std::pair<reconf::TaskSet, reconf::Device>> candidates;
  for (const auto& s : in.scenarios) {
    reconf::rt::RuntimeConfig config = runtime_config();
    config.admission_probe = [&](const reconf::TaskSet& candidate,
                                 reconf::Device device,
                                 const reconf::svc::AdmissionDecision&) {
      if (candidates.size() < kMaxLayerInputs) {
        candidates.emplace_back(candidate, device);
      }
    };
    const auto r = reconf::rt::run_scenario(s, config);
    counts.runs += 1;
    counts.gate_attempts += static_cast<double>(r.admissions.size());
    counts.dispatches += static_cast<double>(r.dispatches);
    counts.preemptions += static_cast<double>(r.preemptions);
    counts.cold_loads += static_cast<double>(r.cold_loads);
    counts.prefetch_hits += static_cast<double>(r.prefetch_hits);
    counts.releases += static_cast<double>(r.releases);
    counts.misses += static_cast<double>(r.deadline_misses);
    counts.hidden += static_cast<double>(r.hidden_ticks);
    counts.stalled += static_cast<double>(r.stall_ticks);
  }
  // At least 300 timed runs, cycling over the scenarios.
  const std::size_t rounds = (300 + in.scenarios.size() - 1) /
                             std::max<std::size_t>(1, in.scenarios.size());
  std::uint32_t id = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const auto& s : in.scenarios) {
      Scope span(rec, kRunScenario, id++);
      (void)reconf::rt::run_scenario(s, runtime_config());
    }
  }
  id = 0;
  for (const auto& [ts, device] : candidates) {
    Scope span(rec, kGateDecide, id++);
    (void)eng.serving.decide(ts, device);
  }
}

double share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

}  // namespace

void run_layers(const LayerInputs& in, const std::string& span_path,
                MetricSink& sink, Tally& tally) {
  std::string framed_input;
  for (const std::string& l : in.lines) {
    framed_input += l;
    framed_input += '\n';
  }
  const Engines eng;

  // The first pass only warms code and data; the second is the untraced
  // reference the traced pass is compared with.
  Recorder off(false);
  SvcCounts untraced_counts;
  (void)svc_pass(in, framed_input, eng, off, untraced_counts);
  const std::int64_t untraced_ns =
      svc_pass(in, framed_input, eng, off, untraced_counts);

  Recorder rec(true);
  SvcCounts counts;
  const std::int64_t traced_ns = svc_pass(in, framed_input, eng, rec, counts);
  tally.fail(counts.mismatches, "layer pass verdicts disagree");
  run_batch_pass(in, rec);
  RtCounts rt;
  rt_pass(in, eng, rec, rt);

  std::array<std::vector<double>, kLayerCount> samples;
  for (const Span& s : rec.spans()) {
    samples[s.layer].push_back(
        static_cast<double>(s.dur) /
        (s.layer == kRunBatch ? static_cast<double>(s.id) : 1.0));
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (kLayers[l].metric == nullptr) continue;
    std::vector<double>& v = samples[l];
    const bool micros = l == kRunScenario;
    if (micros) {
      for (double& x : v) x *= 1e-3;
    }
    sink.add_summary(kLayers[l].metric, summarize(v), micros ? "us" : "ns");
  }

  const double requests = static_cast<double>(in.lines.size());
  sink.add("svc.bytes_in", share(static_cast<double>(counts.bytes_in), requests),
           "B");
  sink.add("svc.bytes_out",
           share(static_cast<double>(counts.bytes_out), requests), "B");
  sink.add("svc.cache_evictions", static_cast<double>(counts.cache.evictions),
           "count");
  sink.add("svc.cache_hit_ratio", counts.cache.hit_rate(), "ratio");
  const char* share_names[] = {"analysis.share_dp", "analysis.share_gn1",
                               "analysis.share_gn2", "analysis.share_reject"};
  for (std::size_t k = 0; k < 4; ++k) {
    sink.add(share_names[k],
             share(static_cast<double>(counts.shares[k]), requests), "ratio");
  }
  sink.add("rt.gate_attempts", share(rt.gate_attempts, rt.runs), "count");
  sink.add("rt.dispatches", share(rt.dispatches, rt.runs), "count");
  sink.add("rt.preemptions", share(rt.preemptions, rt.runs), "count");
  sink.add("rt.cold_loads", share(rt.cold_loads, rt.runs), "count");
  sink.add("rt.prefetch_hits", share(rt.prefetch_hits, rt.runs), "count");
  sink.add("rt.miss_rate", share(rt.misses, rt.releases), "ratio");
  sink.add("rt.stall_hiding", share(rt.hidden, rt.hidden + rt.stalled),
           "ratio");
  sink.add("trace.overhead",
           share(static_cast<double>(traced_ns - untraced_ns),
                 static_cast<double>(untraced_ns)),
           "ratio");

  reconf::obs::ChromeTraceWriter writer;
  std::int64_t origin = INT64_MAX;
  for (const Span& s : rec.spans()) origin = std::min(origin, s.start);
  for (const Span& s : rec.spans()) {
    const LayerInfo& info = kLayers[s.layer];
    writer.complete_event(
        info.span, info.metric == nullptr ? "svc" : info.metric,
        static_cast<double>(s.start - origin) * 1e-3,
        static_cast<double>(s.dur) * 1e-3, info.tid,
        (s.layer == kRunBatch ? "{\"wave_size\":" : "{\"req\":") +
            std::to_string(s.id) + "}");
  }
  write_file(span_path, writer.json());
}

}  // namespace perfbench
