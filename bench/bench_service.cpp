// bench_service — throughput of the svc admission pipeline at varying
// request-duplication ratios, with and without the verdict cache.
//
// The serving scenario: an admission controller sees a stream of analysis
// requests in which many tasksets repeat (the same accelerator mix is
// requested again and again by different clients). The cache converts every
// repeat into a hash lookup; this bench quantifies the win and checks the
// determinism contract (verdicts identical for 1 vs N worker threads).
//
// Environment knobs:
//   RECONF_SVC_REQUESTS  requests per run            (default 20000)
//   RECONF_SVC_UNIQUE    distinct tasksets in the pool (default 256)
//   RECONF_SVC_NTASKS    tasks per taskset           (default 12)
//   RECONF_THREADS       worker threads              (default: all cores)

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "svc/batch.hpp"
#include "svc/verdict_cache.hpp"

namespace {

using namespace reconf;

/// Deterministic pool of distinct tasksets. Target system utilizations are
/// spread over [5, 95] on a width-100 device so the verdict mix includes
/// accepts and rejects (the pure unconstrained draw almost always lands far
/// above the schedulability cliff and every verdict would be a reject).
std::vector<TaskSet> make_pool(std::size_t count, int ntasks,
                               std::uint64_t seed) {
  std::vector<TaskSet> pool;
  pool.reserve(count);
  for (std::size_t i = 0; pool.size() < count; ++i) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(ntasks);
    req.seed = derive_seed(seed, i);
    req.target_system_util =
        5.0 + 90.0 * static_cast<double>(i % 64) / 63.0;
    req.target_tolerance = 2.0;
    if (auto ts = gen::generate(req)) pool.push_back(std::move(*ts));
  }
  return pool;
}

/// Request stream with the given duplication ratio: a request repeats one of
/// the `hot` tasksets with probability `dup`, otherwise it consumes the next
/// never-before-seen pool entry — so at dup=0 every request is distinct and
/// the cache is pure overhead, the honest baseline.
std::vector<svc::BatchRequest> make_stream(const std::vector<TaskSet>& pool,
                                           std::size_t hot,
                                           std::size_t requests, double dup,
                                           std::uint64_t seed) {
  std::vector<svc::BatchRequest> stream;
  stream.reserve(requests);
  std::size_t fresh = hot;  // entries [0, hot) are the duplicated set
  for (std::size_t i = 0; i < requests; ++i) {
    Xoshiro256ss rng(derive_seed(seed, i));  // index-derived: deterministic
    svc::BatchRequest r;
    r.id = std::to_string(i);
    r.device = Device{100};
    if (rng.uniform01() < dup || fresh >= pool.size()) {
      r.taskset = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hot) - 1))];
    } else {
      r.taskset = pool[fresh++];
    }
    stream.push_back(std::move(r));
  }
  return stream;
}

struct RunResult {
  double seconds = 0;
  double hit_rate = 0;
  std::uint64_t accepted = 0;
  std::vector<svc::BatchVerdict> verdicts;
};

RunResult run(const std::vector<svc::BatchRequest>& stream, bool with_cache,
              unsigned threads) {
  svc::VerdictCache cache(with_cache ? 1 << 16 : 0);
  svc::VerdictCache* cache_ptr = with_cache ? &cache : nullptr;
  ThreadPool pool(threads);
  Stopwatch clock;
  RunResult out;
  out.verdicts = svc::run_batch(stream, cache_ptr, pool, {});
  out.seconds = clock.seconds();
  out.hit_rate = cache.stats().hit_rate();
  for (const auto& v : out.verdicts) out.accepted += v.accepted ? 1 : 0;
  return out;
}

/// The deterministic fields must match; cache_hit may differ (see batch.hpp).
bool same_verdicts(const std::vector<svc::BatchVerdict>& a,
                   const std::vector<svc::BatchVerdict>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].accepted != b[i].accepted ||
        a[i].accepted_by != b[i].accepted_by || a[i].hash != b[i].hash) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const auto requests =
      static_cast<std::size_t>(env_int64("RECONF_SVC_REQUESTS", 20000));
  const auto unique =
      static_cast<std::size_t>(env_int64("RECONF_SVC_UNIQUE", 256));
  const int ntasks = static_cast<int>(env_int64("RECONF_SVC_NTASKS", 12));
  const unsigned threads =
      static_cast<unsigned>(env_int64("RECONF_THREADS", 0));

  std::printf("=== bench_service — admission pipeline throughput ===\n");
  std::printf("requests=%zu hot_tasksets=%zu tasks/set=%d threads=%u\n\n",
              requests, unique, ntasks, effective_threads(threads));

  // `unique` hot tasksets for the duplicated traffic plus enough distinct
  // ones that fresh requests never repeat.
  const auto pool = make_pool(unique + requests, ntasks, 0xBE5EC0DE);

  std::printf("%-8s %12s %12s %9s %9s %10s\n", "dup", "req/s (off)",
              "req/s (on)", "speedup", "hit-rate", "accepted");
  for (const double dup : {0.0, 0.5, 0.9, 0.99}) {
    const auto stream = make_stream(pool, unique, requests, dup,
                                    0xD0BE5EC0 + static_cast<int>(dup * 100));

    const RunResult off = run(stream, /*with_cache=*/false, threads);
    const RunResult on = run(stream, /*with_cache=*/true, threads);
    if (!same_verdicts(off.verdicts, on.verdicts)) {
      std::fprintf(stderr, "BUG: cache changed verdicts at dup=%.2f\n", dup);
      return 1;
    }

    // Determinism contract: 1 worker and N workers must agree bit-for-bit
    // on the verdict fields (fresh caches per run).
    const RunResult serial = run(stream, /*with_cache=*/true, 1);
    if (!same_verdicts(serial.verdicts, on.verdicts)) {
      std::fprintf(stderr, "BUG: thread count changed verdicts at dup=%.2f\n",
                   dup);
      return 1;
    }

    const double rps_off = static_cast<double>(requests) / off.seconds;
    const double rps_on = static_cast<double>(requests) / on.seconds;
    std::printf("%-8.2f %12.0f %12.0f %8.1fx %8.1f%% %10" PRIu64 "\n", dup,
                rps_off, rps_on, rps_on / rps_off, 100.0 * on.hit_rate,
                on.accepted);
  }

  std::printf("\ncache-on verdicts matched cache-off and 1-thread runs "
              "bit-for-bit (id, verdict, accepted_by, hash).\n");
  return 0;
}
