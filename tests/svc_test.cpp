// Tests for the admission-control service subsystem: canonical hashing,
// the LRU verdict caches (the single-owner ShardCache and the striped
// VerdictCache built from it), the incremental AdmissionSession, the
// engine table that resolves analyzer lineups, and the batch pipeline's
// determinism contract.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/engine.hpp"
#include "analysis/hash.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "svc/batch.hpp"
#include "svc/session.hpp"
#include "svc/shard_cache.hpp"
#include "svc/shard_route.hpp"
#include "svc/verdict_cache.hpp"
#include "task/task.hpp"

namespace reconf {
namespace {

/// The diagnostic spelling of the serving default (reconf_serve --explain):
/// misses go through the engine's run() — full reports, per-analyzer
/// timings, sub-verdicts.
svc::BatchOptions explain_options() {
  svc::BatchOptions options;
  options.explain = true;
  return options;
}

/// One request through the serving funnel: its lineup resolved by an
/// EngineTable over `options`, then evaluate_with_engine.
svc::BatchVerdict evaluate(const svc::BatchRequest& request,
                           svc::VerdictStore* cache,
                           const svc::BatchOptions& options) {
  svc::EngineTable engines(options);
  return svc::evaluate_with_engine(engines.resolve(request.tests), request,
                                   cache, options.explain);
}

TaskSet table3_taskset() {
  return TaskSet({make_task(2.10, 5, 5, 7, "t1"), make_task(2.00, 7, 7, 7, "t2"),
                  make_task(3.00, 10, 10, 6, "t3")});
}

// ------------------------------------------------------------ hashing ----

TEST(CanonicalHash, StableAcrossTaskReordering) {
  const Device dev{10};
  const std::vector<Task> tasks = {make_task(2.10, 5, 5, 7),
                                   make_task(2.00, 7, 7, 7),
                                   make_task(3.00, 10, 10, 6)};
  std::vector<Task> perm = tasks;
  std::sort(perm.begin(), perm.end(),
            [](const Task& a, const Task& b) { return a.wcet < b.wcet; });
  std::reverse(perm.begin(), perm.end());

  const auto h1 = analysis::canonical_hash(TaskSet(tasks), dev);
  const auto h2 = analysis::canonical_hash(TaskSet(perm), dev);
  EXPECT_EQ(h1, h2);
}

TEST(CanonicalHash, IgnoresTaskNames) {
  const Device dev{10};
  const TaskSet named({make_task(2.10, 5, 5, 7, "alpha")});
  const TaskSet anon({make_task(2.10, 5, 5, 7)});
  EXPECT_EQ(analysis::canonical_hash(named, dev),
            analysis::canonical_hash(anon, dev));
}

TEST(CanonicalHash, SensitiveToEveryParameterAndDevice) {
  const Device dev{10};
  const TaskSet base({make_task(2.10, 5, 5, 7)});
  const auto h = analysis::canonical_hash(base, dev);

  EXPECT_NE(h, analysis::canonical_hash(TaskSet({make_task(2.11, 5, 5, 7)}),
                                        dev));
  EXPECT_NE(h, analysis::canonical_hash(TaskSet({make_task(2.10, 4, 5, 7)}),
                                        dev));
  EXPECT_NE(h, analysis::canonical_hash(TaskSet({make_task(2.10, 5, 6, 7)}),
                                        dev));
  EXPECT_NE(h, analysis::canonical_hash(TaskSet({make_task(2.10, 5, 5, 8)}),
                                        dev));
  EXPECT_NE(h, analysis::canonical_hash(base, Device{11}));
}

TEST(CanonicalHash, FieldSwapBetweenTasksChangesHash) {
  // A single commutative accumulator over raw fields would collide these:
  // the per-task SplitMix64 chaining must not.
  const Device dev{10};
  const TaskSet a(
      {make_task(2.00, 5, 5, 7), make_task(3.00, 7, 7, 6)});
  const TaskSet b(
      {make_task(3.00, 5, 5, 7), make_task(2.00, 7, 7, 6)});
  EXPECT_NE(analysis::canonical_hash(a, dev), analysis::canonical_hash(b, dev));
}

TEST(CanonicalHash, DistinguishesDuplicateCounts) {
  // xor alone would cancel a repeated task; the sum channel must not.
  const Device dev{10};
  const Task t = make_task(1.00, 9, 9, 2);
  const TaskSet two({t, t});
  const TaskSet four({t, t, t, t});
  EXPECT_NE(analysis::canonical_hash(two, dev),
            analysis::canonical_hash(four, dev));
}

// -------------------------------------------------------------- cache ----

TEST(VerdictCache, MissThenHit) {
  svc::VerdictCache cache(8, 1);
  EXPECT_FALSE(cache.lookup(42).has_value());
  cache.insert(42, {true, "DP"});
  const auto hit = cache.lookup(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->accepted);
  EXPECT_EQ(hit->accepted_by, "DP");

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(VerdictCache, EvictsLeastRecentlyUsed) {
  svc::VerdictCache cache(2, 1);  // one shard => exact LRU
  cache.insert(1, {true, "DP"});
  cache.insert(2, {false, ""});
  ASSERT_TRUE(cache.lookup(1).has_value());  // 1 is now most recent
  cache.insert(3, {true, "GN2"});            // evicts 2

  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(VerdictCache, ReinsertRefreshesInsteadOfDuplicating) {
  svc::VerdictCache cache(2, 1);
  cache.insert(1, {false, ""});
  cache.insert(1, {true, "GN1"});
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->accepted);
  EXPECT_EQ(hit->accepted_by, "GN1");
}

TEST(VerdictCache, ZeroCapacityDisablesCaching) {
  svc::VerdictCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(7, {true, "DP"});
  EXPECT_FALSE(cache.lookup(7).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerdictCache, ShardCountNeverExceedsCapacity) {
  svc::VerdictCache tiny(3, 16);
  EXPECT_LE(tiny.shard_count(), 2u);
  svc::VerdictCache wide(1024, 16);
  EXPECT_EQ(wide.shard_count(), 16u);
  svc::VerdictCache rounded(1024, 5);
  EXPECT_EQ(rounded.shard_count(), 8u);
}

TEST(VerdictCache, ClearDropsEntriesKeepsStats) {
  svc::VerdictCache cache(8);
  cache.insert(1, {true, "DP"});
  ASSERT_TRUE(cache.lookup(1).has_value());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(VerdictCache, ConcurrentMixedLoadStaysConsistent) {
  svc::VerdictCache cache(128, 8);
  parallel_for(
      4096,
      [&](std::size_t i) {
        const auto key = derive_seed(99, i % 200);
        if (auto hit = cache.lookup(key)) {
          // Value must always be the one every writer stores for this key.
          EXPECT_EQ(hit->accepted, key % 2 == 0);
        } else {
          cache.insert(key, {key % 2 == 0, key % 2 == 0 ? "DP" : ""});
        }
      },
      8);
  EXPECT_LE(cache.size(), 128u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4096u);
}

// ------------------------------------------------------------ session ----

TEST(AdmissionSession, MatchesDirectEngineRun) {
  // The session decides through decide(); its verdicts and accepting
  // analyzers must match a full-diagnostics run() of the same trio on the
  // same candidate sets.
  const Device dev{10};
  svc::AdmissionSession session(dev);
  const auto ts = table3_taskset();
  const analysis::AnalysisEngine trio{analysis::AnalysisRequest{}};

  std::vector<Task> admitted_so_far;
  for (const Task& t : ts) {
    std::vector<Task> trial = admitted_so_far;
    trial.push_back(t);
    const auto expect = trio.run(TaskSet(trial), dev);
    const auto decision = session.try_admit(t);
    EXPECT_EQ(decision.admitted, expect.accepted());
    EXPECT_EQ(decision.accepted_by, expect.accepted_by());
    if (decision.admitted) admitted_so_far.push_back(t);
  }
  ASSERT_EQ(session.admitted().size(), admitted_so_far.size());
  for (std::size_t i = 0; i < admitted_so_far.size(); ++i) {
    EXPECT_EQ(session.admitted()[i].name, admitted_so_far[i].name);
  }
}

TEST(AdmissionSession, RejectionLeavesAdmittedSetUntouched) {
  const Device dev{5};
  svc::AdmissionSession session(dev);
  ASSERT_TRUE(session.try_admit(make_task(1.00, 5, 5, 3)).admitted);
  // Area 6 exceeds the device: infeasible, every test rejects.
  const auto decision = session.try_admit(make_task(1.00, 5, 5, 6));
  EXPECT_FALSE(decision.admitted);
  EXPECT_TRUE(decision.accepted_by.empty());
  ASSERT_EQ(session.admitted().size(), 1u);
  EXPECT_EQ(session.admitted()[0].area, 3);
}

TEST(AdmissionSession, RefusesTasksOutsideTheInputDomain) {
  svc::AdmissionSession session(Device{100});
  Task huge;
  huge.wcet = huge.deadline = huge.period = 200000000000000000LL;
  huge.area = 60;
  const auto decision = session.try_admit(huge);
  EXPECT_FALSE(decision.admitted);
  EXPECT_TRUE(decision.accepted_by.empty());
  EXPECT_EQ(decision.error, "C, D or T out of range (max 2147483647)");
  EXPECT_TRUE(session.admitted().empty());

  // A device outside the domain refuses every task; inside, no error.
  svc::AdmissionSession wide(Device{kMaxWidth + 1});
  EXPECT_EQ(wide.try_admit(make_task(1.00, 5, 5, 3)).error,
            "device width out of range (max 536870911)");
  EXPECT_TRUE(session.try_admit(make_task(1.00, 5, 5, 3)).error.empty());
}

TEST(AdmissionSession, RemoveThenReadmitDecidesAlike) {
  const Device dev{10};
  svc::AdmissionSession session(dev);

  const Task t1 = make_task(2.10, 5, 5, 7, "t1");
  const Task t2 = make_task(2.00, 7, 7, 7, "t2");
  ASSERT_TRUE(session.try_admit(t1).admitted);
  const auto first = session.try_admit(t2);
  ASSERT_TRUE(first.admitted);
  const double us_first = session.admitted().system_utilization();

  ASSERT_TRUE(session.remove(t2));
  ASSERT_EQ(session.admitted().size(), 1u);
  EXPECT_EQ(session.admitted()[0].name, "t1");

  // Same configuration as the first t2 admission => same decision, same
  // admitted set.
  const auto again = session.try_admit(t2);
  EXPECT_EQ(again.admitted, first.admitted);
  EXPECT_EQ(again.accepted_by, first.accepted_by);
  ASSERT_EQ(session.admitted().size(), 2u);
  EXPECT_EQ(session.admitted()[0].name, "t1");
  EXPECT_EQ(session.admitted()[1].name, "t2");
  EXPECT_EQ(session.admitted().system_utilization(), us_first);
}

TEST(AdmissionSession, RemoveMatchesFullIdentity) {
  const Device dev{10};
  svc::AdmissionSession session(dev);
  const Task named = make_task(1.00, 9, 9, 2, "mine");
  ASSERT_TRUE(session.try_admit(named).admitted);

  Task other = named;
  other.name = "theirs";
  EXPECT_FALSE(session.remove(other));
  EXPECT_TRUE(session.remove(named));
  EXPECT_TRUE(session.admitted().empty());
  EXPECT_FALSE(session.remove(named));
}

TEST(AdmissionSession, FkfSessionNeverAdmitsThroughGn1) {
  // GN1 is unsound for EDF-FkF: the capability filter drops it from an
  // EDF-FkF session's lineup, so no admission is ever credited to it.
  const Device dev{20};
  analysis::AnalysisRequest fkf_request;
  fkf_request.scheduler = analysis::Scheduler::kEdfFkF;
  svc::AdmissionSession fkf(dev, fkf_request);
  EXPECT_EQ(fkf.engine().execution_order(),
            (std::vector<std::string>{"dp", "gn2"}));

  for (const Task& t : table3_taskset()) {
    const auto decision = fkf.try_admit(t);
    if (decision.admitted) {
      EXPECT_NE(decision.accepted_by, "gn1");
    }
  }
}

// ----------------------------------------------------- batch pipeline ----

TEST(BatchPipeline, CacheKeyCoversAnalysisOptions) {
  svc::BatchRequest request;
  request.id = "k";
  request.taskset = table3_taskset();
  request.device = Device{20};

  svc::VerdictCache cache(64);
  svc::BatchOptions nf;
  const auto first = evaluate(request, &cache, nf);
  EXPECT_FALSE(first.cache_hit);

  svc::BatchOptions gn2_only;
  gn2_only.request.tests = {"gn2"};
  const auto other = evaluate(request, &cache, gn2_only);
  EXPECT_FALSE(other.cache_hit) << "different analyzer set must miss";
  EXPECT_NE(other.hash, first.hash);

  svc::BatchOptions strict;
  strict.request.tests = {"gn2"};
  strict.request.config.gn2.non_strict_condition2 = true;
  const auto tweaked = evaluate(request, &cache, strict);
  EXPECT_FALSE(tweaked.cache_hit) << "different per-test options must miss";
  EXPECT_NE(tweaked.hash, other.hash);

  const auto repeat = evaluate(request, &cache, nf);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.accepted, first.accepted);
}

TEST(BatchPipeline, PerRequestTestsOverrideThePipelineDefault) {
  svc::BatchRequest full;
  full.id = "full";
  full.taskset = table3_taskset();
  full.device = Device{20};

  svc::BatchRequest dp_only = full;
  dp_only.id = "dp";
  dp_only.tests = {"dp"};

  svc::VerdictCache cache(64);
  const svc::BatchOptions explain = explain_options();
  const auto a = evaluate(full, &cache, explain);
  const auto b = evaluate(dp_only, &cache, explain);
  EXPECT_NE(a.hash, b.hash)
      << "a {dp}-only verdict must never share a cache line with the trio";
  EXPECT_FALSE(b.cache_hit);

  // The override reaches the engine: only dp appears in the sub-reports.
  ASSERT_EQ(b.sub.size(), 1u);
  EXPECT_EQ(b.sub[0].test, "dp");

  // Same override again: cache hit on the {dp} line.
  const auto c = evaluate(dp_only, &cache, explain);
  EXPECT_TRUE(c.cache_hit);
  EXPECT_EQ(c.accepted, b.accepted);

  // The decide() default shares those cache lines: identical verdicts, so
  // an entry explain's run() stored answers a default request and vice
  // versa.
  const auto d = evaluate(dp_only, &cache, {});
  EXPECT_TRUE(d.cache_hit);
  EXPECT_EQ(d.hash, b.hash);
  EXPECT_EQ(d.accepted, b.accepted);
}

TEST(EngineTable, EverySpellingOfALineupResolvesToOneEngine) {
  // Every `tests` array of one to five ids over {dp, gn1, gn2}: 363
  // spellings of seven distinct id sets.
  const std::vector<std::string> ids = {"dp", "gn1", "gn2"};
  svc::EngineTable engines;
  std::map<std::set<std::string>, const analysis::AnalysisEngine*> by_set;
  std::size_t spellings = 0;
  for (std::size_t length = 1; length <= 5; ++length) {
    std::size_t count = 1;
    for (std::size_t i = 0; i < length; ++i) count *= ids.size();
    for (std::size_t code = 0; code < count; ++code) {
      std::vector<std::string> tests;
      for (std::size_t i = 0, c = code; i < length; ++i, c /= ids.size()) {
        tests.push_back(ids[c % ids.size()]);
      }
      const analysis::AnalysisEngine& engine = engines.resolve(tests);
      const auto [it, fresh] = by_set.emplace(
          std::set<std::string>(tests.begin(), tests.end()), &engine);
      EXPECT_EQ(it->second, &engine)
          << "spelling " << code << " of length " << length;
      if (fresh) {
        analysis::AnalysisRequest request = svc::BatchOptions{}.request;
        request.tests = tests;
        EXPECT_EQ(engine.fingerprint(),
                  analysis::AnalysisEngine(request).fingerprint());
      }
      EXPECT_LE(engines.size(), by_set.size());
      ++spellings;
    }
  }
  EXPECT_EQ(spellings, 363u);
  EXPECT_EQ(by_set.size(), 7u);
  EXPECT_EQ(engines.size(), 7u);
  std::set<const analysis::AnalysisEngine*> objects;
  for (const auto& [set, engine] : by_set) objects.insert(engine);
  EXPECT_EQ(objects.size(), 7u) << "distinct id sets share an engine";

  // No tests: the pipeline default, which is not a lineup entry.
  const analysis::AnalysisEngine& fallback = engines.resolve({});
  EXPECT_EQ(&engines.resolve({}), &fallback);
  EXPECT_EQ(fallback.fingerprint(),
            analysis::AnalysisEngine(svc::BatchOptions{}.request)
                .fingerprint());
  EXPECT_EQ(engines.size(), 7u);

  // An unknown id is refused and leaves the table as it was.
  EXPECT_THROW((void)engines.resolve(std::vector<std::string>{"dp", "gnX"}),
               analysis::UnknownAnalyzerError);
  EXPECT_EQ(engines.size(), 7u);
}

TEST(BatchPipeline, SelectionEmptiedByFilterYieldsErrorNotInconclusive) {
  // {"tests":["gn1"]} under an EDF-FkF pipeline: gn1 is filtered out as
  // unsound, leaving nothing to run — the caller gets an error, never a
  // silent kInconclusive that looks like "gn1 ran and failed".
  svc::BatchRequest request;
  request.id = "e";
  request.taskset = table3_taskset();
  request.device = Device{20};
  request.tests = {"gn1"};

  svc::BatchOptions fkf;
  fkf.request.scheduler = analysis::Scheduler::kEdfFkF;
  const auto verdict = evaluate(request, nullptr, fkf);
  EXPECT_FALSE(verdict.error.empty());
  EXPECT_FALSE(verdict.accepted);

  // Same via the batch path.
  ThreadPool pool(2);
  const auto batch = svc::run_batch(std::span(&request, 1), nullptr, pool,
                                    fkf);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch[0].error.empty());
}

TEST(BatchPipeline, ExplainModeCarriesSubReportsInExecutionOrder) {
  svc::BatchRequest request;
  request.id = "s";
  request.taskset = table3_taskset();
  request.device = Device{20};

  const svc::BatchOptions explain = explain_options();
  const auto verdict = evaluate(request, nullptr, explain);
  ASSERT_EQ(verdict.sub.size(), 3u);
  EXPECT_EQ(verdict.sub[0].test, "dp");   // cheapest first
  EXPECT_EQ(verdict.sub[1].test, "gn1");
  EXPECT_EQ(verdict.sub[2].test, "gn2");
  if (verdict.accepted) {
    EXPECT_EQ(verdict.accepted_by, verdict.sub[0].accepted   ? "dp"
                                   : verdict.sub[1].accepted ? "gn1"
                                                             : "gn2");
  }
}

TEST(BatchPipeline, FastDefaultMatchesExplainVerdictsWithoutSubReports) {
  // The serving default answers through decide(): no sub array, but
  // verdict, accepted_by and cache key identical to explain's run().
  svc::BatchRequest request;
  request.id = "f";
  request.taskset = table3_taskset();
  request.device = Device{20};

  const auto fast = evaluate(request, nullptr, {});
  EXPECT_TRUE(fast.sub.empty());

  const svc::BatchOptions explain = explain_options();
  const auto full = evaluate(request, nullptr, explain);
  EXPECT_EQ(fast.accepted, full.accepted);
  EXPECT_EQ(fast.accepted_by, full.accepted_by);
  EXPECT_EQ(fast.hash, full.hash)
      << "explain must not change the cache key";
}

TEST(BatchPipeline, IdenticalResultsForOneAndManyThreads) {
  std::vector<svc::BatchRequest> requests;
  requests.reserve(96);
  for (std::size_t i = 0; i < 96; ++i) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(6);
    req.seed = derive_seed(7, i % 3 == 0 ? i / 3 : 1000 + i);
    auto ts = gen::generate(req);
    ASSERT_TRUE(ts.has_value());
    svc::BatchRequest r;
    r.id = std::to_string(i);
    r.taskset = std::move(*ts);
    r.device = Device{100};
    requests.push_back(std::move(r));
  }

  auto run_with_threads = [&](unsigned threads) {
    svc::VerdictCache cache(1024);
    ThreadPool pool(threads);
    return svc::run_batch(requests, &cache, pool, {});
  };

  const auto serial = run_with_threads(1);
  ASSERT_EQ(serial.size(), requests.size());
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel = run_with_threads(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].id, serial[i].id);
      EXPECT_EQ(parallel[i].accepted, serial[i].accepted) << "request " << i;
      EXPECT_EQ(parallel[i].accepted_by, serial[i].accepted_by)
          << "request " << i;
      EXPECT_EQ(parallel[i].hash, serial[i].hash) << "request " << i;
    }
  }
}

TEST(BatchPipeline, CacheDoesNotChangeVerdicts) {
  std::vector<svc::BatchRequest> requests;
  for (std::size_t i = 0; i < 32; ++i) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(5);
    req.seed = derive_seed(21, i / 2);  // every taskset appears twice
    auto ts = gen::generate(req);
    ASSERT_TRUE(ts.has_value());
    svc::BatchRequest r;
    r.id = std::to_string(i);
    r.taskset = std::move(*ts);
    r.device = Device{100};
    requests.push_back(std::move(r));
  }

  ThreadPool pool(4);
  svc::VerdictCache cache(64);
  const auto cached = svc::run_batch(requests, &cache, pool, {});
  const auto uncached = svc::run_batch(requests, nullptr, pool, {});
  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].accepted, uncached[i].accepted);
    EXPECT_EQ(cached[i].accepted_by, uncached[i].accepted_by);
    EXPECT_EQ(cached[i].hash, uncached[i].hash);
  }
  // Duplicated tasksets must be visible as hits once warm.
  const auto warm = svc::run_batch(requests, &cache, pool, {});
  (void)warm;
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(BatchPipeline, ExpiredDeadlineShedsInsteadOfAnalyzing) {
  svc::BatchRequest request;
  request.id = "late";
  request.taskset = table3_taskset();
  request.device = Device{100};
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const svc::BatchVerdict verdict =
      evaluate(request, nullptr, {});
  EXPECT_EQ(verdict.shed, "deadline");
  EXPECT_TRUE(verdict.error.empty());
  EXPECT_FALSE(verdict.accepted);

  // No deadline (the default) analyzes as before.
  request.deadline = {};
  EXPECT_TRUE(evaluate(request, nullptr, {}).shed.empty());
}

// ----------------------------------------------------- cache snapshot ----

/// `count` single-owner shard caches of `capacity` entries each, and the
/// pointer view the snapshot functions take.
struct Fleet {
  Fleet(std::size_t count, std::size_t capacity) {
    for (std::size_t i = 0; i < count; ++i) {
      owned.push_back(std::make_unique<svc::ShardCache>(capacity));
      shards.push_back(owned.back().get());
    }
  }
  std::vector<std::unique_ptr<svc::ShardCache>> owned;
  std::vector<svc::ShardCache*> shards;
};

TEST(ShardSnapshot, SaveRestoreRequeryIsBitIdentical) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "reconf_cache_snap_test.v1")
          .string();
  // Written by 4 shards, restored into 3: the format is topology-free.
  Fleet fleet(4, 64);
  // A rejected verdict names no analyzer; the reader refuses one that does.
  for (std::uint64_t k = 1; k <= 40; ++k) {
    const std::uint64_t key = k * 0x9E3779B97F4A7C15ull;
    const bool accepted = k % 3 != 0;
    const char* by = !accepted ? "" : k % 2 == 0 ? "dp" : "gn2";
    fleet.shards[svc::shard_for_key(key, 4)]->insert(
        key, svc::CachedVerdict{accepted, by});
  }
  std::string error;
  ASSERT_TRUE(svc::save_shard_snapshot(fleet.shards, path, &error)) << error;

  Fleet restored(3, 64);
  std::size_t count = 0;
  ASSERT_TRUE(svc::load_shard_snapshot(restored.shards, path, &count, &error))
      << error;
  EXPECT_EQ(count, 40u);
  for (std::uint64_t k = 1; k <= 40; ++k) {
    const std::uint64_t key = k * 0x9E3779B97F4A7C15ull;
    const auto a = fleet.shards[svc::shard_for_key(key, 4)]->lookup(key);
    const auto b = restored.shards[svc::shard_for_key(key, 3)]->lookup(key);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value()) << "entry " << k << " lost in restore";
    EXPECT_EQ(a->accepted, b->accepted);
    EXPECT_EQ(a->accepted_by, b->accepted_by);
  }
  // Restored under the writer's topology the snapshot is canonical: saving
  // it again reproduces the file byte for byte.
  Fleet same(4, 64);
  ASSERT_TRUE(svc::load_shard_snapshot(same.shards, path, &count, &error))
      << error;
  const std::string path2 = path + ".again";
  ASSERT_TRUE(svc::save_shard_snapshot(same.shards, path2, &error)) << error;
  std::ifstream f1(path), f2(path2);
  std::stringstream s1, s2;
  s1 << f1.rdbuf();
  s2 << f2.rdbuf();
  EXPECT_EQ(s1.str(), s2.str());
  std::filesystem::remove(path);
  std::filesystem::remove(path2);
}

TEST(ShardSnapshot, RefusesTruncatedMalformedAndMissingFiles) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string good = (dir / "reconf_snap_good.v1").string();
  Fleet fleet(2, 16);
  fleet.shards[svc::shard_for_key(0xABCDull, 2)]->insert(
      0xABCDull, svc::CachedVerdict{true, "dp"});
  fleet.shards[svc::shard_for_key(0x1234ull, 2)]->insert(
      0x1234ull, svc::CachedVerdict{false, ""});
  ASSERT_TRUE(svc::save_shard_snapshot(fleet.shards, good));

  // Truncate: drop the last line so `count` no longer matches.
  std::ifstream in(good);
  std::stringstream all;
  all << in.rdbuf();
  std::string text = all.str();
  text.erase(text.rfind('\n', text.size() - 2) + 1);
  const std::string bad = (dir / "reconf_snap_bad.v1").string();
  std::ofstream(bad) << text;

  Fleet victim(2, 16);
  std::string error;
  EXPECT_FALSE(svc::load_shard_snapshot(victim.shards, bad, nullptr, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  std::ofstream(bad) << "not a snapshot\n";
  EXPECT_FALSE(svc::load_shard_snapshot(victim.shards, bad, nullptr, &error));
  for (const char* body : {"count 1\nzzzz 5 dp\n",
                           // Hex key with a trailing non-hex digit.
                           "count 1\n123456789abcdefg 1 dp\n",
                           // Count with trailing junk.
                           "count 1junk\n000000000000abcd 1 dp\n",
                           // An extra field after accepted_by.
                           "count 1\n000000000000abcd 1 dp extra\n",
                           // A rejection that names an analyzer.
                           "count 1\n000000000000abcd 0 gn2\n",
                           // An acceptance by an unregistered analyzer.
                           "count 1\n000000000000abcd 1 bogus\n",
                           // An acceptance that names no analyzer.
                           "count 1\n000000000000abcd 1 -\n"}) {
    std::ofstream(bad) << "reconf-verdict-cache v1\n" << body;
    EXPECT_FALSE(svc::load_shard_snapshot(victim.shards, bad, nullptr, &error))
        << body;
  }
  EXPECT_FALSE(svc::load_shard_snapshot(
      victim.shards, (dir / "reconf_absent.v1").string(), nullptr, &error));
  std::filesystem::remove(good);
  std::filesystem::remove(bad);
}

// -------------------------------------------------------- thread pool ----

TEST(ThreadPoolClass, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolClass, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolClass, ParallelForReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(100, [&](std::size_t) { sum.fetch_add(1); });
    ASSERT_EQ(sum.load(), 100);
  }
}

}  // namespace
}  // namespace reconf
