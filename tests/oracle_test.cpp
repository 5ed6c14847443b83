// The differential oracle end to end: adversarial families, the simulation
// probe, differential adjudication (including the engine's fast vs
// reference paths), the counterexample shrinker, and the NDJSON repro
// round-trip. The self-tests inject known-broken analyzers and assert the
// pipeline catches them and reduces each witness to a tiny repro — the
// property the whole subsystem exists to provide.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/registry.hpp"
#include "gen/rng.hpp"
#include "oracle/differential.hpp"
#include "oracle/families.hpp"
#include "oracle/inject.hpp"
#include "oracle/oracle.hpp"
#include "oracle/repro.hpp"
#include "oracle/shrinker.hpp"
#include "task/io.hpp"

namespace reconf::oracle {
namespace {

// ---------------------------------------------------------------- families --

TEST(Families, EveryFamilyIsDeterministicAndWellFormed) {
  for (const FuzzFamily family : all_families()) {
    for (std::uint64_t seed : {0ull, 1ull, 0xFEEDull}) {
      FamilyRequest req;
      req.family = family;
      req.num_tasks = 6;
      req.seed = seed;
      const FuzzCase a = make_fuzz_case(req);
      const FuzzCase b = make_fuzz_case(req);

      ASSERT_EQ(a.taskset.size(), 6u) << to_string(family);
      EXPECT_TRUE(a.taskset.all_well_formed());
      EXPECT_TRUE(a.device.valid());
      ASSERT_EQ(a.device.width, b.device.width);
      for (std::size_t i = 0; i < a.taskset.size(); ++i) {
        EXPECT_EQ(a.taskset[i].wcet, b.taskset[i].wcet);
        EXPECT_EQ(a.taskset[i].deadline, b.taskset[i].deadline);
        EXPECT_EQ(a.taskset[i].period, b.taskset[i].period);
        EXPECT_EQ(a.taskset[i].area, b.taskset[i].area);
      }
      // Every task individually feasible: rejections must be analysis
      // decisions, not input garbage.
      for (const Task& t : a.taskset) {
        EXPECT_LE(t.wcet, std::min(t.deadline, t.period));
        EXPECT_LE(t.area, a.device.width);
      }
    }
  }
}

TEST(Families, FamiliesKeepTheirDefiningShape) {
  FamilyRequest req;
  req.num_tasks = 8;
  req.seed = 0xABCD;

  req.family = FuzzFamily::kZeroLaxity;
  const FuzzCase zl = make_fuzz_case(req);
  int zero_laxity = 0;
  for (const Task& t : zl.taskset) {
    EXPECT_LE(t.deadline, t.period);
    if (t.deadline == t.wcet) ++zero_laxity;
  }
  EXPECT_GE(zero_laxity, 4);  // half the slots run at zero laxity

  req.family = FuzzFamily::kHarmonic;
  const FuzzCase ha = make_fuzz_case(req);
  const auto hp = ha.taskset.hyperperiod();
  ASSERT_TRUE(hp.has_value());
  EXPECT_LE(*hp, 8 * ha.taskset.max_period());  // base·2^k ladder stays tiny

  req.family = FuzzFamily::kUnitArea;
  const FuzzCase ua = make_fuzz_case(req);
  EXPECT_LE(ua.device.width, 8);
  for (const Task& t : ua.taskset) EXPECT_EQ(t.area, 1);

  req.family = FuzzFamily::kHeavyTailArbitrary;
  bool post_period_deadline = false;
  for (std::uint64_t s = 0; s < 8 && !post_period_deadline; ++s) {
    req.seed = s;
    for (const Task& t : make_fuzz_case(req).taskset) {
      post_period_deadline |= t.deadline > t.period;
    }
  }
  EXPECT_TRUE(post_period_deadline) << "arbitrary family never drew D > T";
}

TEST(Families, NameRoundTrip) {
  for (const FuzzFamily family : all_families()) {
    const auto parsed = family_from_string(to_string(family));
    ASSERT_TRUE(parsed.has_value()) << to_string(family);
    EXPECT_EQ(*parsed, family);
  }
  EXPECT_FALSE(family_from_string("no-such-family").has_value());
}

// ------------------------------------------------------------------ oracle --

TEST(Oracle, ProbeFindsTheObviousMissAndTheObviousPass) {
  // Two full-width tasks with C = T cannot share the device: sync miss.
  const TaskSet overloaded(
      {make_task(5, 5, 5, 10, "a", 1), make_task(5, 5, 5, 10, "b", 1)});
  const OracleEvidence bad = probe(overloaded, Device{10}, {});
  EXPECT_TRUE(bad.nf.sync_miss);
  EXPECT_TRUE(bad.nf.any_miss);
  EXPECT_TRUE(bad.nf.exact);  // hyperperiod 5: exact verdict
  EXPECT_GE(bad.nf.sync_first_miss, 0);
  EXPECT_TRUE(bad.nf.invariant_violations.empty());

  // Two tiny tasks on a wide device: meets everything, everywhere.
  const TaskSet easy(
      {make_task(1, 10, 10, 2, "a", 1), make_task(1, 10, 10, 2, "b", 1)});
  const OracleEvidence good = probe(easy, Device{10}, {});
  EXPECT_FALSE(good.nf.any_miss);
  EXPECT_FALSE(good.fkf.any_miss);
  EXPECT_FALSE(good.dominance_violated);
}

TEST(Oracle, ProbeIsDeterministicIncludingOffsetTrials) {
  FamilyRequest req;
  req.family = FuzzFamily::kNearBoundary;
  req.num_tasks = 6;
  req.seed = 0x1234;
  const FuzzCase fuzz = make_fuzz_case(req);
  OracleConfig cfg;
  cfg.offset_trials = 3;
  const SchedulerEvidence a =
      probe_scheduler(fuzz.taskset, fuzz.device, sim::SchedulerKind::kEdfNf,
                      cfg);
  const SchedulerEvidence b =
      probe_scheduler(fuzz.taskset, fuzz.device, sim::SchedulerKind::kEdfNf,
                      cfg);
  EXPECT_EQ(a.any_miss, b.any_miss);
  EXPECT_EQ(a.sync_miss, b.sync_miss);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.sync_first_miss, b.sync_first_miss);
}

// ------------------------------------------------------------ differential --

/// Sweeps the injected harness until at least one disagreement of `kind`
/// is found; the oracle must catch an unsound analyzer quickly.
std::vector<Disagreement> hunt(const DifferentialHarness& harness,
                               DisagreementKind kind, OracleStats& stats,
                               int budget = 400) {
  std::vector<Disagreement> found;
  for (int i = 0; i < budget; ++i) {
    FamilyRequest req;
    req.family = all_families()[static_cast<std::size_t>(i) %
                                all_families().size()];
    req.num_tasks = 2 + i % 9;
    req.seed = gen::derive_seed(0xB16B00B5, static_cast<std::uint64_t>(i));
    const FuzzCase fuzz = make_fuzz_case(req);
    std::vector<Disagreement> here;
    harness.adjudicate(fuzz.taskset, fuzz.device, req.family, req.seed,
                       stats, &here);
    for (auto& d : here) {
      if (d.kind == kind) found.push_back(std::move(d));
    }
    if (!found.empty()) break;
  }
  return found;
}

TEST(Differential, BuiltinAnalyzersAdjudicateCleanly) {
  const analysis::AnalyzerRegistry& registry =
      analysis::AnalyzerRegistry::instance();
  const DifferentialHarness harness({}, registry);
  OracleStats stats;
  std::vector<Disagreement> found;
  for (int i = 0; i < 250; ++i) {
    FamilyRequest req;
    req.family = all_families()[static_cast<std::size_t>(i) %
                                all_families().size()];
    req.num_tasks = 2 + i % 9;
    req.seed = gen::derive_seed(0x5A11, static_cast<std::uint64_t>(i));
    const FuzzCase fuzz = make_fuzz_case(req);
    harness.adjudicate(fuzz.taskset, fuzz.device, req.family, req.seed,
                       stats, &found);
  }
  EXPECT_EQ(stats.tasksets, 250u);
  EXPECT_TRUE(stats.clean()) << (found.empty() ? "?" : found.front().detail)
                             << "\n"
                             << (found.empty()
                                     ? ""
                                     : io::to_string(found.front().taskset,
                                                     found.front().device));
  EXPECT_EQ(found.size(), 0u);
  // The sweep must have produced meaningful coverage on both sides.
  std::uint64_t accepts = 0;
  std::uint64_t misses = 0;
  for (const auto& [family, fs] : stats.families) {
    accepts += fs.accepted_any;
    misses += fs.sync_miss;
  }
  EXPECT_GT(accepts, 0u);
  EXPECT_GT(misses, 0u);
}

TEST(Differential, CatchesAnInjectedOverAcceptingAnalyzer) {
  analysis::AnalyzerRegistry registry;
  const std::string id =
      populate_injected_registry(registry, InjectMode::kOverAccept);
  ASSERT_EQ(id, "inject-us-bound");
  const DifferentialHarness harness({}, registry);

  OracleStats stats;
  const auto found =
      hunt(harness, DisagreementKind::kSufficiencyViolation, stats);
  ASSERT_FALSE(found.empty())
      << "the oracle failed to catch a necessary-condition analyzer";
  EXPECT_EQ(found.front().analyzer, "inject-us-bound");
  EXPECT_GT(stats.sufficiency_violations, 0u);
}

TEST(Differential, CatchesAnInjectedFastSlowDivergence) {
  analysis::AnalyzerRegistry registry;
  const std::string id =
      populate_injected_registry(registry, InjectMode::kFastSlow);
  ASSERT_EQ(id, "inject-split");
  const DifferentialHarness harness({}, registry);

  OracleStats stats;
  const auto found =
      hunt(harness, DisagreementKind::kFastSlowDivergence, stats);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found.front().analyzer, "engine");
  EXPECT_GT(stats.fast_slow_divergences, 0u);
}

TEST(Differential, StatsMergeAndSerialize) {
  OracleStats a;
  a.tasksets = 2;
  a.families[FuzzFamily::kHarmonic].tasksets = 2;
  a.families[FuzzFamily::kHarmonic].analyzers["dp"].runs = 2;
  a.families[FuzzFamily::kHarmonic].analyzers["dp"].accepts = 1;
  OracleStats b;
  b.tasksets = 3;
  b.sufficiency_violations = 1;
  b.families[FuzzFamily::kHarmonic].tasksets = 3;
  b.families[FuzzFamily::kHarmonic].analyzers["dp"].runs = 3;

  a.merge(b);
  EXPECT_EQ(a.tasksets, 5u);
  EXPECT_FALSE(a.clean());
  EXPECT_EQ(a.families[FuzzFamily::kHarmonic].analyzers["dp"].runs, 5u);

  const std::string json = stats_to_json(a, 0xC0FFEE);
  EXPECT_NE(json.find("\"schema\": \"reconf-oracle-stats/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"seed\": \"0xc0ffee\""), std::string::npos);
  EXPECT_NE(json.find("\"family\": \"harmonic\""), std::string::npos);
  EXPECT_NE(json.find("\"sufficiency_violations\": 1"), std::string::npos);
}

// ---------------------------------------------------------------- shrinker --

TEST(Shrinker, ReducesInjectedViolationsToTinyRepros) {
  analysis::AnalyzerRegistry registry;
  populate_injected_registry(registry, InjectMode::kOverAccept);
  const DifferentialHarness harness({}, registry);

  OracleStats stats;
  const auto found =
      hunt(harness, DisagreementKind::kSufficiencyViolation, stats);
  ASSERT_FALSE(found.empty());
  const Disagreement& d = found.front();

  analysis::AnalysisRequest req;
  req.tests = {d.analyzer};
  const auto single =
      std::make_shared<analysis::AnalysisEngine>(req, registry);
  const OracleConfig oracle_cfg = harness.oracle_config();
  const sim::SchedulerKind scheduler = d.scheduler;
  const auto outcome = shrink(
      d.taskset, d.device,
      [&](const TaskSet& ts, Device device) {
        if (!single->run(ts, device).accepted()) return false;
        return probe_scheduler(ts, device, scheduler, oracle_cfg).any_miss;
      });

  // The acceptance bar: any injected disagreement reduces to a <= 4-task
  // witness (this fault class reliably reaches 2).
  EXPECT_LE(outcome.taskset.size(), 4u)
      << io::to_string(outcome.taskset, outcome.device);
  EXPECT_FALSE(outcome.hit_eval_budget);
  // The shrunk witness still reproduces the full disagreement.
  EXPECT_TRUE(single->run(outcome.taskset, outcome.device).accepted());
  EXPECT_TRUE(probe_scheduler(outcome.taskset, outcome.device, scheduler,
                              oracle_cfg)
                  .any_miss);
}

TEST(Shrinker, ReducesParityCoupledDivergencesViaPairRemoval) {
  analysis::AnalyzerRegistry registry;
  populate_injected_registry(registry, InjectMode::kFastSlow);
  const DifferentialHarness harness({}, registry);

  OracleStats stats;
  const auto found =
      hunt(harness, DisagreementKind::kFastSlowDivergence, stats);
  ASSERT_FALSE(found.empty());
  const Disagreement& d = found.front();

  const auto outcome = shrink(
      d.taskset, d.device, [&](const TaskSet& ts, Device device) {
        const auto report = harness.engine().run(ts, device);
        const auto decision = harness.engine().decide(ts, device);
        return decision.verdict != report.verdict ||
               decision.accepted_by != report.accepted_by();
      });
  // Removing any single task flips the parity the bug keys on; only the
  // pair-removal pass can shrink this witness.
  EXPECT_LE(outcome.taskset.size(), 4u);
}

TEST(Shrinker, ReturnsNonWitnessesUntouched) {
  const TaskSet ts(
      {make_task(1, 10, 10, 2, "a", 1), make_task(2, 10, 10, 3, "b", 1)});
  const auto outcome =
      shrink(ts, Device{10}, [](const TaskSet&, Device) { return false; });
  EXPECT_EQ(outcome.taskset.size(), 2u);
  EXPECT_EQ(outcome.device.width, 10);
  EXPECT_EQ(outcome.evals, 1u);
}

// ------------------------------------------------------------------- repro --

TEST(Repro, RoundTripsThroughNdjson) {
  ReproCase repro;
  repro.id = "shrunk-example-0x1f";
  repro.kind = "sufficiency_violation";
  repro.device = Device{42};
  repro.taskset = TaskSet(
      {make_task(1, 1, 2, 7, "x", 1), make_task(2, 2, 2, 38, "", 1)});
  repro.tests = {"dp", "gn2"};
  repro.expect_accept = false;
  repro.expect_sync_miss = true;
  repro.analyzer = "inject-us-bound";
  repro.scheduler = "EDF-NF";
  repro.family = "reconf_heavy";
  repro.seed = 0xAF66;
  repro.note = "accepted but \"EDF-NF\" missed";

  const std::string line = format_repro_line(repro);
  const ReproCase parsed = parse_repro_line(line);
  EXPECT_EQ(parsed.id, repro.id);
  EXPECT_EQ(parsed.kind, repro.kind);
  EXPECT_EQ(parsed.device.width, 42);
  ASSERT_EQ(parsed.taskset.size(), 2u);
  EXPECT_EQ(parsed.taskset[0].wcet, repro.taskset[0].wcet);
  EXPECT_EQ(parsed.taskset[1].area, repro.taskset[1].area);
  EXPECT_EQ(parsed.tests, repro.tests);
  EXPECT_EQ(parsed.expect_accept, repro.expect_accept);
  EXPECT_EQ(parsed.expect_sync_miss, repro.expect_sync_miss);
  EXPECT_EQ(parsed.analyzer, repro.analyzer);
  EXPECT_EQ(parsed.seed, 0xAF66u);
  EXPECT_EQ(parsed.note, repro.note);
}

TEST(Repro, RejectsMalformedEntries) {
  EXPECT_THROW(parse_repro_line("not json"), std::runtime_error);
  EXPECT_THROW(parse_repro_line("{\"schema\":\"reconf-repro/1\"}"),
               std::runtime_error);
  EXPECT_THROW(
      parse_repro_line("{\"schema\":\"reconf-repro/2\",\"id\":\"x\","
                       "\"kind\":\"k\",\"device\":1,\"tasks\":[]}"),
      std::runtime_error);
  EXPECT_THROW(
      parse_repro_line("{\"schema\":\"reconf-repro/1\",\"id\":\"x\","
                       "\"kind\":\"k\",\"device\":1,\"tasks\":["
                       "{\"c\":1,\"d\":1,\"t\":1,\"a\":1}],\"bogus\":1}"),
      std::runtime_error);
}

TEST(Repro, ReadCorpusSkipsCommentsAndReportsLineNumbers) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "{\"schema\":\"reconf-repro/1\",\"id\":\"a\",\"kind\":\"boundary\","
      "\"device\":10,\"tasks\":[{\"c\":1,\"d\":2,\"t\":2,\"a\":1}]}\n");
  const auto corpus = read_corpus(in);
  ASSERT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus[0].id, "a");

  std::istringstream bad("\n{broken\n");
  try {
    (void)read_corpus(bad);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corpus line 2"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace reconf::oracle
