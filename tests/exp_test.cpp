#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/series.hpp"
#include "exp/sweep.hpp"
#include "oracle/inject.hpp"

namespace reconf::exp {
namespace {

SweepConfig small_config() {
  SweepConfig cfg;
  cfg.profile = gen::GenProfile::unconstrained(4);
  cfg.device = Device{100};
  cfg.us_min = 10.0;
  cfg.us_max = 50.0;
  cfg.bins = 4;
  cfg.samples_per_bin = 40;
  cfg.seed = 1234;
  cfg.series = {dp_series(), gn1_series(), gn2_series()};
  return cfg;
}

TEST(Sweep, BinTargetsSpanTheRange) {
  const SweepConfig cfg = small_config();
  EXPECT_DOUBLE_EQ(cfg.bin_target(0), 15.0);
  EXPECT_DOUBLE_EQ(cfg.bin_target(3), 45.0);
}

TEST(Sweep, ProducesOneResultPerBinAndSeries) {
  const auto result = run_sweep(small_config());
  ASSERT_EQ(result.bins.size(), 4u);
  ASSERT_EQ(result.series_names.size(), 3u);
  for (const auto& bin : result.bins) {
    EXPECT_EQ(bin.accepted.size(), 3u);
    EXPECT_GT(bin.samples, 0u);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_LE(bin.accepted[s], bin.samples);
    }
  }
}

TEST(Sweep, AchievedUtilizationTracksTarget) {
  const auto result = run_sweep(small_config());
  for (const auto& bin : result.bins) {
    EXPECT_NEAR(bin.us_achieved_mean, bin.us_target, 0.5);
  }
}

TEST(Sweep, AcceptanceDecreasesWithUtilization) {
  // Monotone trend for the composite over a wide range (allowing small
  // sampling noise between adjacent bins).
  SweepConfig cfg = small_config();
  cfg.us_min = 5.0;
  cfg.us_max = 85.0;
  cfg.bins = 5;
  cfg.samples_per_bin = 80;
  cfg.series = {any_test_series()};
  const auto result = run_sweep(cfg);
  EXPECT_GT(result.bins.front().ratio(0), result.bins.back().ratio(0));
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  SweepConfig cfg = small_config();
  cfg.threads = 1;
  const auto a = run_sweep(cfg);
  cfg.threads = 4;
  const auto b = run_sweep(cfg);
  ASSERT_EQ(a.bins.size(), b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    EXPECT_EQ(a.bins[i].samples, b.bins[i].samples);
    EXPECT_EQ(a.bins[i].accepted, b.bins[i].accepted);
  }
}

TEST(Sweep, DeterministicAcrossRuns) {
  const auto a = run_sweep(small_config());
  const auto b = run_sweep(small_config());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    EXPECT_EQ(a.bins[i].accepted, b.bins[i].accepted);
  }
}

TEST(Sweep, SeedChangesSamples) {
  SweepConfig cfg = small_config();
  const auto a = run_sweep(cfg);
  cfg.seed = 999;
  const auto b = run_sweep(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    any_diff = any_diff || a.bins[i].accepted != b.bins[i].accepted;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Sweep, AppendingBarePredicatesLeavesEveryEarlierSeriesUnchanged) {
  SweepConfig cfg = small_config();
  cfg.series = paper_series();
  const auto before = run_sweep(cfg);

  // What bench_paper appends: the sets one bound accepts and neither other
  // does, as predicates with no engine.
  const std::vector<SeriesSpec> bounds = {dp_series(), gn1_series(),
                                          gn2_series()};
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    cfg.series.push_back({bounds[k].name + "-only",
                          [bounds, k](const TaskSet& ts, Device dev) {
                            for (std::size_t j = 0; j < bounds.size(); ++j) {
                              if (bounds[j].accept(ts, dev) != (j == k)) {
                                return false;
                              }
                            }
                            return true;
                          },
                          nullptr, std::nullopt});
  }
  const auto after = run_sweep(cfg);

  const std::size_t earlier = before.series_names.size();
  ASSERT_EQ(after.series_names.size(), earlier + bounds.size());
  ASSERT_EQ(after.refutation_pairs.size(), before.refutation_pairs.size());
  for (std::size_t p = 0; p < before.refutation_pairs.size(); ++p) {
    EXPECT_EQ(after.refutation_pairs[p].bound,
              before.refutation_pairs[p].bound);
    EXPECT_EQ(after.refutation_pairs[p].simulation,
              before.refutation_pairs[p].simulation);
    EXPECT_EQ(after.refutation_pairs[p].sound,
              before.refutation_pairs[p].sound);
  }
  EXPECT_EQ(after.generation_failures, before.generation_failures);
  ASSERT_EQ(after.bins.size(), before.bins.size());
  for (std::size_t b = 0; b < before.bins.size(); ++b) {
    const BinResult& was = before.bins[b];
    const BinResult& now = after.bins[b];
    EXPECT_EQ(now.samples, was.samples);
    EXPECT_EQ(std::vector<std::uint64_t>(now.accepted.begin(),
                                         now.accepted.begin() +
                                             static_cast<std::ptrdiff_t>(
                                                 earlier)),
              was.accepted)
        << "bin " << b;
    EXPECT_EQ(now.refuted, was.refuted) << "bin " << b;
  }
}

TEST(Series, PaperSeriesHasExpectedLineup) {
  const auto series = paper_series();
  ASSERT_EQ(series.size(), 6u);
  EXPECT_EQ(series[0].name, "DP");
  EXPECT_EQ(series[1].name, "GN1");
  EXPECT_EQ(series[2].name, "GN2");
  EXPECT_EQ(series[3].name, "ANY");
  EXPECT_EQ(series[4].name, "SIM-EDF-NF");
  EXPECT_EQ(series[5].name, "SIM-EDF-FkF");
}

TEST(Series, AnyIsUnionOfIndividualTests) {
  const auto series = paper_series();
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(6);
  req.target_system_util = 25.0;
  const Device dev{100};
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    req.seed = seed;
    const auto ts = gen::generate_with_retries(req);
    if (!ts) continue;
    const bool dp = series[0].accept(*ts, dev);
    const bool gn1 = series[1].accept(*ts, dev);
    const bool gn2 = series[2].accept(*ts, dev);
    const bool any = series[3].accept(*ts, dev);
    EXPECT_EQ(any, dp || gn1 || gn2) << "seed " << seed;
  }
}

TEST(Refutation, PairsEveryBoundWithThePaperSimulationsBySoundness) {
  SweepConfig cfg = small_config();
  cfg.series = paper_series();
  cfg.series.push_back(sim_series(sim::SchedulerKind::kEdfUs));
  sim::SimConfig contiguous;
  contiguous.placement = sim::PlacementMode::kContiguousNoMigration;
  cfg.series.push_back(sim_series(sim::SchedulerKind::kEdfNf, contiguous));
  const auto result = run_sweep(cfg);

  // DP, GN1, GN2 and ANY against SIM-EDF-NF (4) and SIM-EDF-FkF (5); the
  // EDF-US and contiguous simulations are outside the theorems.
  std::vector<std::string> pairs;
  for (const RefutationPair& p : result.refutation_pairs) {
    pairs.push_back(result.series_names[p.bound] + "/" +
                    result.series_names[p.simulation] +
                    (p.sound ? "" : " (unsound)"));
  }
  EXPECT_EQ(pairs, (std::vector<std::string>{
                       "DP/SIM-EDF-NF", "DP/SIM-EDF-FkF", "GN1/SIM-EDF-NF",
                       "GN1/SIM-EDF-FkF (unsound)", "GN2/SIM-EDF-NF",
                       "GN2/SIM-EDF-FkF", "ANY/SIM-EDF-NF",
                       "ANY/SIM-EDF-FkF (unsound)"}));
  for (const BinResult& bin : result.bins) {
    ASSERT_EQ(bin.refuted.size(), result.refutation_pairs.size());
    for (std::size_t p = 0; p < bin.refuted.size(); ++p) {
      if (result.refutation_pairs[p].sound) {
        EXPECT_EQ(bin.refuted[p], 0u);
      }
    }
  }
}

TEST(Refutation, CountsTheAcceptancesOfAnUnsoundBoundThatSimulationMisses) {
  // "inject-us-bound" accepts whenever U_S <= A(H) and claims EDF-NF
  // soundness — a necessary condition passed off as sufficient.
  analysis::AnalyzerRegistry registry;
  const std::string id = oracle::populate_injected_registry(
      registry, oracle::InjectMode::kOverAccept);
  analysis::AnalysisRequest request;
  request.tests = {id};

  SweepConfig cfg = small_config();
  cfg.series = {engine_series("INJECT", request, registry),
                sim_series(sim::SchedulerKind::kEdfNf)};
  const auto result = run_sweep(cfg);
  ASSERT_EQ(result.refutation_pairs.size(), 1u);
  EXPECT_TRUE(result.refutation_pairs[0].sound);
  std::uint64_t refuted = 0;
  for (const BinResult& bin : result.bins) {
    EXPECT_LE(bin.refuted[0], bin.accepted[0]);
    refuted += bin.refuted[0];
  }
  EXPECT_GT(refuted, 0u);
}

}  // namespace
}  // namespace reconf::exp
