// Soundness properties tying the analysis to the simulator: a sufficient
// schedulability test may never accept a taskset whose simulation (any
// release pattern — synchronous or random offsets) misses a deadline.
//
// Schedulability-test soundness map:
//   DP, GN2  → sound for EDF-FkF, hence also EDF-NF (Danne dominance).
//   GN1      → sound for EDF-NF only.
//
// The GN1 *as-published* variant (β_i = W̄_i/D_i) is checked separately: the
// BCL derivation divides by the window D_k, so the published form could in
// principle over-accept when D_i > D_k. The parameterized sweep records any
// counterexample explicitly (see Gn1Options in analysis/options.hpp); with
// the default seeds none has been observed, and a hard failure here would
// be a reportable finding.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "analysis/dp.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "gen/generator.hpp"
#include "gen/rng.hpp"
#include "sim/engine.hpp"
#include "task/io.hpp"

namespace reconf {
namespace {

struct SweepCase {
  std::uint64_t seed;
  int num_tasks;
  double target_us;
};

std::string dump(const TaskSet& ts, Device dev) {
  return io::to_string(ts, dev);
}

sim::SimConfig sim_cfg(sim::SchedulerKind kind) {
  sim::SimConfig cfg;
  cfg.scheduler = kind;
  cfg.horizon_periods = 60;
  return cfg;
}

class SoundnessSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SoundnessSweep, AcceptedTasksetsMeetAllDeadlinesInSimulation) {
  const SweepCase& c = GetParam();
  const Device dev{100};

  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(c.num_tasks);
  req.target_system_util = c.target_us;
  req.seed = c.seed;
  const auto ts = gen::generate_with_retries(req);
  if (!ts) GTEST_SKIP() << "target unreachable for this seed";

  const bool dp = analysis::dp_test(*ts, dev).accepted();
  const bool gn1 = analysis::gn1_test(*ts, dev).accepted();
  const bool gn2 = analysis::gn2_test(*ts, dev).accepted();

  if (!(dp || gn1 || gn2)) return;  // nothing claimed, nothing to verify

  const auto nf = sim::simulate(*ts, dev, sim_cfg(sim::SchedulerKind::kEdfNf));
  if (dp || gn2) {
    const auto fkf =
        sim::simulate(*ts, dev, sim_cfg(sim::SchedulerKind::kEdfFkF));
    EXPECT_TRUE(fkf.schedulable)
        << "DP/GN2 accepted but EDF-FkF missed a deadline\n"
        << dump(*ts, dev);
  }
  EXPECT_TRUE(nf.schedulable)
      << "accepted (dp=" << dp << " gn1=" << gn1 << " gn2=" << gn2
      << ") but EDF-NF missed a deadline\n"
      << dump(*ts, dev);

  // Random release offsets: sufficient tests quantify over all patterns.
  gen::Xoshiro256ss rng(c.seed ^ 0xABCDEF);
  for (int trial = 0; trial < 3; ++trial) {
    sim::SimConfig cfg = sim_cfg(sim::SchedulerKind::kEdfNf);
    cfg.offsets.reserve(ts->size());
    for (std::size_t i = 0; i < ts->size(); ++i) {
      cfg.offsets.push_back(rng.uniform_int(0, (*ts)[i].period));
    }
    const auto offset_run = sim::simulate(*ts, dev, cfg);
    EXPECT_TRUE(offset_run.schedulable)
        << "accepted but EDF-NF missed with offsets (trial " << trial
        << ")\n"
        << dump(*ts, dev);
  }
}

std::vector<SweepCase> make_cases() {
  std::vector<SweepCase> cases;
  // Concentrate on mid/high utilization where acceptance decisions are
  // nontrivial; paper device A(H) = 100.
  for (const int n : {2, 4, 10}) {
    for (const double us : {15.0, 30.0, 45.0, 60.0}) {
      for (std::uint64_t s = 0; s < 12; ++s) {
        cases.push_back({0x5EED0000 + s * 131 + static_cast<std::uint64_t>(n),
                         n, us});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTasksets, SoundnessSweep,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           const SweepCase& c = info.param;
                           return "n" + std::to_string(c.num_tasks) + "_us" +
                                  std::to_string(static_cast<int>(c.target_us)) +
                                  "_s" + std::to_string(c.seed & 0xFFFF);
                         });

// ---------------------------------------------------------------------------
// Danne dominance (Section 1): a taskset schedulable by EDF-FkF is also
// schedulable by EDF-NF. Checked per release pattern on random tasksets.
// ---------------------------------------------------------------------------
class DominanceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DominanceSweep, NfScheduleWheneverFkFDoes) {
  const SweepCase& c = GetParam();
  const Device dev{100};

  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(c.num_tasks);
  req.target_system_util = c.target_us;
  req.seed = c.seed;
  const auto ts = gen::generate_with_retries(req);
  if (!ts) GTEST_SKIP();

  const auto fkf =
      sim::simulate(*ts, dev, sim_cfg(sim::SchedulerKind::kEdfFkF));
  if (!fkf.schedulable) return;
  const auto nf = sim::simulate(*ts, dev, sim_cfg(sim::SchedulerKind::kEdfNf));
  EXPECT_TRUE(nf.schedulable)
      << "EDF-FkF schedulable but EDF-NF missed — dominance violated\n"
      << dump(*ts, dev);
}

std::vector<SweepCase> dominance_cases() {
  std::vector<SweepCase> cases;
  for (const int n : {4, 10}) {
    for (const double us : {50.0, 70.0, 85.0}) {
      for (std::uint64_t s = 0; s < 15; ++s) {
        cases.push_back({0xD011A0 + s * 7 + static_cast<std::uint64_t>(n), n,
                         us});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTasksets, DominanceSweep,
                         ::testing::ValuesIn(dominance_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           const SweepCase& c = info.param;
                           return "n" + std::to_string(c.num_tasks) + "_us" +
                                  std::to_string(static_cast<int>(c.target_us)) +
                                  "_s" + std::to_string(c.seed & 0xFFFF);
                         });

// ---------------------------------------------------------------------------
// Exact (BigRational) and double evaluation must agree on generated
// tasksets. (They can only diverge within the double path's 1e-9 tolerance
// band, which random integer-tick tasksets do not hit.)
// ---------------------------------------------------------------------------
class ExactAgreementSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ExactAgreementSweep, DoubleAndExactVerdictsMatch) {
  const SweepCase& c = GetParam();
  const Device dev{100};

  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(c.num_tasks);
  req.target_system_util = c.target_us;
  req.seed = c.seed;
  const auto ts = gen::generate_with_retries(req);
  if (!ts) GTEST_SKIP();

  EXPECT_EQ(analysis::dp_test(*ts, dev).accepted(),
            analysis::dp_test_exact(*ts, dev).accepted())
      << dump(*ts, dev);
  EXPECT_EQ(analysis::gn1_test(*ts, dev).accepted(),
            analysis::gn1_test_exact(*ts, dev).accepted())
      << dump(*ts, dev);
  EXPECT_EQ(analysis::gn2_test(*ts, dev).accepted(),
            analysis::gn2_test_exact(*ts, dev).accepted())
      << dump(*ts, dev);
}

std::vector<SweepCase> agreement_cases() {
  std::vector<SweepCase> cases;
  for (const int n : {3, 10}) {
    for (const double us : {20.0, 40.0, 60.0}) {
      for (std::uint64_t s = 0; s < 10; ++s) {
        cases.push_back({0xE8AC7 + s * 13 + static_cast<std::uint64_t>(n), n,
                         us});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTasksets, ExactAgreementSweep,
                         ::testing::ValuesIn(agreement_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           const SweepCase& c = info.param;
                           return "n" + std::to_string(c.num_tasks) + "_us" +
                                  std::to_string(static_cast<int>(c.target_us)) +
                                  "_s" + std::to_string(c.seed & 0xFFFF);
                         });

}  // namespace
}  // namespace reconf
