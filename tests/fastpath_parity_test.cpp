// Parity suite for the SoA fast-path kernels (analysis/detail/kernels.hpp):
// across ≥1k randomized generated tasksets — implicit, constrained and
// arbitrary deadlines, every per-test option variant — the fast kernels
// must agree with the reference DoublePolicy evaluators on verdict,
// first_failing_task and (for GN2) the chosen λ candidate and condition,
// and the engine's decide() must agree with its run(). The reference
// evaluators stay the correctness oracle; this suite is what licenses
// serving verdicts from the kernels.

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/detail/kernels.hpp"
#include "analysis/detail/scratch.hpp"
#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "gen/generator.hpp"
#include "gen/rng.hpp"
#include "task/fixtures.hpp"
#include "task/task.hpp"

namespace reconf {
namespace {

using analysis::AnalysisEngine;
using analysis::AnalysisRequest;
using analysis::TestReport;
using analysis::Verdict;
using analysis::FastVerdict;
using analysis::detail::AnalysisScratch;
using analysis::detail::Gn2Choice;

/// The deadline models the kernels must cover, as generator deadline-ratio
/// ranges: implicit (D = T), constrained (D ≤ T), arbitrary (D can exceed
/// T — exercises GN2's pool densities and the β middle branch).
struct DeadlineClass {
  const char* name;
  double ratio_min;
  double ratio_max;
};
constexpr DeadlineClass kDeadlineClasses[] = {
    {"implicit", 1.0, 1.0},
    {"constrained", 0.6, 1.0},
    {"arbitrary", 0.7, 1.8},
};

std::vector<TaskSet> generate_corpus(std::uint64_t salt, std::size_t want) {
  std::vector<TaskSet> out;
  out.reserve(want);
  for (std::uint64_t i = 0; out.size() < want && i < 8 * want; ++i) {
    const DeadlineClass& dc = kDeadlineClasses[i % 3];
    gen::GenRequest req;
    // Mostly small sets (cheap reference evaluation), with periodic large
    // ones so the sweep's event machinery is exercised at serving sizes.
    const int n = 2 + static_cast<int>(i % 13) + (i % 7 == 3 ? 38 : 0);
    req.profile = gen::GenProfile::unconstrained(n);
    req.profile.deadline_ratio_min = dc.ratio_min;
    req.profile.deadline_ratio_max = dc.ratio_max;
    // Spread loads across the schedulability cliff so the corpus mixes
    // accepts, rejects, and per-analyzer disagreements.
    req.target_system_util = 5.0 + 90.0 * static_cast<double>(i % 19) / 18.0;
    req.target_tolerance = 2.0;
    req.seed = gen::derive_seed(salt, i);
    if (auto ts = gen::generate(req)) out.push_back(std::move(*ts));
  }
  return out;
}

void expect_fast_matches(const FastVerdict& fast, const TestReport& ref,
                         const char* what, std::uint64_t index) {
  EXPECT_EQ(fast.verdict, ref.verdict) << what << " taskset#" << index;
  if (ref.first_failing_task.has_value()) {
    EXPECT_EQ(fast.first_failing_task,
              static_cast<std::ptrdiff_t>(*ref.first_failing_task))
        << what << " taskset#" << index;
  } else {
    EXPECT_EQ(fast.first_failing_task, -1) << what << " taskset#" << index;
  }
}

TEST(FastPathParity, KernelsMatchReferenceEvaluatorsAcrossSeeds) {
  const Device dev{100};
  const auto corpus = generate_corpus(0x50A'FA57, 1050);
  ASSERT_GE(corpus.size(), 1050u) << "the parity bar is >= 1k seeds";

  // Option variants: defaults plus every knob the kernels must honor.
  std::vector<analysis::DpOptions> dp_opts(2);
  dp_opts[1].alpha = analysis::DpOptions::Alpha::kOriginalReal;
  dp_opts[1].require_implicit_deadlines = false;
  std::vector<analysis::Gn1Options> gn1_opts(2);
  gn1_opts[1].normalization = analysis::Gn1Options::Normalization::kBclWindowDk;
  gn1_opts[1].rhs = analysis::Gn1Options::Rhs::kTheoremLiteral;
  std::vector<analysis::Gn2Options> gn2_opts(3);
  gn2_opts[1].non_strict_condition2 = true;
  gn2_opts[2].bak2_middle_branch = true;

  AnalysisScratch scratch;
  std::vector<Gn2Choice> choices;
  std::uint64_t compared = 0;
  for (std::uint64_t t = 0; t < corpus.size(); ++t) {
    const TaskSet& ts = corpus[t];
    scratch.build(ts);
    choices.assign(ts.size(), Gn2Choice{});

    for (const auto& opt : dp_opts) {
      expect_fast_matches(analysis::detail::dp_fast(scratch, dev, opt),
                          analysis::dp_test(ts, dev, opt), "dp", t);
      ++compared;
    }
    for (const auto& opt : gn1_opts) {
      expect_fast_matches(analysis::detail::gn1_fast(scratch, dev, opt),
                          analysis::gn1_test(ts, dev, opt), "gn1", t);
      ++compared;
    }
    for (const auto& opt : gn2_opts) {
      const TestReport ref = analysis::gn2_test(ts, dev, opt);
      const FastVerdict fast =
          analysis::detail::gn2_fast(scratch, dev, opt, choices);
      expect_fast_matches(fast, ref, "gn2", t);
      // Full-evaluation mode: every task's witness (chosen λ candidate and
      // satisfied condition) must match the reference's per-task record.
      if (ref.per_task.size() == ts.size()) {
        for (std::size_t k = 0; k < ts.size(); ++k) {
          ASSERT_EQ(choices[k].pass, ref.per_task[k].pass)
              << "gn2 task " << k << " taskset#" << t;
          if (choices[k].pass) {
            EXPECT_EQ(choices[k].lambda, ref.per_task[k].lambda)
                << "gn2 task " << k << " taskset#" << t;
            EXPECT_EQ(choices[k].condition, ref.per_task[k].condition)
                << "gn2 task " << k << " taskset#" << t;
          }
        }
      }
      ++compared;
    }
  }
  EXPECT_GE(compared, 1000u) << "the parity bar is >= 1k randomized checks";
}

TEST(FastPathParity, EngineDecideMatchesRunAcrossSeeds) {
  const Device dev{100};
  const auto corpus = generate_corpus(0xDEC1DE, 120);
  ASSERT_GE(corpus.size(), 120u);

  const AnalysisEngine engine{AnalysisRequest{}};  // run-all, full reports

  for (const TaskSet& ts : corpus) {
    const auto report = engine.run(ts, dev);
    const analysis::Decision decision = engine.decide(ts, dev);
    ASSERT_EQ(decision.verdict, report.verdict);
    ASSERT_EQ(std::string(decision.accepted_by), report.accepted_by());
  }
}

TEST(FastPathParity, KernelsHandleDegenerateInputs) {
  AnalysisScratch scratch;

  // Empty taskset: trivially schedulable, like the reference.
  scratch.build(TaskSet{});
  EXPECT_EQ(analysis::detail::dp_fast(scratch, Device{10}, {}).verdict,
            Verdict::kSchedulable);
  EXPECT_EQ(analysis::detail::gn2_fast(scratch, Device{10}, {}).verdict,
            Verdict::kSchedulable);

  // Infeasible task (A > A(H)): kInconclusive with the offending index.
  const TaskSet too_wide(
      {make_task(1.0, 5, 5, 2), make_task(1.0, 5, 5, 99)});
  scratch.build(too_wide);
  for (int which = 0; which < 3; ++which) {
    const FastVerdict v =
        which == 0   ? analysis::detail::dp_fast(scratch, Device{10}, {})
        : which == 1 ? analysis::detail::gn1_fast(scratch, Device{10}, {})
                     : analysis::detail::gn2_fast(scratch, Device{10}, {});
    EXPECT_EQ(v.verdict, Verdict::kInconclusive);
    EXPECT_EQ(v.first_failing_task, 1);
  }

  // The paper's Table 3 pair through the fast engine: GN2 accepts on the
  // small device exactly as the reference does.
  const TaskSet table3(
      {make_task(2.10, 5, 5, 7, "t1"), make_task(2.00, 7, 7, 7, "t2")});
  const AnalysisEngine fast{analysis::fast_any_request()};
  const analysis::Decision d = fast.decide(table3, Device{10});
  EXPECT_TRUE(d.accepted());
  EXPECT_EQ(d.accepted_by, "gn2");
}

}  // namespace
}  // namespace reconf
