// Parity suite for the SoA kernels (analysis/detail/kernels.hpp), the one
// floating-point evaluation of Theorems 1–3. Across ≥1k randomized
// generated tasksets — implicit, constrained and arbitrary deadlines, every
// per-test option variant — the kernels' reports must agree with the exact
// evaluators (*_test_exact) on verdict, first_failing_task and every
// task's pass, and for GN2 on the chosen λ candidate and condition; the
// serving-mode kernels (no report) must return the same verdict and first
// failing task as the report mode; GN2's λ-sweep must agree with BAK2's
// re-summing evaluation at serving sizes; the engine's decide() must
// agree with its run() on sets up to n = 64; and the state an admission
// session keeps between attempts must equal what a fresh bind derives.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/detail/kernels.hpp"
#include "analysis/detail/scratch.hpp"
#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "common/rng.hpp"
#include "gen/generator.hpp"
#include "mp/mp_tests.hpp"
#include "svc/session.hpp"
#include "task/fixtures.hpp"
#include "task/task.hpp"

namespace reconf {
namespace {

using analysis::AnalysisEngine;
using analysis::AnalysisRequest;
using analysis::FastVerdict;
using analysis::TestReport;
using analysis::Verdict;
using analysis::detail::AnalysisScratch;

/// The exact evaluators re-sum GN2 per candidate in BigRational arithmetic,
/// tens of milliseconds per set at ten tasks (and far more under the
/// sanitizers); beyond this size they cost too much to run on a 1k corpus.
constexpr std::size_t kExactMaxTasks = 5;

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

/// Tasksets of `sizes[i % sizes.size()]` tasks, cycling through the
/// deadline classes and loads across the schedulability cliff so the corpus
/// mixes accepts, rejects, and per-analyzer disagreements.
std::vector<TaskSet> generate_corpus(std::uint64_t salt, std::size_t want,
                                     const std::vector<int>& sizes) {
  std::vector<TaskSet> out;
  out.reserve(want);
  for (std::uint64_t i = 0; out.size() < want && i < 8 * want; ++i) {
    const DeadlineClass& dc = kDeadlineClasses[i % 3];
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(sizes[i % sizes.size()]);
    req.profile.deadline_ratio_min = dc.ratio_min;
    req.profile.deadline_ratio_max = dc.ratio_max;
    req.target_system_util = 5.0 + 90.0 * static_cast<double>(i % 19) / 18.0;
    req.target_tolerance = 2.0;
    req.seed = derive_seed(salt, i);
    if (auto ts = gen::generate(req)) out.push_back(std::move(*ts));
  }
  return out;
}

/// The kernel's report against the exact evaluator's, and the serving-mode
/// verdict against both.
void expect_matches_exact(const TestReport& kernel, const TestReport& exact,
                          const FastVerdict& fast, const char* what,
                          std::uint64_t index) {
  SCOPED_TRACE(std::string(what) + " taskset#" + std::to_string(index));
  EXPECT_EQ(kernel.test_name, exact.test_name);
  EXPECT_EQ(kernel.verdict, exact.verdict);
  EXPECT_EQ(kernel.first_failing_task, exact.first_failing_task);
  EXPECT_EQ(kernel.note, exact.note);
  EXPECT_EQ(kernel.refused, exact.refused);
  ASSERT_EQ(kernel.per_task.size(), exact.per_task.size());
  for (std::size_t k = 0; k < kernel.per_task.size(); ++k) {
    const auto& kd = kernel.per_task[k];
    const auto& xd = exact.per_task[k];
    EXPECT_EQ(kd.task_index, xd.task_index) << "task " << k;
    ASSERT_EQ(kd.pass, xd.pass) << "task " << k;
    if (kd.pass && xd.condition != 0) {  // GN2: the witness must match
      EXPECT_EQ(kd.lambda, xd.lambda) << "task " << k;
      EXPECT_EQ(kd.condition, xd.condition) << "task " << k;
    }
  }

  EXPECT_EQ(fast.verdict, kernel.verdict);
  EXPECT_EQ(fast.first_failing_task,
            kernel.first_failing_task
                ? static_cast<std::ptrdiff_t>(*kernel.first_failing_task)
                : -1);
}

TEST(FastPathParity, KernelReportsMatchExactEvaluatorsAcrossSeeds) {
  const Device dev{100};
  std::vector<int> sizes;
  for (int n = 2; n <= static_cast<int>(kExactMaxTasks); ++n) sizes.push_back(n);
  const auto corpus = generate_corpus(0x50A'FA57, 1050, sizes);
  ASSERT_GE(corpus.size(), 1050u) << "the parity bar is >= 1k seeds";

  // Option variants: defaults on every set, plus every knob the kernels
  // must honor on every third set.
  std::vector<analysis::DpOptions> dp_opts(2);
  dp_opts[1].alpha = analysis::DpOptions::Alpha::kOriginalReal;
  std::vector<analysis::Gn1Options> gn1_opts(2);
  gn1_opts[1].normalization = analysis::Gn1Options::Normalization::kBclWindowDk;
  gn1_opts[1].rhs = analysis::Gn1Options::Rhs::kTheoremLiteral;
  std::vector<analysis::Gn2Options> gn2_opts(2);
  gn2_opts[1].non_strict_condition2 = true;

  AnalysisScratch scratch;
  std::uint64_t compared = 0;
  for (std::uint64_t t = 0; t < corpus.size(); ++t) {
    const TaskSet& ts = corpus[t];
    ASSERT_LE(ts.size(), kExactMaxTasks);
    scratch.build(ts);

    const std::size_t variants = t % 3 == 0 ? 2 : 1;
    for (const auto& opt : std::span(dp_opts).first(variants)) {
      expect_matches_exact(analysis::dp_test(ts, dev, opt),
                           analysis::dp_test_exact(ts, dev, opt),
                           analysis::detail::dp_fast(scratch, dev, opt), "dp",
                           t);
      ++compared;
    }
    for (const auto& opt : std::span(gn1_opts).first(variants)) {
      expect_matches_exact(analysis::gn1_test(ts, dev, opt),
                           analysis::gn1_test_exact(ts, dev, opt),
                           analysis::detail::gn1_fast(scratch, dev, opt),
                           "gn1", t);
      ++compared;
    }
    for (const auto& opt : std::span(gn2_opts).first(variants)) {
      expect_matches_exact(analysis::gn2_test(ts, dev, opt),
                           analysis::gn2_test_exact(ts, dev, opt),
                           analysis::detail::gn2_fast(scratch, dev, opt),
                           "gn2", t);
      ++compared;
    }
  }
  EXPECT_GE(compared, 1000u) << "the parity bar is >= 1k randomized checks";
}

TEST(FastPathParity, Gn2SweepMatchesBak2ResumAtServingSizes) {
  // With unit areas on m columns and D ≤ T (the middle β branch, where the
  // paper and Baker differ, needs D_i > T_i), Theorem 3 is Baker's BAK2,
  // which mp::bak2_test evaluates by re-summing every β per candidate.
  // That independent O(n³) evaluation checks the λ-sweep's event
  // machinery at the sizes the exact evaluator cannot afford.
  std::uint64_t compared = 0;
  std::uint64_t accepted = 0;
  for (const TaskSet& sized :
       generate_corpus(0xBA2C, 120, {16, 24, 32, 48, 64})) {
    if (!sized.all_constrained_deadline()) continue;
    const TaskSet ts = mp::as_unit_area(sized);
    // Processor counts around the load, so the sweep both accepts and
    // scans every candidate.
    const int m = 1 + static_cast<int>(ts.time_utilization()) +
                  static_cast<int>(compared % 3);
    SCOPED_TRACE("n=" + std::to_string(ts.size()) + " m=" + std::to_string(m));
    const TestReport sweep = analysis::gn2_test(ts, Device{m});
    const TestReport resum = mp::bak2_test(ts, mp::MpPlatform{m});
    EXPECT_EQ(sweep.verdict, resum.verdict);
    EXPECT_EQ(sweep.first_failing_task, resum.first_failing_task);
    ASSERT_EQ(sweep.per_task.size(), resum.per_task.size());
    for (std::size_t k = 0; k < ts.size(); ++k) {
      ASSERT_EQ(sweep.per_task[k].pass, resum.per_task[k].pass) << "task " << k;
      if (!sweep.per_task[k].pass) continue;
      EXPECT_EQ(sweep.per_task[k].lambda, resum.per_task[k].lambda)
          << "task " << k;
      EXPECT_EQ(sweep.per_task[k].condition, resum.per_task[k].condition)
          << "task " << k;
    }
    accepted += sweep.accepted() ? 1 : 0;
    ++compared;
  }
  EXPECT_GE(compared, 60u);
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, compared);
}

TEST(FastPathParity, EngineDecideMatchesRunUpToSixtyFourTasks) {
  const Device dev{100};
  const auto corpus =
      generate_corpus(0xDEC1DE, 150, {2, 5, 9, 16, 24, 32, 48, 64});
  ASSERT_GE(corpus.size(), 150u);

  const AnalysisEngine engine{AnalysisRequest{}};  // run-all, full reports

  for (const TaskSet& ts : corpus) {
    const auto report = engine.run(ts, dev);
    const analysis::Decision decision = engine.decide(ts, dev);
    ASSERT_EQ(decision.verdict, report.verdict) << "n=" << ts.size();
    ASSERT_EQ(std::string(decision.accepted_by), report.accepted_by())
        << "n=" << ts.size();
  }
}

/// Task (C, D, T, A) without a name.
Task row(Ticks c, Ticks d, Ticks t, Area a) {
  Task task;
  task.wcet = c;
  task.deadline = d;
  task.period = t;
  task.area = a;
  return task;
}

/// `order` must equal the task indices stable-sorted by `key`.
void expect_stable_order(const std::vector<std::uint32_t>& order,
                         const std::vector<math::Rational>& key,
                         const std::string& what) {
  std::vector<std::uint32_t> reference(key.size());
  for (std::uint32_t i = 0; i < reference.size(); ++i) reference[i] = i;
  std::stable_sort(reference.begin(), reference.end(),
                   [&key](std::uint32_t a, std::uint32_t b) {
                     return key[a] < key[b];
                   });
  EXPECT_EQ(order, reference) << what;
}

// prepare_gn2 sorts its two exact task orders with the task index as the
// tie-break: the order a stable sort gives, which the λ-sweep's determinism
// rests on. Tied keys: C/T = 1/2 = 2/4 = 3/6, and C/D = 1/4 with D > T
// (order_vc then reads C/D), also tied with a C/T of 1/4.
TEST(FastPathParity, Gn2TaskOrdersBreakTiesByTaskIndex) {
  const std::vector<Task> tied = {
      row(3, 6, 6, 2),  row(1, 4, 2, 1), row(2, 4, 4, 3),  row(2, 8, 4, 1),
      row(1, 2, 2, 4),  row(1, 4, 4, 2), row(3, 12, 5, 1), row(1, 3, 3, 2),
      row(3, 6, 6, 1)};
  Xoshiro256ss rng(0x0D3E'0001);
  std::vector<Task> tasks = tied;
  AnalysisScratch scratch;
  for (int round = 0; round < 200; ++round) {
    if (round > 0) {
      // Shuffles of the tied rows, then random sets over a few small keys.
      tasks = tied;
      for (std::size_t i = tasks.size(); i > 1; --i) {
        std::swap(tasks[i - 1],
                  tasks[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
      }
      if (round % 2 == 0) {
        tasks.clear();
        const auto n = rng.uniform_int(1, 24);
        for (std::int64_t i = 0; i < n; ++i) {
          const Ticks t = 2 * rng.uniform_int(1, 3);
          const Ticks c = rng.uniform_int(1, t);
          tasks.push_back(row(c, t * rng.uniform_int(1, 2), t, 1));
        }
      }
    }
    scratch.build(TaskSet(tasks));
    scratch.prepare_gn2();
    const std::string what = "round " + std::to_string(round);
    expect_stable_order(scratch.order_u, scratch.util_x, what + " order_u");
    expect_stable_order(scratch.order_vc, scratch.vc_x, what + " order_vc");
  }
}

/// `kept`'s GN2 section, caught up to its rows, must equal the section
/// prepare_gn2() sorts from scratch for the same rows: keys, both orders,
/// the pool with its doubles and key counts, and each key's pool position.
/// `kept` is a copy, so the caller's section keeps whatever lag it had.
void expect_same_gn2(AnalysisScratch kept, AnalysisScratch& built,
                     const std::string& what) {
  kept.prepare_gn2();
  built.prepare_gn2();
  ASSERT_EQ(kept.gn2_rows, kept.n) << what;
  ASSERT_EQ(built.gn2_rows, built.n) << what;
  EXPECT_EQ(kept.util_x, built.util_x) << what;
  EXPECT_EQ(kept.vc_x, built.vc_x) << what;
  EXPECT_EQ(kept.order_u, built.order_u) << what;
  EXPECT_EQ(kept.order_vc, built.order_vc) << what;
  EXPECT_EQ(kept.pool, built.pool) << what;
  EXPECT_EQ(kept.pool_d, built.pool_d) << what;
  EXPECT_EQ(kept.pool_refs, built.pool_refs) << what;
  EXPECT_EQ(kept.pos_u, built.pos_u) << what;
  EXPECT_EQ(kept.pos_vc, built.pos_vc) << what;
}

// An admission session binds its rows by push and pop; whatever sequence
// got them there, the mirror must equal build() of the same tasks — the
// SoA rows, the summary and the kept GN2 section (brought up to date on
// some steps, lagging on others, as decide() leaves it).
TEST(FastPathParity, PushAndPopBindWhatBuildBinds) {
  Xoshiro256ss rng(0x0D3E'0002);
  AnalysisScratch pushed;
  AnalysisScratch built;
  std::vector<Task> tasks;
  for (int step = 0; step < 2'000; ++step) {
    if (!tasks.empty() && rng.uniform_int(0, 2) == 0) {
      tasks.pop_back();
      pushed.pop();
    } else {
      // Mostly well-formed rows, some with a non-positive field (TaskSet
      // leaves those out of its summary but for the first row's area).
      const Ticks t = rng.uniform_int(1, 50);
      Task task = row(rng.uniform_int(1, t), rng.uniform_int(1, 2 * t), t,
                      static_cast<Area>(rng.uniform_int(1, 12)));
      if (rng.uniform_int(0, 9) == 0) task.wcet = 0;
      tasks.push_back(task);
      pushed.push(task);
    }
    built.build(TaskSet(tasks));
    ASSERT_EQ(pushed.n, built.n) << "step " << step;
    EXPECT_EQ(pushed.max_area, built.max_area) << "step " << step;
    EXPECT_EQ(pushed.min_area, built.min_area) << "step " << step;
    EXPECT_EQ(pushed.all_implicit, built.all_implicit) << "step " << step;
    EXPECT_EQ(pushed.all_constrained, built.all_constrained)
        << "step " << step;
    EXPECT_EQ(pushed.wcet, built.wcet) << "step " << step;
    EXPECT_EQ(pushed.deadline, built.deadline) << "step " << step;
    EXPECT_EQ(pushed.period, built.period) << "step " << step;
    EXPECT_EQ(pushed.area, built.area) << "step " << step;
    EXPECT_EQ(pushed.util, built.util) << "step " << step;
    const TaskSet ts(tasks);
    EXPECT_EQ(built.max_area, ts.max_area()) << "step " << step;
    EXPECT_EQ(built.min_area, ts.min_area()) << "step " << step;
    EXPECT_EQ(built.all_implicit, ts.all_implicit_deadline()) << "step " << step;
    EXPECT_EQ(built.all_constrained, ts.all_constrained_deadline())
        << "step " << step;
    const std::string what = "step " + std::to_string(step);
    expect_same_gn2(pushed, built, what);
    if (rng.uniform_int(0, 2) == 0) pushed.prepare_gn2();
  }
}

// The runtime's gate: an admission session keeps its rows' GN2 keys between
// attempts and takes a rejected candidate's out again. Whatever sequence
// of arrivals, departures, mode-change transients (the new generation
// gated next to the old one, which then leaves) and shed re-validations (a
// fresh session on the same thread while the first keeps its rows bound)
// got it there, each verdict and accepting analyzer must be decide()'s on
// the full candidate set.
// Two streams: arbitrary deadlines (D > T about half the time, so rows add
// C/D keys to GN2's pool and GN1 refuses) and constrained ones (GN1
// evaluates and accepts a share).
class SessionParity : public ::testing::TestWithParam<bool> {};

TEST_P(SessionParity, AdmissionSessionDecidesLikeDecideOnTheCandidateSet) {
  const bool constrained = GetParam();
  const Device device{16};
  const AnalysisEngine engine(analysis::fast_any_request());
  Xoshiro256ss rng(constrained ? 0x0D3E'0005 : 0x0D3E'0003);
  std::uint64_t names = 0;
  const auto draw = [&] {
    const Ticks t = rng.uniform_int(4, 60);
    const Ticks c = rng.uniform_int(1, t);
    Task task = row(c, rng.uniform_int(c, constrained ? t : 2 * t), t,
                    static_cast<Area>(rng.uniform_int(1, 8)));
    task.name = "t" + std::to_string(names++);
    return task;
  };
  std::uint64_t attempts = 0;
  std::uint64_t by_gn1 = 0;
  std::uint64_t by_gn2 = 0;
  std::uint64_t rejects = 0;
  const auto attempt = [&](svc::AdmissionSession& session,
                           std::vector<Task>& held, const Task& t) {
    std::vector<Task> candidate = held;
    candidate.push_back(t);
    const analysis::Decision want =
        engine.decide(TaskSet(std::move(candidate)), device);
    const svc::AdmissionDecision got = session.try_admit(t);
    ++attempts;
    EXPECT_EQ(got.admitted, want.accepted()) << "attempt " << attempts;
    EXPECT_EQ(got.accepted_by, std::string(want.accepted_by))
        << "attempt " << attempts;
    by_gn1 += got.accepted_by == "gn1" ? 1 : 0;
    by_gn2 += got.accepted_by == "gn2" ? 1 : 0;
    rejects += got.admitted ? 0 : 1;
    if (got.admitted) held.push_back(t);
    return got.admitted;
  };

  svc::AdmissionSession session(device);
  std::vector<Task> admitted;
  for (int step = 0; step < 4'000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 9);
    if (op < 6 || admitted.empty()) {
      attempt(session, admitted, draw());
    } else if (op < 8) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(admitted.size()) - 1));
      ASSERT_TRUE(session.remove(admitted[i]));
      admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op == 8) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(admitted.size()) - 1));
      const Task old = admitted[i];
      Task next = draw();
      next.name = old.name;
      if (attempt(session, admitted, next)) {
        ASSERT_TRUE(session.remove(old));
        admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else {
      svc::AdmissionSession probe(device);
      std::vector<Task> survivors;
      for (const Task& t : admitted) attempt(probe, survivors, t);
    }
    ASSERT_EQ(session.admitted().size(), admitted.size()) << "step " << step;
    for (std::size_t i = 0; i < admitted.size(); ++i) {
      ASSERT_EQ(session.admitted()[i].name, admitted[i].name);
    }
    // The appended TaskSet folds like one built from the same tasks.
    const TaskSet want(admitted);
    EXPECT_EQ(session.admitted().system_utilization(),
              want.system_utilization())
        << "step " << step;
    EXPECT_EQ(session.admitted().max_area(), want.max_area())
        << "step " << step;
  }
  // Each stream must reach its analyzer both ways, or the state the
  // session keeps for it goes untested.
  EXPECT_GT(constrained ? by_gn1 : by_gn2, attempts / 50)
      << attempts << " attempts";
  EXPECT_GT(rejects, attempts / 10) << attempts << " attempts";
}

INSTANTIATE_TEST_SUITE_P(FastPathParity, SessionParity,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ConstrainedDeadlines"
                                             : "ArbitraryDeadlines";
                         });

TEST(FastPathParity, KernelsHandleDegenerateInputs) {
  AnalysisScratch scratch;

  // Empty taskset: trivially schedulable, with the exact path's note.
  scratch.build(TaskSet{});
  EXPECT_EQ(analysis::detail::dp_fast(scratch, Device{10}, {}).verdict,
            Verdict::kSchedulable);
  EXPECT_EQ(analysis::detail::gn2_fast(scratch, Device{10}, {}).verdict,
            Verdict::kSchedulable);
  expect_matches_exact(analysis::gn2_test(TaskSet{}, Device{10}),
                       analysis::gn2_test_exact(TaskSet{}, Device{10}),
                       analysis::detail::gn2_fast(scratch, Device{10}, {}),
                       "empty", 0);

  // Infeasible task (A > A(H)): kInconclusive with the offending index and
  // the feasibility note.
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
  expect_matches_exact(analysis::dp_test(too_wide, Device{10}),
                       analysis::dp_test_exact(too_wide, Device{10}),
                       analysis::detail::dp_fast(scratch, Device{10}, {}),
                       "too-wide", 0);

  // Refusals: DP outside implicit deadlines, GN1 outside constrained ones.
  const TaskSet post_period({make_task(1.0, 9, 5, 2)});
  scratch.build(post_period);
  expect_matches_exact(analysis::dp_test(post_period, Device{10}),
                       analysis::dp_test_exact(post_period, Device{10}),
                       analysis::detail::dp_fast(scratch, Device{10}, {}),
                       "dp-refusal", 0);
  expect_matches_exact(analysis::gn1_test(post_period, Device{10}),
                       analysis::gn1_test_exact(post_period, Device{10}),
                       analysis::detail::gn1_fast(scratch, Device{10}, {}),
                       "gn1-refusal", 0);
  EXPECT_TRUE(analysis::gn1_test(post_period, Device{10}).refused);

  // The paper's Table 3 pair through the fast engine: GN2 accepts on the
  // small device exactly as the exact evaluator does.
  const TaskSet table3(
      {make_task(2.10, 5, 5, 7, "t1"), make_task(2.00, 7, 7, 7, "t2")});
  const AnalysisEngine fast{analysis::fast_any_request()};
  const analysis::Decision d = fast.decide(table3, Device{10});
  EXPECT_TRUE(d.accepted());
  EXPECT_EQ(d.accepted_by, "gn2");
  EXPECT_TRUE(analysis::gn2_test_exact(table3, Device{10}).accepted());
}

}  // namespace
}  // namespace reconf
