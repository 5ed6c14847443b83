// Reproduction anchor: the accept/reject matrix of the paper's Tables 1-3
// (Section 6) on the A(H)=10 device, under both the double and the exact
// BigRational evaluation paths, plus the worked-example intermediate values
// the paper prints (U_S = 4.94, DP RHS = 4.85, GN1 RHS = 20/7, GN2 RHS =
// 5.26, ...).
//
//                DP      GN1     GN2
//   Table 1     accept  reject  reject
//   Table 2     reject  accept  reject
//   Table 3     reject  reject  accept

#include <gtest/gtest.h>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "analysis/overhead.hpp"
#include "sim/engine.hpp"
#include "task/fixtures.hpp"

namespace reconf::analysis {
namespace {

using fixtures::paper_device_small;
using fixtures::paper_table1;
using fixtures::paper_table2;
using fixtures::paper_table3;

// ---------------------------------------------------------------- Table 1 --
TEST(PaperTable1, DpAccepts) {
  const auto r = dp_test(paper_table1(), paper_device_small());
  EXPECT_TRUE(r.accepted()) << r.note;
}

TEST(PaperTable1, DpAcceptsExactlyAtTheKnifeEdge) {
  // k=2 sits at exact equality U_S = RHS = 69/25; the exact path must agree.
  const auto r = dp_test_exact(paper_table1(), paper_device_small());
  EXPECT_TRUE(r.accepted());
  ASSERT_EQ(r.per_task.size(), 2u);
  EXPECT_NEAR(r.per_task[1].lhs, 2.76, 1e-9);
  EXPECT_NEAR(r.per_task[1].rhs, 2.76, 1e-9);
}

TEST(PaperTable1, Gn1Rejects) {
  const auto r = gn1_test(paper_table1(), paper_device_small());
  EXPECT_FALSE(r.accepted());
  ASSERT_TRUE(r.first_failing_task.has_value());
  EXPECT_EQ(*r.first_failing_task, 0u);  // fails at k=1
}

TEST(PaperTable1, Gn2Rejects) {
  const auto r = gn2_test(paper_table1(), paper_device_small());
  EXPECT_FALSE(r.accepted());
}

TEST(PaperTable1, Gn2PrintedNonStrictConditionWouldAccept) {
  // The knife-edge the paper's Table 1 sits on: with the printed `≤` in
  // condition 2, the taskset is accepted at exact equality — contradicting
  // the paper's own verdict. Documents why strict `<` is the default.
  Gn2Options printed;
  printed.non_strict_condition2 = true;
  const auto r = gn2_test_exact(paper_table1(), paper_device_small(), printed);
  EXPECT_TRUE(r.accepted());
}

TEST(PaperTable1, ExactPathsAgreeWithDoublePaths) {
  EXPECT_EQ(dp_test(paper_table1(), paper_device_small()).accepted(),
            dp_test_exact(paper_table1(), paper_device_small()).accepted());
  EXPECT_EQ(gn1_test(paper_table1(), paper_device_small()).accepted(),
            gn1_test_exact(paper_table1(), paper_device_small()).accepted());
  EXPECT_EQ(gn2_test(paper_table1(), paper_device_small()).accepted(),
            gn2_test_exact(paper_table1(), paper_device_small()).accepted());
}

// ---------------------------------------------------------------- Table 2 --
TEST(PaperTable2, DpRejects) {
  const auto r = dp_test(paper_table2(), paper_device_small());
  EXPECT_FALSE(r.accepted());
}

TEST(PaperTable2, Gn1Accepts) {
  const auto r = gn1_test(paper_table2(), paper_device_small());
  EXPECT_TRUE(r.accepted());
  // k=1: LHS = 5*(1-4.5/8) = 2.1875, RHS = 8*0.4375 = 3.5.
  ASSERT_EQ(r.per_task.size(), 2u);
  EXPECT_NEAR(r.per_task[0].lhs, 2.1875, 1e-9);
  EXPECT_NEAR(r.per_task[0].rhs, 3.5, 1e-9);
}

TEST(PaperTable2, Gn2Rejects) {
  const auto r = gn2_test(paper_table2(), paper_device_small());
  EXPECT_FALSE(r.accepted());
  ASSERT_TRUE(r.first_failing_task.has_value());
  EXPECT_EQ(*r.first_failing_task, 0u);
}

TEST(PaperTable2, ExactPathsAgreeWithDoublePaths) {
  EXPECT_FALSE(dp_test_exact(paper_table2(), paper_device_small()).accepted());
  EXPECT_TRUE(gn1_test_exact(paper_table2(), paper_device_small()).accepted());
  EXPECT_FALSE(
      gn2_test_exact(paper_table2(), paper_device_small()).accepted());
}

// ---------------------------------------------------------------- Table 3 --
TEST(PaperTable3, DpRejectsWithPaperValues) {
  const auto r = dp_test(paper_table3(), paper_device_small());
  EXPECT_FALSE(r.accepted());
  // Paper: U_S(Γ) = 4.94; at k=2 RHS = 4*(5/7) + 2 ≈ 4.857 ("4.85 < 4.94").
  ASSERT_EQ(r.per_task.size(), 2u);
  EXPECT_NEAR(r.per_task[1].lhs, 4.94, 1e-9);
  EXPECT_NEAR(r.per_task[1].rhs, 4.0 * 5.0 / 7.0 + 2.0, 1e-9);
  ASSERT_TRUE(r.first_failing_task.has_value());
  EXPECT_EQ(*r.first_failing_task, 1u);
}

TEST(PaperTable3, Gn1RejectsWithPaperValues) {
  const auto r = gn1_test(paper_table3(), paper_device_small());
  EXPECT_FALSE(r.accepted());
  // Paper, k=2: RHS = (10-7+1)(1-2/7) = 20/7; LHS = 7*min(4.1/5, 5/7) = 5.
  ASSERT_EQ(r.per_task.size(), 2u);
  EXPECT_NEAR(r.per_task[1].rhs, 20.0 / 7.0, 1e-9);
  EXPECT_NEAR(r.per_task[1].lhs, 5.0, 1e-9);
}

TEST(PaperTable3, Gn2AcceptsWithPaperValues) {
  const auto r = gn2_test(paper_table3(), paper_device_small());
  EXPECT_TRUE(r.accepted());
  // Paper (both k): condition 2 with λ = C1/T1 = 0.42:
  //   RHS = (4-7)(1-0.42) + 7 = 5.26, LHS = 7*0.42 + 7*2/7 = 4.94.
  for (const auto& diag : r.per_task) {
    EXPECT_TRUE(diag.pass);
    EXPECT_EQ(diag.condition, 2);
    EXPECT_NEAR(diag.lambda, 0.42, 1e-9);
    EXPECT_NEAR(diag.rhs, 5.26, 1e-9);
    EXPECT_NEAR(diag.lhs, 4.94, 1e-9);
  }
}

TEST(PaperTable3, ExactPathsAgreeWithDoublePaths) {
  EXPECT_FALSE(dp_test_exact(paper_table3(), paper_device_small()).accepted());
  EXPECT_FALSE(
      gn1_test_exact(paper_table3(), paper_device_small()).accepted());
  EXPECT_TRUE(gn2_test_exact(paper_table3(), paper_device_small()).accepted());
}

// ------------------------------------------------------------- composite --
TEST(Composite, AcceptsAllThreePaperTables) {
  // Section 6: "determine that a taskset is unschedulable only if all tests
  // fail" — each table is accepted by exactly one test, so the paper trio
  // accepts all three.
  const AnalysisEngine trio{AnalysisRequest{}};
  for (const TaskSet& ts : {paper_table1(), paper_table2(), paper_table3()}) {
    EXPECT_TRUE(trio.run(ts, paper_device_small()).accepted());
  }
}

TEST(Composite, EveryTableMeetsEveryDeadlineInSimulation) {
  // The accepted sets really are schedulable: synchronous release over the
  // hyperperiod, under both EDF variants.
  for (const TaskSet& ts : {paper_table1(), paper_table2(), paper_table3()}) {
    for (const auto scheduler :
         {sim::SchedulerKind::kEdfNf, sim::SchedulerKind::kEdfFkF}) {
      sim::SimConfig cfg;
      cfg.scheduler = scheduler;
      EXPECT_TRUE(sim::simulate(ts, paper_device_small(), cfg).schedulable)
          << sim::to_string(scheduler);
    }
  }
}

TEST(Composite, ReportsWhichTestAccepted) {
  const AnalysisEngine trio{AnalysisRequest{}};
  EXPECT_EQ(trio.run(paper_table1(), paper_device_small()).accepted_by(),
            "dp");
  EXPECT_EQ(trio.run(paper_table2(), paper_device_small()).accepted_by(),
            "gn1");
  EXPECT_EQ(trio.run(paper_table3(), paper_device_small()).accepted_by(),
            "gn2");
}

TEST(Composite, FkfModeExcludesGn1) {
  // GN1 is only sound for EDF-NF; the EDF-FkF lineup must not use it, so
  // Table 2 (accepted only by GN1) becomes inconclusive.
  AnalysisRequest fkf;
  fkf.scheduler = Scheduler::kEdfFkF;
  const auto r = AnalysisEngine(fkf).run(paper_table2(), paper_device_small());
  EXPECT_FALSE(r.accepted());
  EXPECT_EQ(r.outcomes.size(), 2u);
}

// ------------------------------------------------------ variant behaviour --
TEST(Variants, DpOriginalAlphaIsStrictlyMorePessimistic) {
  DpOptions original;
  original.alpha = DpOptions::Alpha::kOriginalReal;
  // Table 1 is accepted with the integer-area correction but sits exactly on
  // the boundary; the original bound (A_bnd smaller by 1) must reject it.
  EXPECT_FALSE(
      dp_test(paper_table1(), paper_device_small(), original).accepted());
  EXPECT_TRUE(dp_test(paper_table1(), paper_device_small()).accepted());
}

TEST(Variants, Gn1BclWindowNormalizationChangesTable1Verdict) {
  // With β_i normalized by the window D_k (the BCL-faithful reading),
  // Table 1 is accepted — evidence the paper computed with /D_i as printed.
  Gn1Options bcl;
  bcl.normalization = Gn1Options::Normalization::kBclWindowDk;
  EXPECT_TRUE(gn1_test(paper_table1(), paper_device_small(), bcl).accepted());
  EXPECT_FALSE(gn1_test(paper_table1(), paper_device_small()).accepted());
}

TEST(Variants, Gn1TheoremLiteralRhsIsMorePessimistic) {
  Gn1Options literal;
  literal.rhs = Gn1Options::Rhs::kTheoremLiteral;
  // Table 2 stays accepted (wide margin)…
  EXPECT_TRUE(
      gn1_test(paper_table2(), paper_device_small(), literal).accepted());
  // …and any taskset accepted under the literal RHS is accepted under the
  // default (larger) RHS as well, checked here on the three fixtures.
  for (const TaskSet& ts : {paper_table1(), paper_table2(), paper_table3()}) {
    if (gn1_test(ts, paper_device_small(), literal).accepted()) {
      EXPECT_TRUE(gn1_test(ts, paper_device_small()).accepted());
    }
  }
}

// ------------------------------------------------------------ edge cases --
TEST(EdgeCases, EmptyTaskSetIsSchedulable) {
  const TaskSet empty;
  EXPECT_TRUE(dp_test(empty, paper_device_small()).accepted());
  EXPECT_TRUE(gn1_test(empty, paper_device_small()).accepted());
  EXPECT_TRUE(gn2_test(empty, paper_device_small()).accepted());
}

TEST(EdgeCases, OversizedTaskRejectsEverywhere) {
  const TaskSet ts({make_task(1, 5, 5, 12)});
  EXPECT_FALSE(dp_test(ts, paper_device_small()).accepted());
  EXPECT_FALSE(gn1_test(ts, paper_device_small()).accepted());
  EXPECT_FALSE(gn2_test(ts, paper_device_small()).accepted());
  EXPECT_FALSE(dp_test(ts, paper_device_small()).note.empty());
}

TEST(EdgeCases, CExceedingDRejectsEverywhere) {
  const TaskSet ts({make_task(6, 5, 5, 2)});
  EXPECT_FALSE(dp_test(ts, paper_device_small()).accepted());
  EXPECT_FALSE(gn1_test(ts, paper_device_small()).accepted());
  EXPECT_FALSE(gn2_test(ts, paper_device_small()).accepted());
}

TEST(EdgeCases, SingleLightTaskAcceptedByAllTests) {
  const TaskSet ts({make_task(1, 10, 10, 3)});
  EXPECT_TRUE(dp_test(ts, paper_device_small()).accepted());
  EXPECT_TRUE(gn1_test(ts, paper_device_small()).accepted());
  EXPECT_TRUE(gn2_test(ts, paper_device_small()).accepted());
}

TEST(EdgeCases, DpRefusesConstrainedDeadlinesByDefault) {
  const TaskSet ts({make_task(1, 5, 10, 3)});
  const auto strict = dp_test(ts, paper_device_small());
  EXPECT_FALSE(strict.accepted());
  EXPECT_NE(strict.note.find("implicit"), std::string::npos);

  DpOptions relaxed;
  relaxed.require_implicit_deadlines = false;
  EXPECT_TRUE(dp_test(ts, paper_device_small(), relaxed).accepted());
}

TEST(EdgeCases, Gn1HandlesConstrainedDeadlines) {
  // D < T exercises the N_i clamp and the carry-in max(D_k - N_i T_i, 0).
  const TaskSet ts({make_task(1, 4, 10, 2), make_task(2, 9, 9, 3)});
  const auto r = gn1_test(ts, paper_device_small());
  EXPECT_TRUE(r.accepted());
}

TEST(Overhead, InflationMatchesModel) {
  const TaskSet ts = paper_table1();
  OverheadModel model;
  model.cost.per_column = 2;  // 0.02 units per column
  const TaskSet inflated = inflate_for_overhead(ts, model);
  EXPECT_EQ(inflated[0].wcet, 126 + 2 * 9);
  EXPECT_EQ(inflated[1].wcet, 95 + 2 * 6);
}

TEST(Overhead, InflationOnlyReducesAcceptance) {
  OverheadModel model;
  model.cost.per_column = 5;
  for (const TaskSet& ts : {paper_table1(), paper_table2(), paper_table3()}) {
    const TaskSet inflated = inflate_for_overhead(ts, model);
    // If the inflated set passes a test, the original must too (monotonicity
    // of all three bounds in C).
    if (dp_test(inflated, paper_device_small()).accepted()) {
      EXPECT_TRUE(dp_test(ts, paper_device_small()).accepted());
    }
    if (gn1_test(inflated, paper_device_small()).accepted()) {
      EXPECT_TRUE(gn1_test(ts, paper_device_small()).accepted());
    }
    if (gn2_test(inflated, paper_device_small()).accepted()) {
      EXPECT_TRUE(gn2_test(ts, paper_device_small()).accepted());
    }
  }
}

}  // namespace
}  // namespace reconf::analysis
