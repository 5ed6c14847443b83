// Tests for the Analyzer registry and the AnalysisEngine: registration
// rules, capability filtering, deterministic cheapest-first ordering,
// configuration fingerprints — and the parity suite proving the engine
// bit-identical to the legacy hard-wired DP/GN1/GN2 composite across
// generated tasksets under every option combination.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "analysis/hash.hpp"
#include "analysis/registry.hpp"
#include "common/rng.hpp"
#include "gen/generator.hpp"
#include "mp/mp_tests.hpp"
#include "obs/metrics.hpp"
#include "task/fixtures.hpp"
#include "task/task.hpp"

namespace reconf {
namespace {

using analysis::AnalysisEngine;
using analysis::AnalysisRequest;
using analysis::Analyzer;
using analysis::AnalyzerConfig;
using analysis::AnalyzerRegistry;
using analysis::Capabilities;
using analysis::CostClass;
using analysis::Scheduler;
using analysis::TestReport;
using analysis::Verdict;

TaskSet table3_taskset() {
  return TaskSet(
      {make_task(2.10, 5, 5, 7, "t1"), make_task(2.00, 7, 7, 7, "t2")});
}

/// A trivially-light taskset every test accepts — DP (the cheapest
/// analyzer) accepts it, which is what the early-exit tests need.
TaskSet feather_taskset() {
  return TaskSet({make_task(0.10, 10, 10, 1), make_task(0.10, 10, 10, 1)});
}

/// Minimal analyzer for registry tests.
class StubAnalyzer final : public Analyzer {
 public:
  StubAnalyzer(std::string id, CostClass cost = CostClass::kLinear)
      : id_(std::move(id)), cost_(cost) {}

  std::string_view id() const noexcept override { return id_; }
  std::string_view description() const noexcept override { return "stub"; }
  Capabilities capabilities() const noexcept override {
    Capabilities caps;
    caps.sound_edf_nf = true;
    caps.cost = cost_;
    return caps;
  }
  TestReport run(const TaskSet&, Device,
                 const AnalyzerConfig&) const override {
    TestReport r;
    r.test_name = id_;
    return r;
  }

 private:
  std::string id_;
  CostClass cost_;
};

// ----------------------------------------------------------- registry ----

TEST(AnalyzerRegistry, RejectsDuplicateIds) {
  AnalyzerRegistry registry;
  registry.add(std::make_unique<StubAnalyzer>("x"));
  EXPECT_THROW(registry.add(std::make_unique<StubAnalyzer>("x")),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(AnalyzerRegistry, RejectsEmptyIdAndNull) {
  AnalyzerRegistry registry;
  EXPECT_THROW(registry.add(std::make_unique<StubAnalyzer>("")),
               std::invalid_argument);
  EXPECT_THROW(registry.add(nullptr), std::invalid_argument);
}

TEST(AnalyzerRegistry, FindAndEnumerate) {
  AnalyzerRegistry registry;
  registry.add(std::make_unique<StubAnalyzer>("zeta"));
  registry.add(std::make_unique<StubAnalyzer>("alpha"));
  ASSERT_NE(registry.find("zeta"), nullptr);
  EXPECT_EQ(registry.find("nope"), nullptr);
  // Deterministic: sorted by id, not registration order.
  EXPECT_EQ(registry.ids(), (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(registry.id_list(), "alpha, zeta");
}

TEST(AnalyzerRegistry, InstanceHasAllBuiltins) {
  const auto ids = AnalyzerRegistry::instance().ids();
  const std::vector<std::string> expected = {
      "dp", "gn1", "gn2", "mp-bak1", "mp-bak2", "mp-bcl", "mp-gfb",
      "partition"};
  for (const std::string& id : expected) {
    EXPECT_NE(AnalyzerRegistry::instance().find(id), nullptr) << id;
  }
  // Sorted enumeration (builtins may be joined by user analyzers later, so
  // only require the builtin subset in order).
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(AnalyzerRegistry, BuiltinCapabilityMetadata) {
  const auto& registry = AnalyzerRegistry::instance();
  const auto caps = [&](const char* id) {
    const Analyzer* a = registry.find(id);
    EXPECT_NE(a, nullptr) << id;
    return a->capabilities();
  };
  // The paper's soundness caveat, as metadata.
  EXPECT_TRUE(caps("dp").sound_edf_fkf);
  EXPECT_TRUE(caps("dp").sound_edf_nf);
  EXPECT_FALSE(caps("gn1").sound_edf_fkf);
  EXPECT_TRUE(caps("gn1").sound_edf_nf);
  EXPECT_TRUE(caps("gn2").sound_edf_fkf);
  // Partitioned EDF is its own scheduler: not sound for either global EDF.
  EXPECT_FALSE(caps("partition").sound_edf_nf);
  EXPECT_FALSE(caps("partition").sound_edf_fkf);
  EXPECT_TRUE(caps("partition").sound_partitioned);
  // Cost classes drive cheapest-first ordering.
  EXPECT_EQ(caps("dp").cost, CostClass::kLinear);
  EXPECT_EQ(caps("gn1").cost, CostClass::kQuadratic);
  EXPECT_EQ(caps("gn2").cost, CostClass::kCubic);
}

// ----------------------------------------------------- engine resolve ----

TEST(AnalysisEngine, UnknownIdThrowsActionableError) {
  AnalysisRequest request;
  request.tests = {"dp", "gnX"};
  try {
    const AnalysisEngine engine(std::move(request));
    FAIL() << "expected UnknownAnalyzerError";
  } catch (const analysis::UnknownAnalyzerError& e) {
    EXPECT_EQ(e.id(), "gnX");
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown analyzer 'gnX'"), std::string::npos) << what;
    EXPECT_NE(what.find("registered analyzers:"), std::string::npos) << what;
    EXPECT_NE(what.find("dp"), std::string::npos) << what;
  }
}

TEST(AnalysisEngine, CheapestFirstDeterministicOrdering) {
  AnalysisRequest request;
  request.tests = {"gn2", "gn1", "dp"};  // listed most expensive first
  const AnalysisEngine engine(std::move(request));
  EXPECT_EQ(engine.execution_order(),
            (std::vector<std::string>{"dp", "gn1", "gn2"}));

  // Quadratic tie broken by id — deterministic for any listing order.
  AnalysisRequest ties;
  ties.tests = {"partition", "mp-bcl", "gn1", "mp-bak1"};
  const AnalysisEngine tie_engine(std::move(ties));
  EXPECT_EQ(tie_engine.execution_order(),
            (std::vector<std::string>{"gn1", "mp-bak1", "mp-bcl",
                                      "partition"}));
}

TEST(AnalysisEngine, DuplicateIdsRunOnce) {
  AnalysisRequest request;
  request.tests = {"gn2", "dp", "gn2", "dp"};
  const AnalysisEngine engine(std::move(request));
  EXPECT_EQ(engine.execution_order(),
            (std::vector<std::string>{"dp", "gn2"}));
}

TEST(AnalysisEngine, CapabilityFilterDerivesForFkf) {
  AnalysisRequest request;  // default trio
  request.scheduler = Scheduler::kEdfFkF;
  const AnalysisEngine engine(std::move(request));
  // GN1 is not FkF-sound: dropped by metadata, not by a hand-wired flag.
  EXPECT_EQ(engine.execution_order(),
            (std::vector<std::string>{"dp", "gn2"}));

  AnalysisRequest part;
  part.tests = {"dp", "gn1", "gn2", "partition"};
  part.scheduler = Scheduler::kPartitionedEdf;
  const AnalysisEngine part_engine(std::move(part));
  EXPECT_EQ(part_engine.execution_order(),
            (std::vector<std::string>{"partition"}));
}

TEST(AnalysisEngine, EmptySelectionAnswersInconclusive) {
  AnalysisRequest request;
  request.tests.clear();
  const AnalysisEngine engine(std::move(request));
  EXPECT_TRUE(engine.empty());
  const auto report = engine.run(table3_taskset(), Device{10});
  EXPECT_EQ(report.verdict, Verdict::kInconclusive);
  EXPECT_TRUE(report.outcomes.empty());
  EXPECT_TRUE(report.accepted_by().empty());
}

// --------------------------------------------------------- engine run ----

TEST(AnalysisEngine, EarlyExitSkipsTailWithoutChangingTheVerdict) {
  AnalysisRequest eager;
  eager.early_exit = true;
  const AnalysisEngine eager_engine(eager);
  const AnalysisEngine full_engine(AnalysisRequest{});

  const TaskSet ts = feather_taskset();
  const auto fast = eager_engine.run(ts, Device{100});
  const auto slow = full_engine.run(ts, Device{100});

  ASSERT_TRUE(fast.accepted());
  EXPECT_EQ(fast.accepted_by(), "dp");  // cheapest analyzer decides
  ASSERT_EQ(fast.outcomes.size(), 3u);
  EXPECT_TRUE(fast.outcomes[0].ran);
  EXPECT_FALSE(fast.outcomes[1].ran) << "gn1 must be skipped after accept";
  EXPECT_FALSE(fast.outcomes[2].ran) << "gn2 must be skipped after accept";

  EXPECT_EQ(fast.verdict, slow.verdict);
  EXPECT_EQ(fast.accepted_by(), slow.accepted_by());
}

TEST(AnalysisEngine, ReportLookupHelpers) {
  const AnalysisEngine engine(AnalysisRequest{});
  const auto report = engine.run(table3_taskset(), Device{10});
  ASSERT_NE(report.outcome("gn2"), nullptr);
  ASSERT_NE(report.report_for("gn2"), nullptr);
  EXPECT_EQ(report.report_for("gn2")->test_name, "GN2");
  EXPECT_EQ(report.outcome("partition"), nullptr);
  EXPECT_EQ(report.report_for("partition"), nullptr);
}

TEST(AnalysisEngine, VerdictCountersAccumulateAcrossRuns) {
  // The obs verdict counters are the engine's only ledger.
  const auto count = [](const std::string& analyzer, const char* verdict) {
    return obs::MetricsRegistry::instance()
        .counter("reconf_engine_verdicts_total{analyzer=\"" + analyzer +
                 "\",verdict=\"" + verdict + "\"}")
        .value();
  };
  const auto verdicts = [&](const std::string& analyzer) {
    std::uint64_t total = 0;
    for (const char* v : {"accept", "reject", "refuse", "inconclusive"}) {
      total += count(analyzer, v);
    }
    return total;
  };
  const std::uint64_t dp_accepts = count("dp", "accept");
  const std::uint64_t dp = verdicts("dp");
  const std::uint64_t gn1 = verdicts("gn1");
  const std::uint64_t gn2 = verdicts("gn2");

  AnalysisRequest request;
  request.early_exit = true;
  const AnalysisEngine engine(std::move(request));
  ASSERT_EQ(engine.execution_order().front(), "dp");
  const TaskSet ts = feather_taskset();
  for (int i = 0; i < 5; ++i) {
    (void)engine.run(ts, Device{100});
  }
  EXPECT_EQ(count("dp", "accept") - dp_accepts, 5u);
  EXPECT_EQ(verdicts("dp") - dp, 5u);
  // Early exit: the tail never ran.
  EXPECT_EQ(verdicts("gn1"), gn1);
  EXPECT_EQ(verdicts("gn2"), gn2);
}

TEST(AnalysisEngine, RunTimesEveryAnalyzerItRanAndDecideNeverTimes) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto latency_count = [](const std::string& analyzer) {
    return obs::MetricsRegistry::instance()
        .histogram("reconf_engine_latency_ns{analyzer=\"" + analyzer + "\"}")
        .count();
  };
  const AnalysisEngine reference(AnalysisRequest{});
  const AnalysisEngine serving(analysis::fast_any_request());
  const std::vector<std::string> ids = reference.execution_order();
  ASSERT_EQ(ids, serving.execution_order());

  // Table 3 on A(H) = 10: only gn2 accepts, so decide() evaluates all three
  // kernels. The feather set is accepted by dp, the first of them.
  for (const TaskSet& ts : {table3_taskset(), feather_taskset()}) {
    std::vector<std::uint64_t> before;
    for (const std::string& id : ids) before.push_back(latency_count(id));
    const auto report = reference.run(ts, Device{10});
    ASSERT_EQ(report.outcomes.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const analysis::AnalyzerOutcome& o = report.outcomes[i];
      ASSERT_TRUE(o.ran) << o.id;  // the default request runs every test
      EXPECT_GT(o.seconds, 0.0) << o.id;
      EXPECT_EQ(latency_count(ids[i]), before[i] + 1) << ids[i];
    }

    for (std::size_t i = 0; i < ids.size(); ++i) {
      before[i] = latency_count(ids[i]);
    }
    for (int call = 0; call < 1000; ++call) {
      const analysis::Decision d = serving.decide(ts, Device{10});
      ASSERT_EQ(d.verdict, report.verdict);
      ASSERT_EQ(std::string(d.accepted_by), report.accepted_by());
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(latency_count(ids[i]), before[i])
          << "decide() recorded a latency for " << ids[i];
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(AnalysisEngine, MpAnalyzersGuardUnitArea) {
  AnalysisRequest request;
  request.tests = {"mp-gfb", "mp-bak2", "mp-bcl", "mp-bak1"};
  const AnalysisEngine engine(std::move(request));

  // Non-unit areas: refused with a note, never an unsound acceptance.
  const auto refused = engine.run(table3_taskset(), Device{10});
  EXPECT_FALSE(refused.accepted());
  for (const auto& o : refused.outcomes) {
    ASSERT_TRUE(o.ran);
    EXPECT_EQ(o.report.verdict, Verdict::kInconclusive);
    EXPECT_NE(o.report.note.find("unit-area"), std::string::npos);
  }

  // Unit-area tasks on m columns == the mp test on m processors.
  const TaskSet unit({make_task(1.00, 5, 5, 1), make_task(2.00, 10, 10, 1),
                      make_task(1.50, 8, 8, 1)});
  const auto report = engine.run(unit, Device{3});
  const auto* gfb = report.report_for("mp-gfb");
  ASSERT_NE(gfb, nullptr);
  const auto direct = mp::gfb_test(unit, mp::MpPlatform{3});
  EXPECT_EQ(gfb->verdict, direct.verdict);
  EXPECT_EQ(gfb->test_name, direct.test_name);
}

// -------------------------------------------------------- fingerprints ----

TEST(EngineFingerprint, CoversAnalyzerSetAndOptions) {
  const auto fp = [](AnalysisRequest r) {
    return AnalysisEngine(std::move(r)).fingerprint();
  };

  AnalysisRequest trio;                     // dp,gn1,gn2
  AnalysisRequest dp_only;
  dp_only.tests = {"dp"};
  EXPECT_NE(fp(trio), fp(dp_only))
      << "a {dp}-only verdict must never be served to a trio caller";

  // Selection is a set: listing order does not matter.
  AnalysisRequest shuffled;
  shuffled.tests = {"gn2", "dp", "gn1"};
  EXPECT_EQ(fp(trio), fp(shuffled));

  // Per-analyzer options are covered...
  AnalysisRequest tweaked = trio;
  tweaked.config.gn2.non_strict_condition2 = true;
  EXPECT_NE(fp(trio), fp(tweaked));

  // ...but only for selected analyzers: a dp knob cannot churn a gn2-only
  // fingerprint.
  AnalysisRequest gn2_only;
  gn2_only.tests = {"gn2"};
  AnalysisRequest gn2_only_dp_knob = gn2_only;
  gn2_only_dp_knob.config.dp.alpha = analysis::DpOptions::Alpha::kOriginalReal;
  EXPECT_EQ(fp(gn2_only), fp(gn2_only_dp_knob));

  // Early exit never changes the fingerprint (verdicts identical).
  AnalysisRequest eager = trio;
  eager.early_exit = true;
  EXPECT_EQ(fp(trio), fp(eager));
}

TEST(EngineFingerprint, SchedulerFilterFoldedViaSelection) {
  const auto fp = [](AnalysisRequest r) {
    return AnalysisEngine(std::move(r)).fingerprint();
  };
  AnalysisRequest nf;  // trio, no filter
  AnalysisRequest fkf = nf;
  fkf.scheduler = Scheduler::kEdfFkF;
  EXPECT_NE(fp(nf), fp(fkf)) << "GN1 dropped => different effective lineup";

  // Equivalent post-filter lineups share a fingerprint (and may safely
  // share cache lines — the verdicts are identical).
  AnalysisRequest dp_gn2;
  dp_gn2.tests = {"dp", "gn2"};
  EXPECT_EQ(fp(fkf), fp(dp_gn2));
}

// ------------------------------------------------------- parity suite ----

/// The pre-engine composite configuration: DP/GN1/GN2 toggled by use_*
/// flags, plus each test's options.
struct CompositeOptions {
  bool use_dp = true;
  bool use_gn1 = true;
  bool use_gn2 = true;
  analysis::DpOptions dp;
  analysis::Gn1Options gn1;
  analysis::Gn2Options gn2;
};

/// The pre-engine composite result: union verdict plus the reports of the
/// tests that ran.
struct CompositeReport {
  Verdict verdict = Verdict::kInconclusive;
  std::vector<TestReport> sub_reports;

  /// The first accepting test's name ("DP"/"GN1"/"GN2"), or empty.
  [[nodiscard]] std::string accepted_by() const {
    for (const TestReport& r : sub_reports) {
      if (r.accepted()) return r.test_name;
    }
    return {};
  }
};

/// The engine request equivalent to a legacy configuration: for_fkf is the
/// EDF-FkF capability filter (which drops GN1), every enabled test runs.
AnalysisRequest request_for(const CompositeOptions& options, bool for_fkf) {
  AnalysisRequest request;
  request.tests.clear();
  if (options.use_dp) request.tests.emplace_back("dp");
  if (options.use_gn1) request.tests.emplace_back("gn1");
  if (options.use_gn2) request.tests.emplace_back("gn2");
  if (for_fkf) request.scheduler = Scheduler::kEdfFkF;
  request.config.dp = options.dp;
  request.config.gn1 = options.gn1;
  request.config.gn2 = options.gn2;
  return request;
}

/// The pre-engine composite_test, reimplemented verbatim — the reference
/// the engine must match bit-for-bit.
CompositeReport legacy_composite(const TaskSet& ts, Device device,
                                 const CompositeOptions& options,
                                 bool for_fkf) {
  CompositeReport out;
  if (options.use_dp) {
    out.sub_reports.push_back(analysis::dp_test(ts, device, options.dp));
  }
  if (options.use_gn1 && !for_fkf) {
    out.sub_reports.push_back(analysis::gn1_test(ts, device, options.gn1));
  }
  if (options.use_gn2) {
    out.sub_reports.push_back(analysis::gn2_test(ts, device, options.gn2));
  }
  for (const TestReport& r : out.sub_reports) {
    if (r.accepted()) {
      out.verdict = Verdict::kSchedulable;
      break;
    }
  }
  return out;
}

/// Bit-identity of two TestReports, NaN-aware for the diagnostics doubles.
void expect_reports_identical(const TestReport& a, const TestReport& b) {
  EXPECT_EQ(a.test_name, b.test_name);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.first_failing_task, b.first_failing_task);
  EXPECT_EQ(a.note, b.note);
  ASSERT_EQ(a.per_task.size(), b.per_task.size());
  const auto same_double = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || x == y;
  };
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    EXPECT_EQ(a.per_task[i].task_index, b.per_task[i].task_index);
    EXPECT_EQ(a.per_task[i].pass, b.per_task[i].pass);
    EXPECT_TRUE(same_double(a.per_task[i].lhs, b.per_task[i].lhs));
    EXPECT_TRUE(same_double(a.per_task[i].rhs, b.per_task[i].rhs));
    EXPECT_TRUE(same_double(a.per_task[i].lambda, b.per_task[i].lambda));
    EXPECT_EQ(a.per_task[i].condition, b.per_task[i].condition);
  }
}

/// ≥1k generated tasksets (mixed sizes and loads, implicit and constrained
/// deadlines) × every use-flag combination × for_fkf × option variants:
/// engine verdicts and the legacy composite must agree bit-for-bit, and
/// early-exit must never change a verdict.
TEST(EngineParity, BitIdenticalToLegacyCompositeAcrossGeneratedTasksets) {
  const Device dev{100};

  std::vector<TaskSet> tasksets;
  tasksets.reserve(150);
  for (std::uint64_t i = 0; tasksets.size() < 150 && i < 600; ++i) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(2 + static_cast<int>(i % 9));
    req.target_system_util = 5.0 + 90.0 * static_cast<double>(i % 17) / 16.0;
    req.seed = derive_seed(0x9A617E57, i);
    auto ts = gen::generate(req);
    if (!ts) continue;
    tasksets.push_back(*ts);
    // Every third set also joins with constrained deadlines (D < T) to
    // exercise DP's refusal path and the D-dependent terms of GN1/GN2.
    if (i % 3 == 0) {
      std::vector<Task> tightened;
      for (const Task& t : *ts) {
        Task copy = t;
        copy.deadline = std::max<Ticks>(t.wcet, (t.deadline * 4) / 5);
        tightened.push_back(copy);
      }
      tasksets.emplace_back(std::move(tightened));
    }
  }
  ASSERT_GE(tasksets.size(), 150u);

  // All 8 use-flag combinations under default knobs, plus the non-default
  // per-test knob variants with the full trio enabled.
  std::vector<CompositeOptions> configs;
  for (int mask = 0; mask < 8; ++mask) {
    CompositeOptions o;
    o.use_dp = (mask & 1) != 0;
    o.use_gn1 = (mask & 2) != 0;
    o.use_gn2 = (mask & 4) != 0;
    configs.push_back(o);
  }
  {
    CompositeOptions o;
    o.dp.alpha = analysis::DpOptions::Alpha::kOriginalReal;
    configs.push_back(o);
    CompositeOptions g1;
    g1.gn1.normalization = analysis::Gn1Options::Normalization::kBclWindowDk;
    g1.gn1.rhs = analysis::Gn1Options::Rhs::kTheoremLiteral;
    configs.push_back(g1);
    CompositeOptions g2;
    g2.gn2.non_strict_condition2 = true;
    configs.push_back(g2);
  }

  std::uint64_t compared = 0;
  for (const CompositeOptions& options : configs) {
    for (const bool for_fkf : {false, true}) {
      const auto request = request_for(options, for_fkf);
      const AnalysisEngine engine(request);
      AnalysisRequest eager = request;
      eager.early_exit = true;
      const AnalysisEngine eager_engine(std::move(eager));

      for (const TaskSet& ts : tasksets) {
        const CompositeReport expected =
            legacy_composite(ts, dev, options, for_fkf);

        // Engine path.
        const auto report = engine.run(ts, dev);
        ASSERT_EQ(report.verdict, expected.verdict);
        std::size_t ran = 0;
        for (const auto& o : report.outcomes) {
          ASSERT_TRUE(o.ran);  // no early exit configured
          ASSERT_LT(ran, expected.sub_reports.size());
          expect_reports_identical(o.report, expected.sub_reports[ran]);
          ++ran;
        }
        ASSERT_EQ(ran, expected.sub_reports.size());

        // Early exit: same verdict and accepting analyzer, by construction.
        const auto fast = eager_engine.run(ts, dev);
        ASSERT_EQ(fast.verdict, expected.verdict);
        ASSERT_EQ(fast.accepted_by(), report.accepted_by());

        ++compared;
      }
    }
  }
  // 22 configurations × ≥150 tasksets ≥ 3300 — comfortably past the 1k bar.
  EXPECT_GE(compared, 1000u);
}

TEST(EngineParity, PaperTablesAcceptedByMatchesLegacyNames) {
  // The legacy composite names the accepting test by test_name ("DP"/
  // "GN1"/"GN2") while the engine reports registry ids — both must point at
  // the same analyzer for the paper's Table 3.
  const TaskSet ts = table3_taskset();
  const Device dev{10};
  const auto legacy = legacy_composite(ts, dev, {}, /*for_fkf=*/false);
  const AnalysisEngine engine{AnalysisRequest{}};
  const auto report = engine.run(ts, dev);
  EXPECT_EQ(legacy.accepted_by(), "GN2");
  EXPECT_EQ(report.accepted_by(), "gn2");
}

}  // namespace
}  // namespace reconf
