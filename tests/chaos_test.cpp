// ------------------------------------------------------------ chaos --
// Fault-injection & graceful degradation: the fault-plan codec and
// injector, the runtime's recovery policies, the committed chaos corpus
// (bit-stable replay), and a scenario × fault-plan soak that must come out
// invariant-clean under every recovery policy.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "gen/rng.hpp"
#include "rt/prefetch.hpp"
#include "rt/recovery.hpp"
#include "rt/runtime.hpp"
#include "rt/scenario.hpp"

#ifndef RECONF_CORPUS_DIR
#error "RECONF_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace reconf {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;

// ------------------------------------------------------- plan codec ----

FaultPlan storm_plan() {
  FaultPlan plan;
  plan.name = "storm";
  plan.events.push_back({100, FaultKind::kWcetOverrun, "t1", 50, 1, 0, 2});
  plan.events.push_back({200, FaultKind::kPortFail, "", 0, 2, 0, 2});
  plan.events.push_back({300, FaultKind::kPortSlow, "", 0, 1, 800, 3});
  plan.events.push_back({400, FaultKind::kFabric, "t2", 0, 1, 0, 2});
  plan.events.push_back({500, FaultKind::kFabric, "", 0, 1, 0, 2});
  return plan;
}

TEST(FaultPlanCodec, RoundTripsBitExactly) {
  const FaultPlan plan = storm_plan();
  const std::string text = fault::format_fault_plan(plan);
  const FaultPlan back = fault::parse_fault_plan(text);
  EXPECT_EQ(fault::format_fault_plan(back), text);
  ASSERT_EQ(back.events.size(), plan.events.size());
  EXPECT_EQ(back.name, "storm");
  EXPECT_EQ(back.events[0].kind, FaultKind::kWcetOverrun);
  EXPECT_EQ(back.events[0].extra, 50);
  EXPECT_EQ(back.events[2].until, 800);
  EXPECT_EQ(back.events[2].factor, 3);
}

TEST(FaultPlanCodec, RejectsMalformedPlans) {
  // Missing header line.
  EXPECT_THROW(
      fault::parse_fault_plan(R"({"at":1,"fault":"wcet","name":"a","extra":1})"),
      fault::FaultPlanError);
  const std::string header = "{\"fault_plan\":\"x\"}\n";
  // Decreasing `at`.
  EXPECT_THROW(fault::parse_fault_plan(
                   header + R"({"at":9,"fault":"fabric"})" + "\n" +
                   R"({"at":3,"fault":"fabric"})"),
               fault::FaultPlanError);
  // Overrun without a target task or with a non-positive budget.
  EXPECT_THROW(
      fault::parse_fault_plan(header + R"({"at":1,"fault":"wcet","extra":5})"),
      fault::FaultPlanError);
  EXPECT_THROW(fault::parse_fault_plan(
                   header + R"({"at":1,"fault":"wcet","name":"a","extra":0})"),
               fault::FaultPlanError);
  // Slow window that never ends after `at`, and an unknown key.
  EXPECT_THROW(fault::parse_fault_plan(
                   header + R"({"at":5,"fault":"port-slow","until":5})"),
               fault::FaultPlanError);
  EXPECT_THROW(fault::parse_fault_plan(
                   header + R"({"at":1,"fault":"fabric","naem":"a"})"),
               fault::FaultPlanError);
}

TEST(FaultPlanCodec, GeneratorIsDeterministic) {
  fault::FaultPlanGenOptions options;
  options.horizon = 10'000;
  options.names = {"a", "b", "c"};
  options.faults = 12;
  options.seed = 99;
  const FaultPlan one = fault::generate_fault_plan(options);
  const FaultPlan two = fault::generate_fault_plan(options);
  EXPECT_EQ(fault::format_fault_plan(one), fault::format_fault_plan(two));
  EXPECT_EQ(one.events.size(), 12u);
  EXPECT_TRUE(std::is_sorted(
      one.events.begin(), one.events.end(),
      [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; }));
}

// ---------------------------------------------------------- injector ----

TEST(FaultInjector, ConsumesEachEventOnce) {
  const FaultPlan plan = storm_plan();
  fault::FaultInjector inj(plan);
  // Releases before the event's `at` see no overrun; the first at/after
  // consumes it, later releases run clean again.
  EXPECT_EQ(inj.wcet_overrun("t1", 50), 0);
  EXPECT_EQ(inj.wcet_overrun("t1", 150), 50);
  EXPECT_EQ(inj.wcet_overrun("t1", 250), 0);
  EXPECT_EQ(inj.wcet_overrun("t9", 999), 0);  // wrong task never matches
  // count=2 port failures, then the port heals.
  EXPECT_FALSE(inj.load_fails(150));
  EXPECT_TRUE(inj.load_fails(210));
  EXPECT_TRUE(inj.load_fails(220));
  EXPECT_FALSE(inj.load_fails(230));
  // Slow window [300, 800): factor 3 inside, 1 outside.
  EXPECT_EQ(inj.load_factor(299), 1);
  EXPECT_EQ(inj.load_factor(300), 3);
  EXPECT_EQ(inj.load_factor(799), 3);
  EXPECT_EQ(inj.load_factor(800), 1);
  // Fabric events drain in order, once.
  EXPECT_EQ(inj.next_fabric_at(0), 400);
  EXPECT_EQ(inj.take_fabric_faults(399).size(), 0u);
  EXPECT_EQ(inj.take_fabric_faults(450).size(), 1u);
  EXPECT_EQ(inj.next_fabric_at(450), 500);
  EXPECT_EQ(inj.take_fabric_faults(10'000).size(), 1u);
  EXPECT_EQ(inj.next_fabric_at(450), kNoTick);

  const fault::InjectedCounts& counts = inj.injected();
  EXPECT_EQ(counts.wcet_overruns, 1u);
  EXPECT_EQ(counts.port_failures, 2u);
  EXPECT_EQ(counts.port_slow_events, 1u);
  EXPECT_EQ(counts.fabric_faults, 2u);
}

// ---------------------------------------------------------- shrinker ----

TEST(FaultPlanShrink, ReducesToTheOneGuiltyEvent) {
  fault::FaultPlanGenOptions options;
  options.horizon = 5'000;
  options.names = {"a", "b"};
  options.faults = 16;
  options.seed = 4;
  FaultPlan plan = fault::generate_fault_plan(options);
  plan.events.push_back({4'900, FaultKind::kWcetOverrun, "a", 777, 1, 0, 2});

  // "Failure" = the plan still schedules an overrun of at least 300 for a.
  const auto still_fails = [](const FaultPlan& candidate) {
    for (const FaultEvent& e : candidate.events) {
      if (e.kind == FaultKind::kWcetOverrun && e.name == "a" &&
          e.extra >= 300) {
        return true;
      }
    }
    return false;
  };
  const FaultPlan shrunk = fault::shrink_fault_plan(plan, still_fails);
  ASSERT_EQ(shrunk.events.size(), 1u);
  EXPECT_EQ(shrunk.events[0].kind, FaultKind::kWcetOverrun);
  EXPECT_EQ(shrunk.events[0].name, "a");
  // Field bisection drives `extra` to the smallest still-failing value.
  EXPECT_EQ(shrunk.events[0].extra, 300);
}

TEST(FaultPlanShrink, ReturnsInputWhenItDoesNotFail) {
  const FaultPlan plan = storm_plan();
  const FaultPlan same =
      fault::shrink_fault_plan(plan, [](const FaultPlan&) { return false; });
  EXPECT_EQ(fault::format_fault_plan(same), fault::format_fault_plan(plan));
}

// ------------------------------------------------- recovery semantics ----

/// Three tasks on a width-100 device; "lo" is the designated shed victim
/// (value 1). Zero reconfiguration cost so post-shed protection arms.
rt::Scenario overload_scenario() {
  const std::string text =
      "{\"scenario\":\"shed-overload\",\"device\":100,\"horizon\":6000}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"hi\",\"c\":40,\"d\":100,"
      "\"t\":100,\"a\":60,\"value\":5}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"lo\",\"c\":40,\"d\":100,"
      "\"t\":100,\"a\":40}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"mid\",\"c\":30,\"d\":120,"
      "\"t\":120,\"a\":50,\"value\":3}\n";
  return rt::parse_scenario(text);
}

FaultPlan overrun_plan() {
  FaultPlan plan;
  plan.name = "hi-overruns";
  plan.events.push_back({200, FaultKind::kWcetOverrun, "hi", 1'500, 1, 0, 2});
  plan.events.push_back({500, FaultKind::kWcetOverrun, "hi", 1'500, 1, 0, 2});
  return plan;
}

rt::RuntimeResult run_with(const rt::Scenario& scenario, const FaultPlan& plan,
                           rt::OverrunAction action,
                           rt::PrefetchKind prefetch = rt::PrefetchKind::kNone) {
  rt::RuntimeConfig config;
  config.prefetch = prefetch;
  config.faults = &plan;
  config.recovery.overrun = action;
  config.record_trace = false;
  return rt::run_scenario(scenario, config);
}

TEST(Recovery, AbortPreservesAdmittedDeadlines) {
  const rt::Scenario scenario = overload_scenario();
  const FaultPlan plan = overrun_plan();
  for (const rt::OverrunAction action :
       {rt::OverrunAction::kAbort, rt::OverrunAction::kSkipNext}) {
    const rt::RuntimeResult result = run_with(scenario, plan, action);
    EXPECT_TRUE(result.invariant_violations.empty());
    // Budget enforcement keeps the WCET assumption, so the admitted set
    // stays guaranteed: the overruns fire but nobody misses.
    EXPECT_EQ(result.faults.wcet_overruns, 2u);
    EXPECT_EQ(result.deadline_misses, 0u) << to_string(action);
    EXPECT_EQ(result.faults.sheds, 0u);
  }
}

TEST(Recovery, SkipNextSuppressesOneRelease) {
  const rt::Scenario scenario = overload_scenario();
  const FaultPlan plan = overrun_plan();
  const rt::RuntimeResult abort_run =
      run_with(scenario, plan, rt::OverrunAction::kAbort);
  const rt::RuntimeResult skip_run =
      run_with(scenario, plan, rt::OverrunAction::kSkipNext);
  EXPECT_EQ(skip_run.faults.overrun_skips, 2u);
  // The overrun payback: one release fewer per skipped period.
  EXPECT_EQ(skip_run.releases + skip_run.faults.overrun_skips,
            abort_run.releases);
}

TEST(Recovery, DegradeShedsLowestValueAndProtectsSurvivors) {
  const rt::Scenario scenario = overload_scenario();
  const FaultPlan plan = overrun_plan();
  const rt::RuntimeResult result =
      run_with(scenario, plan, rt::OverrunAction::kDegrade);
  EXPECT_TRUE(result.invariant_violations.empty());
  EXPECT_EQ(result.faults.overrun_degrades, 2u);
  // The degraded long job overloads the fabric, misses accumulate, and
  // graceful degradation sheds exactly the value-1 task.
  EXPECT_GE(result.deadline_misses, 2u);
  ASSERT_EQ(result.faults.sheds, 1u);
  ASSERT_EQ(result.sheds.size(), 1u);
  EXPECT_EQ(result.sheds[0].name, "lo");
  EXPECT_FALSE(result.sheds[0].revalidation_reject);
  // Survivors were re-validated through a fresh AdmissionSession and the
  // InvariantChecker held them to it: no post-shed misses.
  EXPECT_EQ(result.faults.post_shed_misses, 0u);
  // The shed task releases nothing after the shed: its account stops.
  const auto lo = std::find_if(
      result.tasks.begin(), result.tasks.end(),
      [](const rt::TaskAccount& t) { return t.name == "lo"; });
  ASSERT_NE(lo, result.tasks.end());
  EXPECT_LT(lo->released, result.horizon / 100u);
}

TEST(Recovery, PortRetryWithBoundedBackoff) {
  rt::RecoveryPolicy policy;
  EXPECT_EQ(policy.backoff_after(0), 0);
  EXPECT_EQ(policy.backoff_after(1), 8);
  EXPECT_EQ(policy.backoff_after(2), 16);
  EXPECT_EQ(policy.backoff_after(4), 64);
  EXPECT_EQ(policy.backoff_after(5), 128);
  EXPECT_EQ(policy.backoff_after(50), 128);  // bounded, never overflows
}

TEST(Recovery, PortFailuresRetryThenRecover) {
  // Reconf-heavy generated scenario with a reconfiguration cost, port
  // failures injected at every load for a while: the runtime must retry
  // with backoff and still finish invariant-clean.
  rt::ScenarioGenOptions sgen;
  sgen.family = rt::ScenarioFamily::kReconfHeavy;
  sgen.arrivals = 5;
  sgen.seed = 21;
  rt::Scenario scenario = rt::generate_scenario(sgen);
  FaultPlan plan;
  plan.name = "port-storm";
  plan.events.push_back(
      {scenario.horizon / 4, FaultKind::kPortFail, "", 0, 3, 0, 2});
  plan.events.push_back(
      {scenario.horizon / 2, FaultKind::kPortSlow, "", 0, 1,
       scenario.horizon / 2 + 2'000, 4});
  const rt::RuntimeResult result = run_with(
      scenario, plan, rt::OverrunAction::kAbort, rt::PrefetchKind::kHybrid);
  EXPECT_TRUE(result.invariant_violations.empty());
  EXPECT_EQ(result.faults.port_failures, 3u);
  EXPECT_GT(result.faults.load_retries + result.faults.prefetch_refails, 0u);
  EXPECT_GT(result.faults.retry_backoff_ticks, 0);
}

TEST(Recovery, RunsAreDeterministic) {
  const rt::Scenario scenario = overload_scenario();
  const FaultPlan plan = overrun_plan();
  for (const rt::OverrunAction action :
       {rt::OverrunAction::kAbort, rt::OverrunAction::kSkipNext,
        rt::OverrunAction::kDegrade}) {
    const std::string one =
        run_with(scenario, plan, action).summary_json();
    const std::string two =
        run_with(scenario, plan, action).summary_json();
    EXPECT_EQ(one, two) << to_string(action);
  }
}

TEST(Recovery, FaultFreeSummaryHasNoFaultSection) {
  // The "faults" field is gated on fault_mode so the pre-existing scenario
  // corpus expect-lines stay byte-identical.
  const rt::Scenario scenario = overload_scenario();
  rt::RuntimeConfig config;
  config.record_trace = false;
  const rt::RuntimeResult result = rt::run_scenario(scenario, config);
  EXPECT_FALSE(result.fault_mode);
  EXPECT_EQ(result.summary_json().find("\"faults\""), std::string::npos);
  const FaultPlan empty_plan;
  const rt::RuntimeResult faulted =
      run_with(scenario, empty_plan, rt::OverrunAction::kAbort);
  EXPECT_TRUE(faulted.fault_mode);
  EXPECT_NE(faulted.summary_json().find("\"faults\""), std::string::npos);
}

// ------------------------------------------------------ chaos corpus ----

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir =
      std::filesystem::path(RECONF_CORPUS_DIR) / "faults";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".chaos") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct ChaosRunConfig {
  rt::OverrunAction overrun;
  rt::PrefetchKind prefetch;
};

ChaosRunConfig decode_config(const std::string& text) {
  const std::size_t slash = text.find('/');
  EXPECT_NE(slash, std::string::npos) << text;
  const auto action = rt::overrun_action_from(text.substr(0, slash));
  const auto prefetch = rt::prefetch_kind_from(text.substr(slash + 1));
  EXPECT_TRUE(action.has_value()) << text;
  EXPECT_TRUE(prefetch.has_value()) << text;
  return {action.value_or(rt::OverrunAction::kAbort),
          prefetch.value_or(rt::PrefetchKind::kNone)};
}

TEST(ChaosCorpus, ReplaysBitStably) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 3u) << "chaos corpus went missing";
  std::size_t expects = 0;
  for (const auto& path : files) {
    const fault::ChaosCase c = fault::parse_chaos_case(read_file(path));
    ASSERT_FALSE(c.expects.empty()) << path;
    for (const fault::ChaosExpect& expect : c.expects) {
      const ChaosRunConfig config = decode_config(expect.config);
      const rt::RuntimeResult result =
          run_with(c.scenario, c.plan, config.overrun, config.prefetch);
      EXPECT_EQ(result.summary_json(), expect.summary)
          << path << " [" << expect.config << "]";
      EXPECT_TRUE(result.invariant_violations.empty())
          << path << " [" << expect.config << "]";
      ++expects;
    }
  }
  EXPECT_GE(expects, 9u);
}

TEST(ChaosCorpus, FormatRoundTripsTheCommittedFiles) {
  for (const auto& path : corpus_files()) {
    const std::string text = read_file(path);
    const fault::ChaosCase c = fault::parse_chaos_case(text);
    EXPECT_EQ(fault::format_chaos_case(c), text) << path;
  }
}

TEST(ChaosCorpus, RoundTripsNamesThatSpellTheSectionHeader) {
  // Only a line whose object has a top-level "fault_plan" member opens the
  // plan section; a scenario or task merely named "fault_plan" stays in the
  // scenario section.
  fault::ChaosCase c = fault::parse_chaos_case(
      read_file(std::filesystem::path(RECONF_CORPUS_DIR) / "faults" /
                "shed_overload.chaos"));
  c.scenario.name = "fault_plan";
  for (rt::ScenarioEvent& e : c.scenario.events) {
    if (e.name == "lo") e.name = "fault_plan";
  }
  const std::string text = fault::format_chaos_case(c);
  const fault::ChaosCase back = fault::parse_chaos_case(text);
  EXPECT_EQ(fault::format_chaos_case(back), text);
  EXPECT_EQ(back.scenario.name, "fault_plan");
  ASSERT_EQ(back.scenario.events.size(), c.scenario.events.size());
  EXPECT_EQ(back.scenario.events[1].name, "fault_plan");
  EXPECT_EQ(back.plan.name, c.plan.name);
  EXPECT_EQ(back.plan.events.size(), c.plan.events.size());
  EXPECT_EQ(back.expects.size(), c.expects.size());
}

// -------------------------------------------------------------- soak ----

/// ≥1k scenario × fault-plan draws through every recovery policy; every run
/// must be invariant-clean and keep the fault-accounting conservation law.
/// Mirrors tools/reconf_chaos --count=1026 (smaller per-draw sizes keep the
/// test under a second in Release).
TEST(ChaosSoak, ThousandDrawsInvariantClean) {
  static constexpr rt::ScenarioFamily kFamilies[] = {
      rt::ScenarioFamily::kSteady, rt::ScenarioFamily::kChurn,
      rt::ScenarioFamily::kReconfHeavy};
  static constexpr rt::OverrunAction kActions[] = {
      rt::OverrunAction::kAbort, rt::OverrunAction::kSkipNext,
      rt::OverrunAction::kDegrade};
  static constexpr rt::PrefetchKind kPrefetch[] = {rt::PrefetchKind::kNone,
                                                   rt::PrefetchKind::kStatic,
                                                   rt::PrefetchKind::kHybrid};
  std::uint64_t total_injected = 0;
  const int draws = 1'026;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t seed =
        gen::derive_seed(0xC4A05u, static_cast<std::uint64_t>(i));
    rt::ScenarioGenOptions sgen;
    sgen.family = kFamilies[i % std::size(kFamilies)];
    sgen.arrivals = 4;
    sgen.seed = seed;
    const rt::Scenario scenario = rt::generate_scenario(sgen);

    fault::FaultPlanGenOptions pgen;
    pgen.horizon = scenario.horizon;
    for (const rt::ScenarioEvent& e : scenario.events) {
      if (e.kind == rt::EventKind::kArrive) pgen.names.push_back(e.name);
    }
    pgen.faults = 8;
    pgen.seed = seed;
    const FaultPlan plan = fault::generate_fault_plan(pgen);

    const rt::RuntimeResult result =
        run_with(scenario, plan, kActions[(i / 3) % std::size(kActions)],
                 kPrefetch[i % std::size(kPrefetch)]);
    ASSERT_TRUE(result.invariant_violations.empty())
        << "draw " << i << " seed " << seed << ": "
        << result.invariant_violations.front();
    const rt::FaultRecoveryStats& f = result.faults;
    ASSERT_LE(f.overrun_aborts + f.overrun_skips + f.overrun_degrades,
              f.wcet_overruns)
        << "draw " << i;
    total_injected += f.wcet_overruns + f.port_failures + f.port_slow_events +
                      f.fabric_faults;
  }
  // The soak must actually inject — a silent no-op sweep proves nothing.
  EXPECT_GT(total_injected, static_cast<std::uint64_t>(draws));
}

}  // namespace
}  // namespace reconf
