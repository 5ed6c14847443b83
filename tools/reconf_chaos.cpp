// reconf_chaos — fault-injection harness for the online runtime: drives
// scenario × fault-plan matrices through every recovery policy, checks the
// runs invariant-clean, shrinks failing plans to minimal repros, and
// replays the committed chaos corpus byte-for-byte.
//
//   reconf_chaos [--count=N] [--seed=S] [--arrivals=N] [--device=W]
//                [--faults=N] [--corpus-dir=DIR]
//   reconf_chaos --replay=FILE.chaos [--replay=...]
//   reconf_chaos --emit --family=steady|churn|reconf-heavy [--seed=S]
//                [--arrivals=N] [--device=W] [--faults=N] [--rho=N]
//                [--configs=A/P,A/P,...]
//   reconf_chaos --pin=FILE.chaos [--configs=A/P,...]
//
// Matrix mode (default): N draws. Draw i generates a scenario (families
// rotate: steady, churn, reconf-heavy) and a fault plan targeting its
// tasks, then replays the pair under a rotating (overrun-action × prefetch)
// configuration with the invariant checker attached. A draw fails when the
// run reports invariant violations (area cap, EDF order, shed conformance,
// post-shed protection) or breaks the fault-accounting conservation law
// (overrun actions ≤ injected overruns). Failing plans are delta-debugged
// to a locally minimal repro and, with --corpus-dir, written there as
// .chaos files — the artifacts CI uploads.
//
// The final stdout line is a summary of integer counters only — byte-
// identical for the same flags on every platform and run: the run totals
// (releases, completions, misses, dispatches, preemptions) and the fault
// and recovery counters, each summed over the draws.
//
// Replay mode: parse each .chaos file (scenario + fault plan + "#expect
// <action>/<prefetch> <summary_json>" lines) and re-run every expectation;
// any byte difference in summary_json is a failure quoting both strings.
//
// Emit mode: deterministically mint a .chaos file for the corpus — the
// scenario, the generated plan, and freshly computed #expect lines for
// --configs (default "abort/none,skip/static,degrade/hybrid").
//
// Pin mode: re-run a .chaos file (hand-written cases included) and print it
// back with freshly computed #expect lines — the file's own configs, or
// --configs when given. Refuses to pin a run that fails the checks.
//
// Exit status: 0 clean, 1 failures, 2 usage/parse.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "fault/chaos.hpp"
#include "fault/plan.hpp"
#include "rt/prefetch.hpp"
#include "rt/recovery.hpp"
#include "rt/runtime.hpp"
#include "rt/scenario.hpp"

namespace {

using namespace reconf;

int usage() {
  std::fprintf(
      stderr,
      "usage: reconf_chaos [--count=N] [--seed=S] [--arrivals=N] "
      "[--device=W]\n"
      "                    [--faults=N] [--corpus-dir=DIR]\n"
      "       reconf_chaos --replay=FILE.chaos [--replay=...]\n"
      "       reconf_chaos --emit --family=steady|churn|reconf-heavy "
      "[--seed=S]\n"
      "                    [--arrivals=N] [--device=W] [--faults=N] "
      "[--rho=N]\n"
      "                    [--configs=A/P,...]\n"
      "see the header of tools/reconf_chaos.cpp for details\n");
  return 2;
}

/// Decodes a "<overrun-action>/<prefetch>" chaos config string.
struct ChaosConfig {
  rt::OverrunAction overrun = rt::OverrunAction::kAbort;
  rt::PrefetchKind prefetch = rt::PrefetchKind::kNone;
};

std::optional<ChaosConfig> config_from(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  const auto action = rt::overrun_action_from(text.substr(0, slash));
  const auto prefetch = rt::prefetch_kind_from(text.substr(slash + 1));
  if (!action || !prefetch) return std::nullopt;
  return ChaosConfig{*action, *prefetch};
}

std::string config_name(const ChaosConfig& c) {
  return std::string(rt::to_string(c.overrun)) + "/" +
         rt::to_string(c.prefetch);
}

rt::RuntimeResult run_case(const rt::Scenario& scenario,
                           const fault::FaultPlan& plan,
                           const ChaosConfig& config) {
  rt::RuntimeConfig rc;
  rc.prefetch = config.prefetch;
  rc.recovery.overrun = config.overrun;
  rc.faults = &plan;
  rc.check_invariants = true;
  rc.record_trace = false;
  return rt::run_scenario(scenario, rc);
}

/// Checks one fault run for the properties every recovery policy must keep;
/// returns a human-readable reason when the run is bad, empty when clean.
std::string check_run(const rt::RuntimeResult& result) {
  if (!result.invariant_violations.empty()) {
    return "invariant: " + result.invariant_violations.front();
  }
  const rt::FaultRecoveryStats& f = result.faults;
  if (f.overrun_aborts + f.overrun_skips + f.overrun_degrades >
      f.wcet_overruns) {
    return "conservation: more overrun actions than injected overruns";
  }
  if (f.load_aborts + f.load_retries + f.prefetch_refails > 0 &&
      f.port_failures == 0) {
    return "conservation: retry/abort accounting without injected failures";
  }
  if (f.sheds > 0 && f.wcet_overruns == 0) {
    return "degradation: shed fired without any injected overrun";
  }
  return {};
}

int run_replay(const std::vector<std::string>& paths) {
  std::uint64_t expects = 0;
  std::uint64_t mismatches = 0;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    fault::ChaosCase c;
    try {
      c = fault::parse_chaos_case(ss.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
      return 2;
    }
    if (c.expects.empty()) {
      std::fprintf(stderr, "%s: no #expect lines to replay\n", path.c_str());
      return 2;
    }
    for (const fault::ChaosExpect& expect : c.expects) {
      const auto config = config_from(expect.config);
      if (!config) {
        std::fprintf(stderr, "%s: bad #expect config '%s'\n", path.c_str(),
                     expect.config.c_str());
        return 2;
      }
      const rt::RuntimeResult result = run_case(c.scenario, c.plan, *config);
      ++expects;
      if (result.summary_json() != expect.summary) {
        ++mismatches;
        std::fprintf(stderr,
                     "%s [%s]: summary drift\n  expected %s\n  actual   %s\n",
                     path.c_str(), expect.config.c_str(),
                     expect.summary.c_str(), result.summary_json().c_str());
      } else {
        const std::string bad = check_run(result);
        if (!bad.empty()) {
          ++mismatches;
          std::fprintf(stderr, "%s [%s]: %s\n", path.c_str(),
                       expect.config.c_str(), bad.c_str());
        }
      }
    }
  }
  std::printf("reconf_chaos: replayed=%llu files=%llu mismatches=%llu\n",
              static_cast<unsigned long long>(expects),
              static_cast<unsigned long long>(paths.size()),
              static_cast<unsigned long long>(mismatches));
  return mismatches == 0 ? 0 : 1;
}

int run_emit(const std::vector<std::string>& args) {
  const std::string family = flag_str(args, "family");
  rt::ScenarioGenOptions gen;
  if (const auto kind = rt::scenario_family_from(family)) {
    gen.family = *kind;
  } else {
    std::fprintf(stderr, "--emit needs --family=steady|churn|reconf-heavy\n");
    return usage();
  }
  gen.seed = static_cast<std::uint64_t>(int_flag(args, "seed", 0, 0, kMaxLong));
  gen.arrivals = static_cast<int>(int_flag(args, "arrivals", 6, 1, kMaxInt));
  gen.device.width =
      static_cast<Area>(int_flag(args, "device", 100, 1, kMaxInt));

  fault::ChaosCase c;
  c.scenario = rt::generate_scenario(gen);
  c.scenario.reconf.per_column = static_cast<Ticks>(
      int_flag(args, "rho", c.scenario.reconf.per_column, 0, kMaxLong));

  fault::FaultPlanGenOptions plan_gen;
  plan_gen.horizon = c.scenario.horizon;
  plan_gen.names = rt::arrival_names(c.scenario);
  plan_gen.faults = static_cast<int>(int_flag(args, "faults", 6, 0, kMaxInt));
  plan_gen.seed = gen.seed;
  c.plan = fault::generate_fault_plan(plan_gen);
  c.plan.name = family + "-" + std::to_string(gen.seed);

  std::string configs = flag_str(args, "configs");
  if (configs.empty()) configs = "abort/none,skip/static,degrade/hybrid";
  std::istringstream list(configs);
  std::string one;
  while (std::getline(list, one, ',')) {
    const auto config = config_from(one);
    if (!config) {
      std::fprintf(stderr, "bad --configs entry '%s'\n", one.c_str());
      return usage();
    }
    const rt::RuntimeResult result = run_case(c.scenario, c.plan, *config);
    const std::string bad = check_run(result);
    if (!bad.empty()) {
      // Never mint a corpus entry that pins a bad run as "expected".
      std::fprintf(stderr, "refusing to emit: [%s] %s\n", one.c_str(),
                   bad.c_str());
      return 1;
    }
    c.expects.push_back({config_name(*config), result.summary_json()});
  }
  std::fputs(fault::format_chaos_case(c).c_str(), stdout);
  return 0;
}

int run_pin(const std::string& path, const std::vector<std::string>& args) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  fault::ChaosCase c;
  try {
    c = fault::parse_chaos_case(ss.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 2;
  }
  // Re-pin the file's own configs, or --configs when given (also the way a
  // hand-written case without #expect lines gets its first pins).
  std::vector<std::string> configs;
  const std::string override = flag_str(args, "configs");
  if (!override.empty()) {
    std::istringstream list(override);
    std::string one;
    while (std::getline(list, one, ',')) configs.push_back(one);
  } else {
    for (const fault::ChaosExpect& e : c.expects) configs.push_back(e.config);
  }
  if (configs.empty()) {
    std::fprintf(stderr, "%s: no configs to pin (use --configs=A/P,...)\n",
                 path.c_str());
    return 2;
  }
  c.expects.clear();
  for (const std::string& one : configs) {
    const auto config = config_from(one);
    if (!config) {
      std::fprintf(stderr, "bad config '%s'\n", one.c_str());
      return usage();
    }
    const rt::RuntimeResult result = run_case(c.scenario, c.plan, *config);
    const std::string bad = check_run(result);
    if (!bad.empty()) {
      std::fprintf(stderr, "refusing to pin: [%s] %s\n", one.c_str(),
                   bad.c_str());
      return 1;
    }
    c.expects.push_back({config_name(*config), result.summary_json()});
  }
  std::fputs(fault::format_chaos_case(c).c_str(), stdout);
  return 0;
}

int run_matrix(const std::vector<std::string>& args) {
  const long long count = int_flag(args, "count", 200, 1, 10'000'000);
  const auto seed =
      static_cast<std::uint64_t>(int_flag(args, "seed", 0, 0, kMaxLong));
  const int arrivals =
      static_cast<int>(int_flag(args, "arrivals", 6, 1, kMaxInt));
  const auto width =
      static_cast<Area>(int_flag(args, "device", 100, 1, kMaxInt));
  const int faults = static_cast<int>(int_flag(args, "faults", 6, 0, kMaxInt));
  const std::string corpus_dir = flag_str(args, "corpus-dir");

  static constexpr rt::ScenarioFamily kFamilies[] = {
      rt::ScenarioFamily::kSteady, rt::ScenarioFamily::kChurn,
      rt::ScenarioFamily::kReconfHeavy};
  static constexpr rt::OverrunAction kActions[] = {
      rt::OverrunAction::kAbort, rt::OverrunAction::kSkipNext,
      rt::OverrunAction::kDegrade};
  static constexpr rt::PrefetchKind kPrefetch[] = {rt::PrefetchKind::kNone,
                                                   rt::PrefetchKind::kStatic,
                                                   rt::PrefetchKind::kHybrid};

  std::uint64_t failed = 0;
  rt::RuntimeResult runs;  // only the run totals the summary prints
  rt::FaultRecoveryStats total;
  for (long long i = 0; i < count; ++i) {
    const std::uint64_t draw_seed =
        derive_seed(seed, 0xC4A05ull ^ static_cast<std::uint64_t>(i));
    rt::ScenarioGenOptions sgen;
    sgen.family = kFamilies[i % std::size(kFamilies)];
    sgen.device.width = width;
    sgen.arrivals = arrivals;
    sgen.seed = draw_seed;
    const rt::Scenario scenario = rt::generate_scenario(sgen);

    fault::FaultPlanGenOptions pgen;
    pgen.horizon = scenario.horizon;
    pgen.names = rt::arrival_names(scenario);
    pgen.faults = faults;
    pgen.seed = draw_seed;
    const fault::FaultPlan plan = fault::generate_fault_plan(pgen);

    ChaosConfig config{kActions[(i / 3) % std::size(kActions)],
                       kPrefetch[i % std::size(kPrefetch)]};
    const rt::RuntimeResult result = run_case(scenario, plan, config);
    runs.releases += result.releases;
    runs.completions += result.completions;
    runs.deadline_misses += result.deadline_misses;
    runs.dispatches += result.dispatches;
    runs.preemptions += result.preemptions;
    const rt::FaultRecoveryStats& f = result.faults;
    total.wcet_overruns += f.wcet_overruns;
    total.overrun_aborts += f.overrun_aborts;
    total.overrun_skips += f.overrun_skips;
    total.overrun_degrades += f.overrun_degrades;
    total.port_failures += f.port_failures;
    total.load_retries += f.load_retries;
    total.load_aborts += f.load_aborts;
    total.fabric_faults += f.fabric_faults;
    total.sheds += f.sheds;
    total.post_shed_misses += f.post_shed_misses;

    const std::string bad = check_run(result);
    if (bad.empty()) continue;
    ++failed;
    std::fprintf(stderr, "draw %lld [%s, %s, seed=%llu]: %s\n", i,
                 rt::to_string(sgen.family), config_name(config).c_str(),
                 static_cast<unsigned long long>(draw_seed), bad.c_str());
    if (corpus_dir.empty()) continue;

    // Delta-debug the plan against "this config still fails", then write
    // the minimal repro as a .chaos artifact (no #expect lines — the
    // summary of a failing run is not something to pin).
    const fault::FaultPlan shrunk = fault::shrink_fault_plan(
        plan, [&](const fault::FaultPlan& candidate) {
          return !check_run(run_case(scenario, candidate, config)).empty();
        });
    fault::ChaosCase repro;
    repro.scenario = scenario;
    repro.plan = shrunk;
    repro.plan.name = "repro-" + std::to_string(draw_seed);
    const std::string path = corpus_dir + "/fail-" +
                             std::to_string(draw_seed) + "-" +
                             std::to_string(i) + ".chaos";
    std::ofstream out(path);
    if (out) {
      out << "# " << config_name(config) << ": " << bad << "\n"
          << fault::format_chaos_case(repro);
      std::fprintf(stderr, "  minimal repro (%zu of %zu events): %s\n",
                   shrunk.events.size(), plan.events.size(), path.c_str());
    } else {
      std::fprintf(stderr, "  cannot write %s\n", path.c_str());
    }
  }

  // Integer counters only: byte-identical for the same flags, everywhere.
  // The run totals move with any change to what the runs do, the fault
  // counters with any change to how they recover.
  std::printf(
      "reconf_chaos: draws=%lld failed=%llu releases=%llu completions=%llu "
      "misses=%llu dispatches=%llu preemptions=%llu overruns=%llu "
      "aborts=%llu skips=%llu degrades=%llu port_failures=%llu retries=%llu "
      "load_aborts=%llu fabric=%llu sheds=%llu post_shed_misses=%llu "
      "seed=%llu\n",
      count, static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(runs.releases),
      static_cast<unsigned long long>(runs.completions),
      static_cast<unsigned long long>(runs.deadline_misses),
      static_cast<unsigned long long>(runs.dispatches),
      static_cast<unsigned long long>(runs.preemptions),
      static_cast<unsigned long long>(total.wcet_overruns),
      static_cast<unsigned long long>(total.overrun_aborts),
      static_cast<unsigned long long>(total.overrun_skips),
      static_cast<unsigned long long>(total.overrun_degrades),
      static_cast<unsigned long long>(total.port_failures),
      static_cast<unsigned long long>(total.load_retries),
      static_cast<unsigned long long>(total.load_aborts),
      static_cast<unsigned long long>(total.fabric_faults),
      static_cast<unsigned long long>(total.sheds),
      static_cast<unsigned long long>(total.post_shed_misses),
      static_cast<unsigned long long>(seed));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::vector<std::string> replay_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      static const char* const known[] = {
          "--count=",  "--seed=",       "--arrivals=", "--device=",
          "--faults=", "--corpus-dir=", "--replay=",   "--emit",
          "--family=", "--rho=",        "--configs=",  "--pin="};
      if (!is_known_flag(a, known)) {
        std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
        return usage();
      }
      if (a.rfind("--replay=", 0) == 0) {
        replay_paths.push_back(a.substr(9));
      } else {
        args.push_back(a);
      }
    } else {
      // Positional paths are replay inputs too: reconf_chaos corpus/*.chaos
      replay_paths.push_back(a);
    }
  }
  const std::string pin = flag_str(args, "pin");
  if (!pin.empty()) return run_pin(pin, args);
  if (!replay_paths.empty()) return run_replay(replay_paths);
  if (has_flag(args, "emit")) return run_emit(args);
  return run_matrix(args);
}
