// reconf_runtime — the online reconfiguration runtime as a CLI: replays a
// scenario (timed task arrivals / departures / mode changes, NDJSON — see
// src/rt/scenario.hpp) through the admission-gated EDF dispatcher with an
// optional configuration-prefetch policy, and reports the run as one
// canonical summary line plus optional human/tooling views.
//
//   reconf_runtime [<scenario.ndjson>] [--policy=none|static|hybrid]
//                  [--rho=N] [--fixed=N] [--no-invariants] [--no-trace]
//                  [--gantt] [--tasks] [--admissions]
//                  [--trace-out=PATH] [--metrics-out=PATH]
//   reconf_runtime --generate=steady|churn|reconf-heavy [--seed=N]
//                  [--arrivals=N] [--device=W] [--emit] [...run flags]
//
//   <scenario.ndjson>   scenario file; "-" or absent = stdin
//   --generate=FAMILY   generate a scenario instead of reading one
//                       (deterministic in --seed/--arrivals/--device)
//   --emit              print the generated scenario NDJSON and exit —
//                       the way corpus scenarios are minted
//   --policy=P          prefetch heuristic for the reconfiguration port
//                       (default none: every cold placement stalls)
//   --rho=N             override the per-column reconfiguration cost
//   --fixed=N           override the per-placement fixed cost
//   --no-invariants     skip the per-dispatch InvariantChecker
//   --no-trace          do not record the execution trace
//   --gantt             ASCII Gantt chart of the run on stdout
//   --tasks             per-task accounting table on stdout
//   --admissions        one line per admission-gate attempt on stdout
//   --trace-out=PATH    write the execution trace as Chrome trace-event
//                       JSON (Perfetto-loadable, shared writer with the
//                       obs span tracer)
//   --metrics-out=PATH  write all registered metrics (Prometheus text
//                       exposition) at exit; "-" = stderr
//
// stdout always ends with the canonical summary_json line — byte-stable
// for a given (scenario, flags), which is what the replay corpus pins.
// Exit status: 0 clean, 1 invariant violations detected, 2 usage/parse.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "obs/metrics.hpp"
#include "rt/runtime.hpp"
#include "rt/scenario.hpp"
#include "sim/trace.hpp"
#include "task/taskset.hpp"

namespace {

using namespace reconf;

int usage() {
  std::fprintf(
      stderr,
      "usage: reconf_runtime [<scenario.ndjson>] [--policy=none|static|"
      "hybrid]\n"
      "                      [--rho=N] [--fixed=N] [--no-invariants] "
      "[--no-trace]\n"
      "                      [--gantt] [--tasks] [--admissions]\n"
      "                      [--trace-out=PATH] [--metrics-out=PATH]\n"
      "       reconf_runtime --generate=steady|churn|reconf-heavy "
      "[--seed=N]\n"
      "                      [--arrivals=N] [--device=W] [--emit] [...]\n"
      "see the header of tools/reconf_runtime.cpp for details\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string input_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      static const char* const known[] = {
          "--policy=",     "--rho=",         "--fixed=",
          "--generate=",   "--seed=",        "--arrivals=",
          "--device=",     "--emit",         "--no-invariants",
          "--no-trace",    "--gantt",        "--tasks",
          "--admissions",  "--trace-out=",   "--metrics-out="};
      if (!is_known_flag(a, known)) {
        std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
        return usage();
      }
      args.push_back(a);
    } else if (input_path.empty()) {
      input_path = a;
    } else {
      return usage();
    }
  }

  rt::Scenario scenario;
  const std::string family = flag_str(args, "generate");
  if (!family.empty()) {
    rt::ScenarioGenOptions gen;
    if (const auto kind = rt::scenario_family_from(family)) {
      gen.family = *kind;
    } else {
      std::fprintf(stderr, "unknown scenario family: %s\n", family.c_str());
      return usage();
    }
    gen.seed =
        static_cast<std::uint64_t>(int_flag(args, "seed", 0, 0, kMaxLong));
    gen.arrivals = static_cast<int>(int_flag(args, "arrivals", 10, 1, kMaxInt));
    gen.device.width =
        static_cast<Area>(int_flag(args, "device", 100, 1, kMaxInt));
    scenario = rt::generate_scenario(gen);
    if (has_flag(args, "emit")) {
      std::fputs(rt::format_scenario(scenario).c_str(), stdout);
      return 0;
    }
  } else {
    std::string text;
    if (input_path.empty() || input_path == "-") {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      text = ss.str();
    } else {
      std::ifstream in(input_path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }
    try {
      scenario = rt::parse_scenario(text);
    } catch (const rt::ScenarioError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  scenario.reconf.per_column = static_cast<Ticks>(
      int_flag(args, "rho", scenario.reconf.per_column, 0, kMaxLong));
  scenario.reconf.fixed = static_cast<Ticks>(
      int_flag(args, "fixed", scenario.reconf.fixed, 0, kMaxLong));

  rt::RuntimeConfig config;
  const std::string policy = flag_str(args, "policy");
  if (!policy.empty()) {
    const auto kind = rt::prefetch_kind_from(policy);
    if (!kind) {
      std::fprintf(stderr, "unknown prefetch policy: %s\n", policy.c_str());
      return usage();
    }
    config.prefetch = *kind;
  }
  config.check_invariants = !has_flag(args, "no-invariants");
  config.record_trace = !has_flag(args, "no-trace");

  rt::RuntimeResult result;
  try {
    result = rt::run_scenario(scenario, config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "runtime error: %s\n", e.what());
    return 2;
  }

  if (has_flag(args, "admissions")) {
    for (const rt::AdmissionRecord& r : result.admissions) {
      std::printf("t=%lld %s %s: %s%s%s\n", static_cast<long long>(r.at),
                  rt::to_string(r.kind), r.name.c_str(),
                  r.admitted ? "admitted" : "rejected",
                  r.accepted_by.empty() ? "" : " by ",
                  r.accepted_by.c_str());
    }
  }
  if (has_flag(args, "tasks")) {
    for (const rt::TaskAccount& t : result.tasks) {
      const double avg =
          t.completed == 0 ? 0.0
                           : static_cast<double>(t.total_response) /
                                 static_cast<double>(t.completed);
      std::printf(
          "%-12s released=%llu completed=%llu missed=%llu "
          "max_resp=%lld avg_resp=%.1f stall=%lld hidden=%lld\n",
          t.name.c_str(), static_cast<unsigned long long>(t.released),
          static_cast<unsigned long long>(t.completed),
          static_cast<unsigned long long>(t.missed),
          static_cast<long long>(t.max_response), avg,
          static_cast<long long>(t.stall_ticks),
          static_cast<long long>(t.hidden_ticks));
    }
  }
  if (has_flag(args, "gantt") && !result.trace.empty()) {
    std::vector<Task> tasks;
    tasks.reserve(result.tasks.size());
    for (const rt::TaskAccount& t : result.tasks) tasks.push_back(t.task);
    std::fputs(
        result.trace.render_gantt(TaskSet(tasks), result.horizon).c_str(),
        stdout);
  }

  const std::string trace_out = flag_str(args, "trace-out");
  if (!trace_out.empty()) {
    std::vector<Task> tasks;
    tasks.reserve(result.tasks.size());
    for (const rt::TaskAccount& t : result.tasks) tasks.push_back(t.task);
    write_text_file(trace_out,
                    sim::chrome_trace_json(result.trace, TaskSet(tasks)),
                    "trace");
  }
  const std::string metrics_out = flag_str(args, "metrics-out");
  if (!metrics_out.empty()) {
    write_text_file(metrics_out,
                    obs::MetricsRegistry::instance().prometheus_text(),
                    "metrics");
  }

  for (const std::string& v : result.invariant_violations) {
    std::fprintf(stderr, "invariant violation: %s\n", v.c_str());
  }
  std::puts(result.summary_json().c_str());
  return result.invariant_violations.empty() ? 0 : 1;
}
