// reconf_cli — command-line front end for the library, so tasksets can be
// analyzed, simulated and generated without writing C++.
//
//   reconf_cli analyze  <taskset-file> [--tests=dp,gn1,gn2,...] [--fkf]
//                       # --tests: analyzer registry ids (unknown id =>
//                       # error listing the registered analyzers)
//                       # --fkf: keep only EDF-FkF-sound analyzers
//   reconf_cli simulate <taskset-file> [--scheduler=nf|fkf|us]
//                       [--placement=migrate|contiguous]
//                       [--strategy=first|best|worst]
//                       [--horizon-periods=N] [--rho=TICKS] [--gantt]
//                       [--arrivals=periodic|sporadic] [--seed=S]
//   reconf_cli generate [--n=N] [--profile=unconstrained|heavy-area|heavy-time]
//                       [--us=TARGET] [--seed=S] [--width=W]
//   reconf_cli width    <taskset-file>   # minimal A(H) per criterion
//
// Taskset file format: see task/io.hpp (also produced by `generate`).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "reconf/reconf.hpp"

namespace {

using namespace reconf;

int usage() {
  std::fprintf(stderr,
               "usage: reconf_cli <analyze|simulate|generate|width> ...\n"
               "see the header of tools/reconf_cli.cpp for all flags\n");
  return 2;
}

std::optional<io::ParsedTaskSet> load(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  try {
    return io::read_taskset(file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return std::nullopt;
  }
}

void print_outcome(const analysis::AnalyzerOutcome& o) {
  const analysis::TestReport& r = o.report;
  std::printf("  %-9s: %s", o.id.c_str(),
              r.accepted() ? "SCHEDULABLE" : "inconclusive");
  if (!r.accepted() && r.first_failing_task) {
    const auto& d = r.per_task[*r.first_failing_task];
    std::printf(" (k=%zu: lhs=%.4f rhs=%.4f)", *r.first_failing_task + 1,
                d.lhs, d.rhs);
  }
  if (!r.note.empty()) std::printf(" [%s]", r.note.c_str());
  std::printf("  (%.1f us)\n", o.seconds * 1e6);
}

int cmd_analyze(const std::vector<std::string>& args) {
  std::string path;
  for (const std::string& a : args) {
    if (a.rfind("--", 0) != 0) {
      path = a;
      break;
    }
  }
  if (path.empty()) return usage();
  const auto parsed = load(path);
  if (!parsed) return 1;

  analysis::AnalysisRequest request;  // defaults to the paper trio
  const bool explicit_tests = flag_value(args, "tests").has_value();
  if (const auto t = flag_value(args, "tests")) {
    request.tests = analysis::split_id_list(*t);
    if (request.tests.empty()) {
      std::fprintf(
          stderr, "--tests needs at least one analyzer id; registered: %s\n",
          analysis::AnalyzerRegistry::instance().id_list().c_str());
      return 2;
    }
  }
  if (has_flag(args, "fkf")) {
    request.scheduler = analysis::Scheduler::kEdfFkF;
  }
  // Run everything for full diagnostics; the serving paths early-exit.
  request.early_exit = false;

  std::optional<analysis::AnalysisEngine> engine;
  try {
    engine.emplace(std::move(request));
  } catch (const analysis::UnknownAnalyzerError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (engine->empty()) {
    std::fprintf(stderr,
                 "none of the selected tests is sound for the --fkf "
                 "restriction; registered analyzers: %s\n",
                 analysis::AnalyzerRegistry::instance().id_list().c_str());
    return 2;
  }

  std::cout << io::format_table(parsed->taskset, parsed->device) << "\n";
  const auto report = engine->run(parsed->taskset, parsed->device);
  for (const auto& o : report.outcomes) {
    if (o.ran) print_outcome(o);
  }
  std::printf("  %-9s: %s%s%s\n", "ANY",
              report.accepted() ? "SCHEDULABLE" : "inconclusive",
              report.accepted() ? " via " : "",
              report.accepted_by().c_str());
  if (!explicit_tests) {
    // The partitioned baseline rides along in the default view (it is its
    // own scheduler, so it stays out of the ANY union above).
    const auto part =
        partition::partition_tasks(parsed->taskset, parsed->device);
    std::printf("  %-9s: %s (%zu partitions, %d columns)\n", "partition",
                part.feasible ? "feasible" : "infeasible",
                part.partitions.size(), part.total_width);
  }
  return 0;
}

int cmd_simulate(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto parsed = load(args[0]);
  if (!parsed) return 1;

  sim::SimConfig cfg;
  if (const auto s = flag_value(args, "scheduler")) {
    if (*s == "fkf") cfg.scheduler = sim::SchedulerKind::kEdfFkF;
    else if (*s == "us") cfg.scheduler = sim::SchedulerKind::kEdfUs;
    else if (*s != "nf") return usage();
  }
  if (const auto p = flag_value(args, "placement")) {
    if (*p == "contiguous") {
      cfg.placement = sim::PlacementMode::kContiguousNoMigration;
    } else if (*p != "migrate") {
      return usage();
    }
  }
  if (const auto s = flag_value(args, "strategy")) {
    if (*s == "best") cfg.strategy = placement::Strategy::kBestFit;
    else if (*s == "worst") cfg.strategy = placement::Strategy::kWorstFit;
    else if (*s != "first") return usage();
  }
  cfg.horizon_periods = static_cast<int>(
      int_flag(args, "horizon-periods", cfg.horizon_periods, 1, kMaxInt));
  cfg.reconf.per_column =
      int_flag(args, "rho", cfg.reconf.per_column, 0, kMaxLong);
  if (const auto a = flag_value(args, "arrivals")) {
    if (*a == "sporadic") cfg.arrivals = sim::ArrivalModel::kSporadic;
    else if (*a != "periodic") return usage();
  }
  cfg.arrival_seed = static_cast<std::uint64_t>(int_flag(
      args, "seed", static_cast<long long>(cfg.arrival_seed), 0, kMaxLong));
  cfg.record_trace = has_flag(args, "gantt");
  cfg.check_invariants = true;
  cfg.stop_on_first_miss = false;

  const auto r = sim::simulate(parsed->taskset, parsed->device, cfg);
  std::printf("scheduler=%s placement=%s arrivals=%s horizon=%lld\n",
              sim::to_string(cfg.scheduler), sim::to_string(cfg.placement),
              sim::to_string(cfg.arrivals),
              static_cast<long long>(r.horizon));
  std::printf("result: %s  released=%llu completed=%llu misses=%llu "
              "preemptions=%llu occupancy=%.1f%%\n",
              r.schedulable ? "no deadline misses" : "DEADLINE MISSES",
              static_cast<unsigned long long>(r.jobs_released),
              static_cast<unsigned long long>(r.jobs_completed),
              static_cast<unsigned long long>(r.deadline_misses),
              static_cast<unsigned long long>(r.preemptions),
              100.0 * r.average_occupancy(parsed->device.width));
  if (r.first_miss) {
    std::printf("first miss: task %zu job %llu at t=%lld\n",
                r.first_miss->task_index + 1,
                static_cast<unsigned long long>(r.first_miss->sequence),
                static_cast<long long>(r.first_miss->deadline));
  }
  for (const auto& v : r.invariant_violations) {
    std::printf("invariant violation: %s\n", v.c_str());
  }
  if (cfg.record_trace) {
    std::cout << "\n"
              << r.trace.render_gantt(parsed->taskset, r.horizon) << "\n";
  }
  return r.schedulable ? 0 : 1;
}

int cmd_generate(const std::vector<std::string>& args) {
  gen::GenRequest req;
  const int n = static_cast<int>(int_flag(args, "n", 10, 1, kMaxInt));
  req.profile = gen::GenProfile::unconstrained(n);
  if (const auto v = flag_value(args, "profile")) {
    if (*v == "heavy-area") {
      req.profile = gen::GenProfile::spatially_heavy_time_light(n);
    } else if (*v == "heavy-time") {
      req.profile = gen::GenProfile::spatially_light_time_heavy(n);
    } else if (*v != "unconstrained") {
      return usage();
    }
  }
  if (const auto v = flag_value(args, "us")) {
    char* end = nullptr;
    const double us = std::strtod(v->c_str(), &end);
    if (v->empty() || *end != '\0' || !std::isfinite(us) || us <= 0.0) {
      std::fprintf(stderr, "--us must be a positive number, got '%s'\n",
                   v->c_str());
      return 2;
    }
    req.target_system_util = us;
  }
  req.seed = static_cast<std::uint64_t>(
      int_flag(args, "seed", static_cast<long long>(req.seed), 0, kMaxLong));
  const auto width =
      static_cast<Area>(int_flag(args, "width", 100, 1, kMaxInt));

  const auto ts = gen::generate_with_retries(req);
  if (!ts) {
    std::fprintf(stderr, "generation failed (target unreachable?)\n");
    return 1;
  }
  io::write_taskset(std::cout, *ts, Device{width});
  return 0;
}

int cmd_width(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto parsed = load(args[0]);
  if (!parsed) return 1;
  const TaskSet& ts = parsed->taskset;

  struct Criterion {
    const char* name;
    analysis::AcceptPredicate accept;
  };
  const Criterion criteria[] = {
      {"DP", [](const TaskSet& t, Device d) {
         return analysis::dp_test(t, d).accepted();
       }},
      {"GN1", [](const TaskSet& t, Device d) {
         return analysis::gn1_test(t, d).accepted();
       }},
      {"GN2", [](const TaskSet& t, Device d) {
         return analysis::gn2_test(t, d).accepted();
       }},
      {"ANY", [engine = std::make_shared<analysis::AnalysisEngine>(
                   analysis::fast_any_request())](const TaskSet& t, Device d) {
         return engine->decide(t, d).accepted();
       }},
      {"PART", [](const TaskSet& t, Device d) {
         return partition::partitioned_schedulable(t, d);
       }},
      {"SIM-NF", [](const TaskSet& t, Device d) {
         sim::SimConfig cfg;
         cfg.horizon_periods = 100;
         return sim::simulate(t, d, cfg).schedulable;
       }},
  };
  std::printf("minimal A(H) per criterion (A_max = %d, ceil(U_S) = %d):\n",
              ts.max_area(), static_cast<int>(ts.system_utilization()) + 1);
  for (const Criterion& c : criteria) {
    const auto w = analysis::min_feasible_width(ts, c.accept, 4096);
    if (w) {
      std::printf("  %-7s: %d columns\n", c.name, *w);
    } else {
      std::printf("  %-7s: none up to 4096\n", c.name);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  if (cmd == "analyze") return cmd_analyze(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "width") return cmd_width(args);
  return usage();
}
