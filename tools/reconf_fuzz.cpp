// reconf_fuzz — adversarial differential fuzzer: generates tasksets across
// the oracle's adversarial families, adjudicates every analyzer (and the
// engine's fast vs reference paths) against the hyperperiod-bounded
// simulation oracle, delta-debugs any disagreement to a minimal NDJSON
// repro, and reports a disagreement matrix plus machine-readable stats.
//
//   reconf_fuzz [options]
//     --count=N            tasksets to adjudicate (default 2000)
//     --seed=S             master seed, decimal or 0x hex (default 0xC0FFEE)
//     --families=a,b       subset of families (default: all; see --list)
//     --tasks=LO..HI       task-count range (default 2..12)
//     --tests=a,b          analyzer lineup (default: every registered)
//     --threads=K          worker threads (default 0 = hardware)
//     --horizon-periods=P  sim horizon cap in max-periods (default 60)
//     --offset-trials=K    random release-offset patterns per probe (2)
//     --corpus-dir=DIR     write shrunk repros as NDJSON files into DIR
//     --out=PATH           write stats JSON ("-" = stdout only)
//     --inject=MODE        none|over-accept|fast-slow (pipeline self-test)
//     --list               print families and analyzers, then exit
//
// Exit status: 0 when every adjudication was clean; 1 on any sufficiency
// violation, fast/slow divergence, or simulator invariant violation (CI
// treats nonzero as a gate failure and uploads --corpus-dir as artifacts).
//
// Every taskset is a pure function of (master seed, index), so a seed
// printed by a CI failure replays bit-identically on any machine
// (tests/rng_golden_test.cpp pins the underlying streams).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/registry.hpp"
#include "common/flags.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "gen/rng.hpp"
#include "oracle/differential.hpp"
#include "oracle/families.hpp"
#include "oracle/inject.hpp"
#include "oracle/repro.hpp"
#include "oracle/shrinker.hpp"
#include "sim/engine.hpp"
#include "task/io.hpp"

namespace {

using namespace reconf;

struct Options {
  std::uint64_t count = 2000;
  std::uint64_t seed = 0xC0FFEE;
  std::vector<oracle::FuzzFamily> families = oracle::all_families();
  int tasks_lo = 2;
  int tasks_hi = 12;
  std::vector<std::string> tests;
  unsigned threads = 0;
  oracle::OracleConfig oracle;
  std::string corpus_dir;
  std::string out_path;
  oracle::InjectMode inject = oracle::InjectMode::kNone;
  bool list = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: reconf_fuzz [--count=N] [--seed=S] "
               "[--families=a,b] [--tasks=LO..HI] [--tests=a,b] "
               "[--threads=K] [--horizon-periods=P] [--offset-trials=K] "
               "[--corpus-dir=DIR] [--out=PATH] [--inject=MODE] "
               "[--list]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  static const char* const known[] = {
      "--count=",           "--seed=",          "--families=",
      "--tasks=",           "--tests=",         "--threads=",
      "--horizon-periods=", "--offset-trials=", "--corpus-dir=",
      "--out=",             "--inject=",        "--list"};
  for (const std::string& a : args) {
    if (!is_known_flag(a, known)) usage();
  }

  Options opt;
  opt.count = static_cast<std::uint64_t>(
      int_flag(args, "count", static_cast<long long>(opt.count), 1, kMaxLong));
  opt.seed = static_cast<std::uint64_t>(
      int_flag(args, "seed", static_cast<long long>(opt.seed), 0, kMaxLong));
  if (const auto families = flag_value(args, "families")) {
    opt.families.clear();
    for (const std::string& name : analysis::split_id_list(*families)) {
      const auto family = oracle::family_from_string(name);
      if (!family) {
        std::fprintf(stderr, "reconf_fuzz: unknown family '%s'\n",
                     name.c_str());
        std::exit(2);
      }
      opt.families.push_back(*family);
    }
    if (opt.families.empty()) {
      std::fprintf(stderr, "reconf_fuzz: --families= selects nothing\n");
      std::exit(2);
    }
  }
  if (const auto range = flag_value(args, "tasks")) {
    const std::size_t dots = range->find("..");
    const auto lo = parse_int(range->substr(0, dots));
    const auto hi =
        dots == std::string::npos ? lo : parse_int(range->substr(dots + 2));
    if (!lo || !hi || *lo < 1 || *hi < *lo ||
        *hi > std::numeric_limits<int>::max()) {
      std::fprintf(stderr, "reconf_fuzz: bad --tasks range\n");
      std::exit(2);
    }
    opt.tasks_lo = static_cast<int>(*lo);
    opt.tasks_hi = static_cast<int>(*hi);
  }
  if (const auto tests = flag_value(args, "tests")) {
    opt.tests = analysis::split_id_list(*tests);
  }
  opt.threads = static_cast<unsigned>(int_flag(args, "threads", 0, 0, 1024));
  opt.oracle.horizon_periods = static_cast<int>(int_flag(
      args, "horizon-periods", opt.oracle.horizon_periods, 1, kMaxInt));
  opt.oracle.offset_trials = static_cast<int>(
      int_flag(args, "offset-trials", opt.oracle.offset_trials, 0, kMaxInt));
  opt.corpus_dir = flag_str(args, "corpus-dir");
  opt.out_path = flag_str(args, "out");
  if (const auto inject = flag_value(args, "inject")) {
    const auto mode = oracle::inject_mode_from_string(*inject);
    if (!mode) {
      std::fprintf(stderr,
                   "reconf_fuzz: --inject must be none|over-accept|"
                   "fast-slow\n");
      std::exit(2);
    }
    opt.inject = *mode;
  }
  opt.list = has_flag(args, "list");
  return opt;
}

/// The single derivation site mapping (master seed, index) to a fuzz
/// input: the family, per-index seed and taskset recorded in stats and
/// repros are by construction the ones adjudicated.
oracle::FamilyRequest request_for_index(const Options& opt,
                                        std::uint64_t index) {
  oracle::FamilyRequest request;
  request.family = opt.families[index % opt.families.size()];
  request.seed = gen::derive_seed(opt.seed, index);
  const int span = opt.tasks_hi - opt.tasks_lo + 1;
  request.num_tasks =
      opt.tasks_lo + static_cast<int>(gen::derive_seed(request.seed, 0x7A5C) %
                                      static_cast<std::uint64_t>(span));
  return request;
}

/// Builds the per-disagreement shrink predicate: the disagreement class
/// must still reproduce, through the same lineup and oracle settings.
oracle::ShrinkPredicate make_predicate(
    const oracle::Disagreement& d, const oracle::DifferentialHarness& harness,
    std::shared_ptr<analysis::AnalysisEngine> single) {
  const oracle::OracleConfig oracle_cfg = harness.oracle_config();
  switch (d.kind) {
    case oracle::DisagreementKind::kSufficiencyViolation: {
      const sim::SchedulerKind scheduler = d.scheduler;
      return [single, scheduler, oracle_cfg](const TaskSet& ts,
                                             Device device) {
        if (!single->run(ts, device).accepted()) return false;
        return oracle::probe_scheduler(ts, device, scheduler, oracle_cfg)
            .any_miss;
      };
    }
    case oracle::DisagreementKind::kFastSlowDivergence:
      return [&harness](const TaskSet& ts, Device device) {
        const auto report = harness.engine().run(ts, device);
        const auto decision = harness.engine().decide(ts, device);
        return decision.verdict != report.verdict ||
               decision.accepted_by != report.accepted_by();
      };
    case oracle::DisagreementKind::kSimInvariantViolation:
      return [oracle_cfg](const TaskSet& ts, Device device) {
        const auto evidence = oracle::probe(ts, device, oracle_cfg);
        return !evidence.nf.invariant_violations.empty() ||
               !evidence.fkf.invariant_violations.empty() ||
               evidence.dominance_violated;
      };
  }
  return [](const TaskSet&, Device) { return false; };
}

void print_matrix(const oracle::OracleStats& stats) {
  std::printf("\n%-22s %-16s %10s %9s %8s %10s\n", "family", "analyzer",
              "runs", "accepts", "viol", "pess_rate");
  for (const auto& [family, fs] : stats.families) {
    for (const auto& [id, cell] : fs.analyzers) {
      std::printf("%-22s %-16s %10llu %9llu %8llu %9.1f%%\n",
                  oracle::to_string(family), id.c_str(),
                  static_cast<unsigned long long>(cell.runs),
                  static_cast<unsigned long long>(cell.accepts),
                  static_cast<unsigned long long>(cell.violations),
                  100.0 * cell.pessimism_rate());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  analysis::AnalyzerRegistry registry;
  const std::string injected_id =
      oracle::populate_injected_registry(registry, opt.inject);

  if (opt.list) {
    std::printf("families:\n");
    for (const auto family : oracle::all_families()) {
      std::printf("  %s\n", oracle::to_string(family));
    }
    std::printf("analyzers:\n  %s\n", registry.id_list().c_str());
    return 0;
  }

  const oracle::DifferentialHarness harness(opt.tests, registry, opt.oracle);
  if (opt.inject != oracle::InjectMode::kNone) {
    std::fprintf(stderr, "reconf_fuzz: INJECTED FAULT '%s' is active\n",
                 injected_id.c_str());
  }

  Stopwatch clock;
  ThreadPool pool(opt.threads);
  std::mutex merge_mutex;
  oracle::OracleStats stats;
  std::vector<oracle::Disagreement> disagreements;

  pool.parallel_for(static_cast<std::size_t>(opt.count), [&](std::size_t i) {
    const oracle::FamilyRequest request =
        request_for_index(opt, static_cast<std::uint64_t>(i));
    const oracle::FuzzCase fuzz = oracle::make_fuzz_case(request);

    oracle::OracleStats local;
    std::vector<oracle::Disagreement> found;
    harness.adjudicate(fuzz.taskset, fuzz.device, request.family,
                       request.seed, local, &found);

    std::lock_guard<std::mutex> lock(merge_mutex);
    stats.merge(local);
    for (auto& d : found) {
      if (disagreements.size() < 64) disagreements.push_back(std::move(d));
    }
  });
  const double seconds = clock.seconds();

  std::fprintf(stderr,
               "reconf_fuzz: %llu tasksets in %.1fs (%.0f/s), "
               "violations=%llu divergences=%llu sim_invariant=%llu\n",
               static_cast<unsigned long long>(stats.tasksets), seconds,
               static_cast<double>(stats.tasksets) / std::max(seconds, 1e-9),
               static_cast<unsigned long long>(stats.sufficiency_violations),
               static_cast<unsigned long long>(stats.fast_slow_divergences),
               static_cast<unsigned long long>(
                   stats.sim_invariant_violations));

  // ---- shrink and emit repros ------------------------------------------
  std::ofstream corpus_file;
  if (!opt.corpus_dir.empty() && !disagreements.empty()) {
    const std::string path = opt.corpus_dir + "/shrunk_repros.ndjson";
    corpus_file.open(path, std::ios::app);
    if (!corpus_file) {
      std::fprintf(stderr, "reconf_fuzz: cannot write %s\n", path.c_str());
    }
  }

  constexpr std::size_t kMaxShrinks = 8;
  for (std::size_t i = 0;
       i < disagreements.size() && i < kMaxShrinks; ++i) {
    const oracle::Disagreement& d = disagreements[i];
    std::fprintf(stderr, "\n== %s [%s, family %s, seed 0x%llx]\n   %s\n",
                 oracle::to_string(d.kind), d.analyzer.c_str(),
                 oracle::to_string(d.family),
                 static_cast<unsigned long long>(d.seed), d.detail.c_str());

    std::shared_ptr<analysis::AnalysisEngine> single;
    if (d.kind == oracle::DisagreementKind::kSufficiencyViolation) {
      analysis::AnalysisRequest req;
      req.tests = {d.analyzer};
      single = std::make_shared<analysis::AnalysisEngine>(req, registry);
    }
    const auto outcome = oracle::shrink(
        d.taskset, d.device, make_predicate(d, harness, single));

    oracle::ReproCase repro;
    char id_buf[96];
    std::snprintf(id_buf, sizeof id_buf, "shrunk-%s-%s-0x%llx",
                  oracle::to_string(d.kind), oracle::to_string(d.family),
                  static_cast<unsigned long long>(d.seed));
    repro.id = id_buf;
    repro.kind = oracle::to_string(d.kind);
    repro.device = outcome.device;
    repro.taskset = outcome.taskset;
    repro.analyzer = d.analyzer;
    repro.scheduler = sim::to_string(d.scheduler);
    repro.family = oracle::to_string(d.family);
    repro.seed = d.seed;
    repro.note = d.detail;
    if (d.kind == oracle::DisagreementKind::kSufficiencyViolation) {
      // Regression contract for the corpus: nothing may accept this set
      // (the sim refutes it), so replay expects a rejection + a sync miss
      // whenever the sync pattern was the refuting one.
      repro.tests = {d.analyzer};
      if (injected_id == d.analyzer) {
        // An injected analyzer will not exist at replay time; pin the
        // default lineup instead — it must keep rejecting this witness.
        repro.tests.clear();
      }
      repro.expect_accept = false;
      // Probe with the *default* oracle settings, not this run's flags:
      // corpus_replay_test re-checks "sim":"miss" with OracleConfig{}, so
      // a miss only visible under a longer --horizon-periods must not be
      // recorded as an expectation it cannot reproduce.
      const auto evidence = oracle::probe_scheduler(
          outcome.taskset, outcome.device, d.scheduler,
          oracle::OracleConfig{});
      if (evidence.sync_miss) repro.expect_sync_miss = true;
    }

    const std::string line = oracle::format_repro_line(repro);
    std::fprintf(stderr, "   shrunk to %zu task(s), %llu predicate evals\n"
                 "   %s\n",
                 outcome.taskset.size(),
                 static_cast<unsigned long long>(outcome.evals),
                 line.c_str());
    if (corpus_file.is_open()) corpus_file << line << "\n";
  }
  if (disagreements.size() > kMaxShrinks) {
    std::fprintf(stderr, "reconf_fuzz: %zu further disagreements not shrunk\n",
                 disagreements.size() - kMaxShrinks);
  }

  print_matrix(stats);

  if (!opt.out_path.empty()) {
    const std::string json = oracle::stats_to_json(stats, opt.seed);
    if (opt.out_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(opt.out_path);
      if (!out) {
        std::fprintf(stderr, "reconf_fuzz: cannot write %s\n",
                     opt.out_path.c_str());
        return 2;
      }
      out << json;
      std::fprintf(stderr, "reconf_fuzz: wrote %s\n", opt.out_path.c_str());
    }
  }

  return stats.clean() ? 0 : 1;
}
