// runtime-scenarios: in-process rt::run_scenario over seeded scenario draws.
// The only workload without a codec: the admission gate, EDF dispatch and
// the prefetch port are all that run.

#include <unistd.h>

#include <cstdio>

#include "analysis/engine.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kScenarios = 1500;
constexpr int kArrivals = 40;

/// The replay-stable counters a rerun of the same scenario must reproduce.
bool same_outcome(const reconf::rt::RuntimeResult& a,
                  const reconf::rt::RuntimeResult& b) {
  return a.admitted == b.admitted && a.rejected == b.rejected &&
         a.releases == b.releases && a.completions == b.completions &&
         a.deadline_misses == b.deadline_misses &&
         a.dispatches == b.dispatches && a.preemptions == b.preemptions &&
         a.stall_ticks == b.stall_ticks && a.hidden_ticks == b.hidden_ticks &&
         a.invariant_violations.size() == b.invariant_violations.size();
}

}  // namespace

reconf::rt::RuntimeConfig runtime_config() {
  reconf::rt::RuntimeConfig config;
  config.prefetch = reconf::rt::PrefetchKind::kHybrid;
  config.check_invariants = true;
  config.record_trace = false;
  return config;
}

int runtime_probe(std::uint64_t seed) {
  const auto scenarios = make_scenarios(seed, 1, kArrivals);
  const reconf::rt::RuntimeResult r =
      reconf::rt::run_scenario(scenarios[0], runtime_config());
  std::printf("%s\n", r.summary_json().c_str());
  std::fflush(stdout);
  return 0;
}

void run_runtime_scenarios(const RunOptions& opt, RunResult& out) {
  const auto scenarios = make_scenarios(opt.seed, kScenarios, kArrivals);
  const reconf::analysis::AnalysisEngine engine(
      reconf::analysis::fast_any_request());

  // Reference pass (untimed): every gate decision is re-checked against
  // AnalysisEngine::decide on the exact candidate set, and the invariant
  // checker must stay clean.
  std::vector<reconf::rt::RuntimeResult> reference;
  std::uint64_t admitted = 0;
  std::uint64_t attempts = 0;
  for (const auto& s : scenarios) {
    reconf::rt::RuntimeConfig config = runtime_config();
    std::uint64_t gate_mismatches = 0;
    config.admission_probe = [&](const reconf::TaskSet& candidate,
                                 reconf::Device device,
                                 const reconf::svc::AdmissionDecision& d) {
      if (engine.decide(candidate, device).accepted() != d.admitted) {
        ++gate_mismatches;
      }
    };
    reference.push_back(reconf::rt::run_scenario(s, config));
    const auto& r = reference.back();
    out.tally.attempted += 1;
    out.tally.fail(gate_mismatches, "gate disagreed with decide()");
    out.tally.fail(r.invariant_violations.size(),
                   "invariant violations in " + s.name);
    admitted += r.admitted;
    attempts += r.admitted + r.rejected;
  }

  std::vector<double> setups;
  if (!opt.trace) {
    const std::string expect = reference[0].summary_json();
    for (int i = 0; i < kSetupLaunches; ++i) {
      const std::int64_t t0 = now_ns();
      Child child = spawn({opt.self_path, "--probe-runtime", "--seed",
                           std::to_string(opt.seed)},
                          false, true);
      std::string line;
      char c = 0;
      while (::read(child.stdout_fd, &c, 1) == 1 && c != '\n') line += c;
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      const int status = finish(child, false);
      out.tally.attempted += 1;
      if (status != 0 || line != expect) {
        out.tally.fail(1, "set-up probe disagreed with the reference run");
      }
    }
  }

  auto run_checked = [&](std::size_t i) {
    const auto r = reconf::rt::run_scenario(scenarios[i], runtime_config());
    out.tally.attempted += 1;
    if (!same_outcome(r, reference[i])) {
      out.tally.fail(1, "rerun of " + scenarios[i].name + " diverged");
    }
  };

  // Back-to-back passes over the scenario pool for the whole run: a closed
  // loop with one scenario outstanding, each due when the previous one
  // finished. A pass holds the same work every time; the rate is per pass.
  LoopStats loop;
  loop.backlog_max = 1;
  std::vector<double> pass_rates;
  std::size_t done = 0;
  const auto before = read_threads(::getpid());
  const std::int64_t begin = now_ns();
  const std::int64_t stop_at =
      begin + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t due = begin;
  do {
    const std::int64_t pass_start = due;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      loop.late_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
      run_checked(i);
      const std::int64_t end = now_ns();
      loop.latency_us.push_back(static_cast<double>(end - due) * 1e-3);
      due = end;
    }
    pass_rates.push_back(static_cast<double>(scenarios.size()) /
                         (static_cast<double>(due - pass_start) * 1e-9));
    done += scenarios.size();
  } while (now_ns() < stop_at);
  const double wall = static_cast<double>(now_ns() - begin) * 1e-9;
  const auto after = read_threads(::getpid());

  if (opt.trace) {
    add_serve_metrics(
        serve_load(before, after, wall, static_cast<double>(done)),
        out.metrics);
    add_client_metrics(loop, out.metrics);
    add_latency_metrics(loop, out.metrics);
    LayerInputs in;
    // The svc/analysis layers see the gate's own candidate sets.
    for (const auto& s : scenarios) {
      reconf::rt::RuntimeConfig config = runtime_config();
      config.admission_probe = [&](const reconf::TaskSet& candidate,
                                   reconf::Device,
                                   const reconf::svc::AdmissionDecision&) {
        if (in.lines.size() < kMaxLayerInputs) {
          in.lines.push_back(request_line(in.lines.size(), candidate));
        }
      };
      (void)reconf::rt::run_scenario(s, config);
    }
    in.scenarios = scenarios;
    run_layers(in, opt.out_dir + "/runtime-scenarios.trace.json",
               out.metrics, out.tally);
  } else {
    out.metrics.add("setup_s", median(setups), "s");
    out.metrics.add("req_per_s", interquartile_mean(pass_rates), "1/s");
    add_latency_metrics(loop, out.metrics);
    out.metrics.add("peak_rss_mb", peak_rss_mb(::getpid()), "MB");
    out.metrics.add("admit_rate",
                    static_cast<double>(admitted) /
                        static_cast<double>(std::max<std::uint64_t>(1, attempts)),
                    "ratio");
  }
}

}  // namespace perfbench
