// Behaviour past the schedulability cliff: push system utilization from
// comfortably schedulable to heavy overload and watch (a) which bound test
// gives up first, (b) how the simulated miss counts and device occupancy
// respond, and (c) how EDF-NF's skipping keeps the fabric busier than
// EDF-FkF's blocking (the work-conservation story of Section 3, measured).
//
//   $ ./overload_study [seed]

#include <cstdio>
#include <cstdlib>

#include "reconf/reconf.hpp"

int main(int argc, char** argv) {
  using namespace reconf;

  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const Device fpga{100};
  // One resolved engine for the whole sweep; run-all so every column of the
  // table is filled even after the first test accepts.
  const analysis::AnalysisEngine engine{analysis::AnalysisRequest{}};

  std::printf(
      "%-6s | %-3s %-3s %-3s | %-22s | %-22s | %s\n", "U_S", "DP", "GN1",
      "GN2", "EDF-NF  (miss%, occ%)", "EDF-FkF (miss%, occ%)",
      "NF occupancy advantage");

  for (double us = 20.0; us <= 140.0; us += 10.0) {
    gen::GenRequest req;
    req.profile = gen::GenProfile::unconstrained(10);
    req.target_system_util = us;
    req.seed = gen::derive_seed(seed, static_cast<std::uint64_t>(us));
    const auto ts = gen::generate_with_retries(req);
    if (!ts) {
      std::printf("%-6.0f | (target unreachable)\n", us);
      continue;
    }

    const auto report = engine.run(*ts, fpga);
    const auto ok = [&report](const char* id) {
      const auto* r = report.report_for(id);
      return r != nullptr && r->accepted();
    };
    const bool dp = ok("dp");
    const bool gn1 = ok("gn1");
    const bool gn2 = ok("gn2");

    sim::SimConfig cfg;
    cfg.stop_on_first_miss = false;  // measure tardiness behaviour
    cfg.horizon_periods = 60;

    cfg.scheduler = sim::SchedulerKind::kEdfNf;
    const auto nf = sim::simulate(*ts, fpga, cfg);
    cfg.scheduler = sim::SchedulerKind::kEdfFkF;
    const auto fkf = sim::simulate(*ts, fpga, cfg);

    const auto miss_pct = [](const sim::SimResult& r) {
      return r.jobs_released == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(r.deadline_misses) /
                       static_cast<double>(r.jobs_released);
    };

    const double nf_occ = 100.0 * nf.average_occupancy(fpga.width);
    const double fkf_occ = 100.0 * fkf.average_occupancy(fpga.width);
    std::printf(
        "%-6.0f |  %c   %c   %c  | %6.1f%%   %6.1f%%      | %6.1f%%   "
        "%6.1f%%      | %+5.1f pts\n",
        ts->system_utilization(), dp ? 'Y' : '.', gn1 ? 'Y' : '.',
        gn2 ? 'Y' : '.', miss_pct(nf), nf_occ, miss_pct(fkf), fkf_occ,
        nf_occ - fkf_occ);
  }

  std::printf(
      "\nreading: bounds (Y) vanish well before simulated misses appear —\n"
      "the pessimism gap of Figs. 3-4; under overload EDF-NF sustains\n"
      "higher occupancy than EDF-FkF because it skips blocked wide jobs.\n");
  return 0;
}
