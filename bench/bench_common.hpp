#pragma once

// Shared plumbing for the figure/table reproduction benches.
//
// Environment knobs:
//   RECONF_SAMPLES  tasksets per utilization bin   (default 1000;
//                   the paper uses >= 10000 — set RECONF_SAMPLES=10000 for a
//                   full-fidelity, slower reproduction)
//   RECONF_BINS     number of U_S bins             (default 20)
//   RECONF_HORIZON_PERIODS  simulation horizon in max-periods (default 40)
//   RECONF_THREADS  worker threads                 (default: all cores)

#include <cstdio>
#include <string>

#include "common/env.hpp"
#include "exp/reporting.hpp"
#include "exp/series.hpp"
#include "exp/sweep.hpp"
#include "gen/generator.hpp"
#include "sim/config.hpp"

namespace reconf::benchx {

inline int samples_per_bin() {
  return static_cast<int>(env_int64("RECONF_SAMPLES", 1000));
}

inline int bins() { return static_cast<int>(env_int64("RECONF_BINS", 20)); }

inline int horizon_periods() {
  return static_cast<int>(env_int64("RECONF_HORIZON_PERIODS", 40));
}

inline unsigned threads() {
  return static_cast<unsigned>(env_int64("RECONF_THREADS", 0));
}

inline sim::SimConfig figure_sim_config() {
  sim::SimConfig cfg;
  cfg.horizon_periods = horizon_periods();
  return cfg;
}

/// Sweep configuration shared by the four figure benches.
inline exp::SweepConfig figure_config(gen::GenProfile profile, double us_min,
                                      double us_max) {
  exp::SweepConfig cfg;
  cfg.profile = profile;
  cfg.device = Device{100};
  cfg.us_min = us_min;
  cfg.us_max = us_max;
  cfg.bins = bins();
  cfg.samples_per_bin = samples_per_bin();
  cfg.threads = threads();
  cfg.series = exp::paper_series(figure_sim_config());
  return cfg;
}

/// Prints the standard figure output (header, table, chart) and drops a CSV
/// next to the binary.
inline void emit_figure(const std::string& name, const std::string& caption,
                        const exp::SweepResult& result) {
  std::printf("=== %s — %s ===\n", name.c_str(), caption.c_str());
  std::printf("samples/bin=%d bins=%d horizon_periods=%d (paper: >=10000 "
              "samples; RECONF_* knobs: bench/bench_common.hpp)\n\n",
              samples_per_bin(), bins(), horizon_periods());
  std::fputs(exp::format_table(result).c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(exp::ascii_chart(result).c_str(), stdout);
  const std::string csv = exp::write_csv_file(result, name + ".csv");
  if (!csv.empty()) std::printf("\nCSV written: %s\n", csv.c_str());
}

}  // namespace reconf::benchx
