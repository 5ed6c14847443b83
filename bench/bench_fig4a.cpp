// Figure 4(a): acceptance ratio vs total system utilization for 10
// spatially-heavy, temporally-light tasks (A ~ U[50,100], u ~ U(0.05,0.3);
// exact ranges are not published — see the gen::GenProfile presets).
//
// Paper-shape expectations (Section 6): "For spatially-heavy tasksets ...
// all three tests exhibit poor performance" — acceptance collapses at low
// U_S while the simulation bound stays high much longer (wide tasks make
// A_bnd = A(H) − A_max + 1 tiny).

#include "bench_common.hpp"

int main() {
  using namespace reconf;
  // The class's reachable U_S starts near 0.05·ΣA (ΣA in [500,1000]);
  // sweeping below ~25 would only produce empty bins.
  const auto cfg = benchx::figure_config(
      gen::GenProfile::spatially_heavy_time_light(10), 25.0, 100.0);
  const auto result = exp::run_sweep(cfg);
  benchx::emit_figure("fig4a", "10 spatially-heavy, temporally-light tasks",
                      result);
  return 0;
}
