// Figure 4(b): acceptance ratio vs total system utilization for 10
// spatially-light, temporally-heavy tasks (A ~ U[1,30], u ~ U(0.5,1);
// exact ranges are not published — see the gen::GenProfile presets).
//
// Paper-shape expectations (Section 6): "For temporally-heavy tasks, GN1
// performs best while DP performs worst" — DP's bound degrades with
// 1 − U_T(τ_k) when every u_k is large, while GN1's per-task area bound
// (A(H) − A_k + 1) stays generous for narrow tasks.

#include "bench_common.hpp"

int main() {
  using namespace reconf;
  // The class's reachable U_S starts near 0.5·ΣA; bins below ~35 need
  // improbably small area draws and would stay empty.
  const auto cfg = benchx::figure_config(
      gen::GenProfile::spatially_light_time_heavy(10), 35.0, 100.0);
  const auto result = exp::run_sweep(cfg);
  benchx::emit_figure("fig4b", "10 spatially-light, temporally-heavy tasks",
                      result);
  return 0;
}
