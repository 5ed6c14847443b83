// Ablation: the two GN1 printed-theorem vs worked-example discrepancies
// (Gn1Options in analysis/options.hpp):
//   (1) beta normalization   W/D_i (published, default) vs W/D_k (BCL window)
//   (2) RHS area coefficient (A-A_k+1) (Lemma 3, default) vs (A-A_k) (listed
//       in Theorem 2).
// Reports acceptance of the four combinations, plus the soundness guard:
// every accepted taskset is simulated under EDF-NF; any miss would expose an
// unsound variant (the published W/D_i form is the theoretically suspect
// one — see Gn1Options::Normalization).

#include <cstdio>

#include "analysis/gn1.hpp"
#include "bench_common.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace reconf;
  using analysis::Gn1Options;

  struct Variant {
    const char* name;
    Gn1Options options;
  };
  Variant variants[4];
  variants[0] = {"GN1(pub: W/Di, +1)", {}};
  variants[1].name = "GN1(W/Dk, +1)";
  variants[1].options.normalization = Gn1Options::Normalization::kBclWindowDk;
  variants[2].name = "GN1(W/Di, no+1)";
  variants[2].options.rhs = Gn1Options::Rhs::kTheoremLiteral;
  variants[3].name = "GN1(W/Dk, no+1)";
  variants[3].options.normalization = Gn1Options::Normalization::kBclWindowDk;
  variants[3].options.rhs = Gn1Options::Rhs::kTheoremLiteral;

  std::printf("=== ablation: GN1 variants (beta normalization x RHS) ===\n\n");

  for (const int n : {4, 10}) {
    exp::SweepConfig cfg =
        benchx::figure_config(gen::GenProfile::unconstrained(n), 5.0, 60.0);
    cfg.series.clear();
    for (const Variant& v : variants) {
      cfg.series.push_back(exp::gn1_series(v.options));
      cfg.series.back().name = v.name;
    }
    // Soundness guard: accepted-by-any-variant but missing in EDF-NF sim.
    cfg.series.push_back(exp::sim_series(sim::SchedulerKind::kEdfNf,
                                         benchx::figure_sim_config()));

    const auto result = exp::run_sweep(cfg);
    std::printf("--- %d tasks, unconstrained ---\n", n);
    std::fputs(exp::format_table(result).c_str(), stdout);

    // Per-bin sanity: no GN1 variant may exceed the simulation upper bound.
    bool sound = true;
    for (const auto& bin : result.bins) {
      for (std::size_t s = 0; s + 1 < bin.accepted.size(); ++s) {
        sound = sound && bin.accepted[s] <= bin.accepted.back();
      }
    }
    std::printf("all variants within the EDF-NF simulation bound: %s\n\n",
                sound ? "yes" : "NO — unsound variant detected");
  }

  std::printf(
      "reading: W/Dk normalizes the interference to the analysis window as "
      "BCL does; the published W/Di is looser when D_i > D_k and tighter "
      "when D_i < D_k, which is why the variants are incomparable.\n");
  return 0;
}
