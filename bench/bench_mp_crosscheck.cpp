// Specialization check at population scale (paper Section 1): with unit
// areas and A(H) = m the FPGA bounds must coincide with their
// multiprocessor ancestors (DP=GFB, GN1[BCL-window]=BCL, GN2=BAK2).
// The unit tests verify this per taskset; this bench reports agreement
// rates over large sweeps plus the acceptance profile of the mp tests
// themselves (Baker's classic incomparability results, reproduced).

#include <atomic>
#include <cstdio>

#include "analysis/dp.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "common/thread_pool.hpp"
#include "gen/generator.hpp"
#include "gen/rng.hpp"
#include "mp/mp_tests.hpp"

int main() {
  using namespace reconf;

  const int samples = 4000;

  std::printf("=== multiprocessor specialization crosscheck ===\n\n");
  std::printf("%-4s %-4s | %-10s %-10s %-10s | %-8s %-8s %-8s\n", "m", "n",
              "DP=GFB", "GN1=BCL", "GN2=BAK2", "GFB%%", "BCL%%", "BAK2%%");

  for (const int m : {2, 4, 8, 16}) {
    for (const int n : {4, 12}) {
      std::atomic<std::uint64_t> agree_dp{0};
      std::atomic<std::uint64_t> agree_gn1{0};
      std::atomic<std::uint64_t> agree_gn2{0};
      std::atomic<std::uint64_t> acc_gfb{0};
      std::atomic<std::uint64_t> acc_bcl{0};
      std::atomic<std::uint64_t> acc_bak2{0};
      std::atomic<std::uint64_t> count{0};

      parallel_for(
          static_cast<std::size_t>(samples),
          [&](std::size_t i) {
            gen::GenRequest req;
            gen::GenProfile p = gen::GenProfile::unconstrained(n);
            p.area_min = 1;
            p.area_max = 1;
            req.profile = p;
            const double max_ut = std::min(static_cast<double>(n),
                                           static_cast<double>(m));
            req.target_system_util =
                0.2 * max_ut +
                0.75 * max_ut * (static_cast<double>(i % 32) / 32.0);
            req.target_tolerance = 0.05;
            req.seed = gen::derive_seed(
                0xC805C + static_cast<std::uint64_t>(m * 131 + n), i);
            const auto ts = gen::generate_with_retries(req);
            if (!ts) return;
            count.fetch_add(1, std::memory_order_relaxed);

            const Device dev{m};
            const mp::MpPlatform cpu{m};

            const bool dp = analysis::dp_test(*ts, dev).accepted();
            const bool gfb = mp::gfb_test(*ts, cpu).accepted();
            analysis::Gn1Options bclw;
            bclw.normalization =
                analysis::Gn1Options::Normalization::kBclWindowDk;
            const bool gn1 = analysis::gn1_test(*ts, dev, bclw).accepted();
            const bool bcl = mp::bcl_test(*ts, cpu).accepted();
            const bool gn2 = analysis::gn2_test(*ts, dev).accepted();
            const bool bak2 = mp::bak2_test(*ts, cpu).accepted();

            if (dp == gfb) agree_dp.fetch_add(1, std::memory_order_relaxed);
            if (gn1 == bcl) agree_gn1.fetch_add(1, std::memory_order_relaxed);
            if (gn2 == bak2)
              agree_gn2.fetch_add(1, std::memory_order_relaxed);
            if (gfb) acc_gfb.fetch_add(1, std::memory_order_relaxed);
            if (bcl) acc_bcl.fetch_add(1, std::memory_order_relaxed);
            if (bak2) acc_bak2.fetch_add(1, std::memory_order_relaxed);
          });

      const double total = static_cast<double>(count.load());
      const auto pct = [total](const std::atomic<std::uint64_t>& v) {
        return total == 0 ? 0.0
                          : 100.0 * static_cast<double>(v.load()) / total;
      };
      std::printf("%-4d %-4d | %9.2f%% %9.2f%% %9.2f%% | %7.2f%% %7.2f%% "
                  "%7.2f%%\n",
                  m, n, pct(agree_dp), pct(agree_gn1), pct(agree_gn2),
                  pct(acc_gfb), pct(acc_bcl), pct(acc_bak2));
    }
  }

  std::printf("\nreading: agreement must be 100%% in every row — anything "
              "less is a bug in one of the two implementations. The GFB/BCL/"
              "BAK2 acceptance columns reproduce Baker's incomparability "
              "landscape on the side.\n");
  return 0;
}
