#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "exp/series.hpp"
#include "gen/generator.hpp"

namespace reconf::exp {

/// Generation retries per sample before run_sweep counts a failure.
inline constexpr int kGenAttempts = 32;

/// Configuration of one acceptance-ratio sweep (one figure of the paper):
/// generate `samples_per_bin` tasksets at each U_S target and measure the
/// fraction accepted by every series.
struct SweepConfig {
  gen::GenProfile profile;
  Device device{100};

  double us_min = 5.0;
  double us_max = 100.0;
  int bins = 20;
  int samples_per_bin = 2000;

  std::uint64_t seed = 0x20070326;  ///< IPDPS 2007 vintage default

  std::vector<SeriesSpec> series;

  unsigned threads = 0;  ///< 0 = hardware concurrency

  [[nodiscard]] double bin_target(int bin) const {
    return us_min + (us_max - us_min) *
                        (static_cast<double>(bin) + 0.5) /
                        static_cast<double>(bins);
  }
};

/// A bound series and a simulation whose miss on a sample refutes the
/// bound's acceptance of it. Every engine-backed series is paired with every
/// series that `refutes`; `sound` says whether every analyzer behind the
/// bound claims soundness for that simulation's scheduler
/// (analysis::Capabilities). A sound pair's count must be 0; an unsound
/// pair's count measures a caveat (GN1 holds for EDF-NF only).
struct RefutationPair {
  std::size_t bound = 0;       ///< series index of the engine-backed series
  std::size_t simulation = 0;  ///< series index of the refuting simulation
  bool sound = false;
};

struct BinResult {
  double us_target = 0.0;
  double us_achieved_mean = 0.0;
  std::uint64_t samples = 0;
  std::vector<std::uint64_t> accepted;  ///< one count per series
  /// One count per SweepResult::refutation_pairs entry: the samples the
  /// pair's bound accepted and its simulation missed.
  std::vector<std::uint64_t> refuted;

  [[nodiscard]] double ratio(std::size_t series) const {
    return samples == 0
               ? 0.0
               : static_cast<double>(accepted[series]) /
                     static_cast<double>(samples);
  }
};

struct SweepResult {
  std::vector<std::string> series_names;
  std::vector<RefutationPair> refutation_pairs;
  std::vector<BinResult> bins;
  std::uint64_t generation_failures = 0;
};

/// Runs the sweep. Every series sees the same samples, so each refutation
/// pair is counted per sample. Deterministic for a fixed config (including
/// seed), independent of `threads`.
[[nodiscard]] SweepResult run_sweep(const SweepConfig& config);

}  // namespace reconf::exp
