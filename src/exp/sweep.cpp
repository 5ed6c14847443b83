#include "exp/sweep.hpp"

#include <atomic>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace reconf::exp {

namespace {

/// Whether every analyzer behind `engine` is sound for `scheduler` — the
/// adjudication rule of the differential oracle, applied to a whole series.
bool sound_for_all(const analysis::AnalysisEngine& engine,
                   analysis::Scheduler scheduler) {
  if (engine.empty()) return false;
  for (std::size_t i = 0; i < engine.analyzer_count(); ++i) {
    if (!analysis::sound_for(engine.analyzer_at(i).capabilities(),
                             scheduler)) {
      return false;
    }
  }
  return true;
}

std::vector<RefutationPair> refutation_pairs(
    const std::vector<SeriesSpec>& series) {
  std::vector<RefutationPair> pairs;
  for (std::size_t b = 0; b < series.size(); ++b) {
    if (!series[b].engine) continue;
    for (std::size_t s = 0; s < series.size(); ++s) {
      if (!series[s].refutes) continue;
      pairs.push_back(
          {b, s, sound_for_all(*series[b].engine, *series[s].refutes)});
    }
  }
  return pairs;
}

}  // namespace

SweepResult run_sweep(const SweepConfig& config) {
  RECONF_EXPECTS(config.bins > 0);
  RECONF_EXPECTS(config.samples_per_bin > 0);
  RECONF_EXPECTS(!config.series.empty());
  RECONF_EXPECTS(config.device.valid());
  RECONF_EXPECTS(config.us_min > 0 && config.us_min <= config.us_max);

  const std::size_t num_series = config.series.size();
  const std::size_t num_bins = static_cast<std::size_t>(config.bins);
  const std::size_t per_bin = static_cast<std::size_t>(config.samples_per_bin);
  const std::size_t total = num_bins * per_bin;

  SweepResult result;
  result.refutation_pairs = refutation_pairs(config.series);
  const std::size_t num_pairs = result.refutation_pairs.size();

  // Flat atomic counters: acceptance per (bin, series), refutations per
  // (bin, pair), plus per-bin sample counts and achieved-U_S sums (in
  // micro-units to stay integral).
  std::vector<std::atomic<std::uint64_t>> accepted(num_bins * num_series);
  std::vector<std::atomic<std::uint64_t>> refuted(num_bins * num_pairs);
  std::vector<std::atomic<std::uint64_t>> samples(num_bins);
  std::vector<std::atomic<std::int64_t>> us_sum_micro(num_bins);
  std::atomic<std::uint64_t> failures{0};

  parallel_for(
      total,
      [&](std::size_t flat) {
        const std::size_t bin = flat / per_bin;

        gen::GenRequest request;
        request.profile = config.profile;
        request.target_system_util = config.bin_target(static_cast<int>(bin));
        request.seed = derive_seed(config.seed, flat);

        const auto ts = gen::generate_with_retries(request, kGenAttempts);
        if (!ts) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }

        samples[bin].fetch_add(1, std::memory_order_relaxed);
        us_sum_micro[bin].fetch_add(
            static_cast<std::int64_t>(ts->system_utilization() * 1e6),
            std::memory_order_relaxed);
        std::vector<bool> accepts(num_series);
        for (std::size_t s = 0; s < num_series; ++s) {
          accepts[s] = config.series[s].accept(*ts, config.device);
          if (accepts[s]) {
            accepted[bin * num_series + s].fetch_add(
                1, std::memory_order_relaxed);
          }
        }
        for (std::size_t p = 0; p < num_pairs; ++p) {
          const RefutationPair& pair = result.refutation_pairs[p];
          if (accepts[pair.bound] && !accepts[pair.simulation]) {
            refuted[bin * num_pairs + p].fetch_add(1,
                                                   std::memory_order_relaxed);
          }
        }
      },
      config.threads);

  result.generation_failures = failures.load();
  result.series_names.reserve(num_series);
  for (const SeriesSpec& s : config.series) result.series_names.push_back(s.name);

  result.bins.reserve(num_bins);
  for (std::size_t b = 0; b < num_bins; ++b) {
    BinResult bin;
    bin.us_target = config.bin_target(static_cast<int>(b));
    bin.samples = samples[b].load();
    bin.us_achieved_mean =
        bin.samples == 0
            ? 0.0
            : static_cast<double>(us_sum_micro[b].load()) / 1e6 /
                  static_cast<double>(bin.samples);
    bin.accepted.reserve(num_series);
    for (std::size_t s = 0; s < num_series; ++s) {
      bin.accepted.push_back(accepted[b * num_series + s].load());
    }
    bin.refuted.reserve(num_pairs);
    for (std::size_t p = 0; p < num_pairs; ++p) {
      bin.refuted.push_back(refuted[b * num_pairs + p].load());
    }
    result.bins.push_back(std::move(bin));
  }
  return result;
}

}  // namespace reconf::exp
