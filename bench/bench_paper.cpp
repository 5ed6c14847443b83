// bench_paper — the paper's evidence as one committed record,
// PAPER_figures.json. It runs the acceptance-ratio sweeps of Figs. 3(a),
// 3(b), 4(a) and 4(b), each on its figure's generator profile and U_S
// range, with the paper's lineup (DP, GN1, GN2, ANY, SIM-EDF-NF,
// SIM-EDF-FkF) plus the series of every ablation and study that runs on
// that workload:
//   all four figures  DP-orig: DP with Danne & Platzner's real-valued
//                     alpha, i.e. without Lemma 1's integer-area "+1";
//                     last, DP-only, GN1-only and GN2-only: the sets that
//                     bound accepts and neither other bound does (Section
//                     6's case for applying the three together)
//   Figs. 3(a), 3(b)  the three other GN1 variants (beta normalized by D_i
//                     or D_k, RHS coefficient with or without the "+1"),
//                     GN2 with the printed '<=', EDF-US at zeta 0.25, 0.5
//                     and 0.75, EDF-NF with contiguous placement and
//                     first/best/worst fit, and partitioned EDF with
//                     first/best/worst-fit allocation (Danne RAW'06)
// Three studies outside the figures follow as sections of their own:
//   specialization  Section 1: on unit areas with A(H) = m, DP, GN1 (BCL
//                   window) and GN2 must agree with GFB, BCL and BAK2 on
//                   every set
//   sensitivity     the critical WCET scaling factor of DP, GN1, GN2, ANY
//                   and SIM-EDF-NF on three figure profiles: how much load
//                   the bounds leave to the simulation
//   overhead        Section 7's future work: ANY (EDF-FkF-sound bounds)
//                   on sets inflated by one placement per job, against
//                   simulations that charge every placement, per cost rho
//
//   bench_paper [--out=PAPER_figures.json]
//
//   --out=PATH   the record to write whole (default PAPER_figures.json in
//                the current directory); the file is byte-identical to
//                what this tool prints on stdout; "-" prints to stdout only
//
// An unknown flag prints a usage line and exits 2. Nothing else is
// settable: 10,000 samples per bin (the paper's count), 20 bins, a
// 40-period simulation horizon, all cores; each study keeps its own fixed
// draws and seeds.
//
// The record is {"schema", "samples_per_bin", "sim_horizon_periods",
// "sweeps", "specialization", "sensitivity", "overhead"}. Each sweep holds
// its name, caption, generator profile, U_S range, series names,
// refutation pairs and generation failures, then one entry per bin: the
// target and achieved U_S, the sample count, the accepts per series and
// the refutations per pair. A pair joins a bound series with SIM-EDF-NF or
// SIM-EDF-FkF and counts the samples the bound accepted and the same
// sample's simulation missed; it is "sound" when every analyzer behind the
// bound claims soundness for that scheduler, and then its count must be 0.
// A bare predicate (the only-series, partitioned EDF) has no engine and so
// no pair. Each study row holds its sample count and integer counts or
// sums, never ratios. No timing is recorded: generation is bit-identical
// across platforms and no count depends on the thread count, so a run
// reproduces the committed file byte for byte. tests/paper_record_test.cpp
// checks the committed file and every claim.
//
// Regenerate (95-100 s on 4 vCPUs, Release):
//   cmake --build build -j && ./build/bench_paper

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "analysis/options.hpp"
#include "analysis/overhead.hpp"
#include "analysis/sensitivity.hpp"
#include "common/flags.hpp"
#include "common/json_escape.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exp/series.hpp"
#include "exp/sweep.hpp"
#include "gen/generator.hpp"
#include "mp/mp_tests.hpp"
#include "partition/partitioned.hpp"
#include "placement/column_map.hpp"
#include "sim/config.hpp"

namespace {

using namespace reconf;

constexpr int kSamplesPerBin = 10000;
constexpr int kBins = 20;
constexpr int kHorizonPeriods = 40;

struct Figure {
  const char* name;
  const char* caption;
  const char* preset;
  gen::GenProfile profile;
  double us_min;
  double us_max;
  bool studies;  ///< carries the GN1/GN2 ablations and Section 7 studies
};

// The Fig. 4 presets cannot reach the low end of their ranges, and the
// record shows how far they fall short: fig4a's first bin (U_S 26.9) holds
// no sample, its second 338 and its third 9,463; fig4b's bins fill slowly,
// from 334 samples at U_S 36.6 to 9,996 at 65.9. Claims skip every bin
// under 1,000 samples.
const Figure kFigures[] = {
    {"fig3a", "4 tasks, unconstrained C and A distributions",
     "unconstrained", gen::GenProfile::unconstrained(4), 5.0, 100.0, true},
    {"fig3b", "10 tasks, unconstrained C and A distributions",
     "unconstrained", gen::GenProfile::unconstrained(10), 5.0, 100.0, true},
    {"fig4a", "10 spatially-heavy, temporally-light tasks",
     "spatially_heavy_time_light",
     gen::GenProfile::spatially_heavy_time_light(10), 25.0, 100.0, false},
    {"fig4b", "10 spatially-light, temporally-heavy tasks",
     "spatially_light_time_heavy",
     gen::GenProfile::spatially_light_time_heavy(10), 35.0, 100.0, false},
};

const Figure& figure(const std::string& name) {
  for (const Figure& f : kFigures) {
    if (name == f.name) return f;
  }
  throw std::out_of_range("no figure " + name);
}

exp::SeriesSpec named(std::string name, exp::SeriesSpec series) {
  series.name = std::move(name);
  return series;
}

/// The GN1/GN2 ablations and Section 7 studies of Figs. 3(a) and 3(b).
std::vector<exp::SeriesSpec> study_series(const sim::SimConfig& sim) {
  std::vector<exp::SeriesSpec> out;
  using analysis::Gn1Options;
  struct Gn1Variant {
    const char* name;
    Gn1Options::Normalization normalization;
    Gn1Options::Rhs rhs;
  };
  for (const Gn1Variant& v :
       {Gn1Variant{"GN1(W/Dk,+1)", Gn1Options::Normalization::kBclWindowDk,
                   Gn1Options::Rhs::kLemma3PlusOne},
        Gn1Variant{"GN1(W/Di,no+1)", Gn1Options::Normalization::kPublishedDi,
                   Gn1Options::Rhs::kTheoremLiteral},
        Gn1Variant{"GN1(W/Dk,no+1)", Gn1Options::Normalization::kBclWindowDk,
                   Gn1Options::Rhs::kTheoremLiteral}}) {
    out.push_back(named(v.name, exp::gn1_series({v.normalization, v.rhs})));
  }

  analysis::Gn2Options printed;
  printed.non_strict_condition2 = true;
  out.push_back(named("GN2(printed<=)", exp::gn2_series(printed)));

  for (const auto& [name, zeta] : {std::pair{"EDF-US[0.25]", 0.25},
                                   std::pair{"EDF-US[0.5]", 0.5},
                                   std::pair{"EDF-US[0.75]", 0.75}}) {
    sim::SimConfig us = sim;
    us.edf_us_threshold = zeta;
    out.push_back(named(name, exp::sim_series(sim::SchedulerKind::kEdfUs, us)));
  }

  for (const auto strategy : {placement::Strategy::kFirstFit,
                              placement::Strategy::kBestFit,
                              placement::Strategy::kWorstFit}) {
    sim::SimConfig placed = sim;
    placed.placement = sim::PlacementMode::kContiguousNoMigration;
    placed.strategy = strategy;
    out.push_back(
        named(std::string("NF-contig-") + placement::to_string(strategy),
              exp::sim_series(sim::SchedulerKind::kEdfNf, placed)));
  }

  for (const auto heuristic : {partition::AllocHeuristic::kFirstFit,
                               partition::AllocHeuristic::kBestFit,
                               partition::AllocHeuristic::kWorstFit}) {
    partition::PartitionConfig config;
    config.heuristic = heuristic;
    out.push_back({std::string("PART-") + partition::to_string(heuristic),
                   [config](const TaskSet& ts, Device dev) {
                     return partition::partitioned_schedulable(ts, dev,
                                                               config);
                   },
                   nullptr, std::nullopt});
  }
  return out;
}

std::vector<exp::SeriesSpec> lineup(bool studies) {
  sim::SimConfig sim;
  sim.horizon_periods = kHorizonPeriods;
  std::vector<exp::SeriesSpec> out = exp::paper_series(sim);

  analysis::DpOptions original;
  original.alpha = analysis::DpOptions::Alpha::kOriginalReal;
  out.push_back(named("DP-orig", exp::dp_series(original)));
  if (studies) {
    for (exp::SeriesSpec& s : study_series(sim)) out.push_back(std::move(s));
  }

  const std::vector<exp::SeriesSpec> bounds = {
      exp::dp_series(), exp::gn1_series(), exp::gn2_series()};
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    out.push_back({bounds[k].name + "-only",
                   [bounds, k](const TaskSet& ts, Device dev) {
                     for (std::size_t j = 0; j < bounds.size(); ++j) {
                       if (bounds[j].accept(ts, dev) != (j == k)) return false;
                     }
                     return true;
                   },
                   nullptr, std::nullopt});
  }
  return out;
}

std::string quoted(const std::string& text) {
  return "\"" + json_escape(text) + "\"";
}

std::string count(std::uint64_t c) { return std::to_string(c); }

/// `[a, b, ...]`, each item formatted by `format`.
template <class T, class Format>
std::string json_list(const std::vector<T>& items, Format format) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + format(items[i]);
  }
  return out + "]";
}

std::string sweep_json(const Figure& figure, const exp::SweepResult& result) {
  const gen::GenProfile& p = figure.profile;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {\n      \"name\": \"%s\",\n      \"caption\": \"%s\",\n"
                "      \"profile\": {\"preset\": \"%s\", \"tasks\": %d, "
                "\"area\": [%lld, %lld], \"util\": [%g, %g], "
                "\"period\": [%g, %g]},\n"
                "      \"us_range\": [%g, %g],\n",
                figure.name, figure.caption, figure.preset, p.num_tasks,
                static_cast<long long>(p.area_min),
                static_cast<long long>(p.area_max), p.util_min, p.util_max,
                p.period_min, p.period_max, figure.us_min, figure.us_max);
  std::string json = buf;
  json += "      \"series\": " + json_list(result.series_names, quoted) +
          ",\n      \"refutation_pairs\": [";
  for (std::size_t i = 0; i < result.refutation_pairs.size(); ++i) {
    const exp::RefutationPair& pair = result.refutation_pairs[i];
    json += (i == 0 ? "\n" : ",\n") + std::string("        {\"bound\": ") +
            quoted(result.series_names[pair.bound]) + ", \"simulation\": " +
            quoted(result.series_names[pair.simulation]) +
            (pair.sound ? ", \"sound\": true}" : ", \"sound\": false}");
  }
  json += "\n      ],\n      \"generation_failures\": " +
          std::to_string(result.generation_failures) + ",\n      \"bins\": [";
  for (std::size_t b = 0; b < result.bins.size(); ++b) {
    const exp::BinResult& bin = result.bins[b];
    std::snprintf(buf, sizeof buf,
                  "%s        {\"us_target\": %.3f, \"us_achieved\": %.4f, "
                  "\"samples\": %llu, ",
                  b == 0 ? "\n" : ",\n", bin.us_target, bin.us_achieved_mean,
                  static_cast<unsigned long long>(bin.samples));
    json += buf;
    json += "\"accepted\": " + json_list(bin.accepted, count) +
            ", \"refuted\": " + json_list(bin.refuted, count) + "}";
  }
  return json + "\n      ]\n    }";
}

/// What tally() returns: the sets made and one sum per slot.
struct Tally {
  std::uint64_t samples = 0;
  std::vector<std::uint64_t> sums;

  /// The sums of slots [from, to).
  [[nodiscard]] std::vector<std::uint64_t> slots(std::size_t from,
                                                 std::size_t to) const {
    return {sums.begin() + static_cast<std::ptrdiff_t>(from),
            sums.begin() + static_cast<std::ptrdiff_t>(to)};
  }
};

/// A study's tallies over `draws` generated sets, set i from `request(i)`
/// (a set the generator cannot make is skipped): the sets made and, per
/// slot, the sum of what `score` gives each set. All cores; like a sweep,
/// the result does not depend on the thread count.
template <class Request, class Score>
Tally tally(int draws, std::size_t width, const Request& request,
            const Score& score) {
  std::atomic<std::uint64_t> samples{0};
  std::vector<std::atomic<std::uint64_t>> sums(width);
  parallel_for(static_cast<std::size_t>(draws), [&](std::size_t i) {
    const std::optional<TaskSet> ts = gen::generate_with_retries(request(i));
    if (!ts) return;
    samples.fetch_add(1, std::memory_order_relaxed);
    const std::vector<std::uint64_t> values = score(*ts);
    for (std::size_t k = 0; k < width; ++k) {
      sums[k].fetch_add(values[k], std::memory_order_relaxed);
    }
  });
  Tally out{samples.load(), {}};
  for (const auto& s : sums) out.sums.push_back(s.load());
  return out;
}

/// One study section: its caption, the draws behind each row, the names
/// its counts follow (under `names_key`) and one row per line.
std::string section_json(const std::string& name, const std::string& caption,
                         int draws, const std::string& names_key,
                         const std::vector<std::string>& names,
                         const std::vector<std::string>& rows) {
  std::string json = "  " + quoted(name) + ": {\n    \"caption\": " +
                     quoted(caption) + ",\n    \"draws\": " +
                     std::to_string(draws) + ",\n    " + quoted(names_key) +
                     ": " + json_list(names, quoted) + ",\n    \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += (i == 0 ? "\n      " : ",\n      ") + rows[i];
  }
  return json + "\n    ]\n  }";
}

/// Section 1: with unit areas and A(H) = m, DP, GN1 with the BCL window and
/// GN2 reduce to GFB, BCL and BAK2 on m processors.
std::string specialization_json() {
  constexpr int kDraws = 4000;
  analysis::Gn1Options bcl_window;
  bcl_window.normalization = analysis::Gn1Options::Normalization::kBclWindowDk;
  std::vector<std::string> rows;
  for (const int m : {2, 4, 8, 16}) {
    for (const int n : {4, 12}) {
      gen::GenProfile profile = gen::GenProfile::unconstrained(n);
      profile.area_min = 1;
      profile.area_max = 1;
      const double max_ut = std::min<double>(n, m);
      const auto request = [&](std::size_t i) {
        gen::GenRequest req;
        req.profile = profile;
        req.target_system_util =
            0.2 * max_ut +
            0.75 * max_ut * (static_cast<double>(i % 32) / 32.0);
        req.target_tolerance = 0.05;
        req.seed = derive_seed(
            0xC805C + static_cast<std::uint64_t>(m * 131 + n), i);
        return req;
      };
      const Tally t = tally(
          kDraws, 6, request,
          [&](const TaskSet& ts) -> std::vector<std::uint64_t> {
            const Device fabric{m};
            const mp::MpPlatform cpu{m};
            const bool gfb = mp::gfb_test(ts, cpu).accepted();
            const bool bcl = mp::bcl_test(ts, cpu).accepted();
            const bool bak2 = mp::bak2_test(ts, cpu).accepted();
            return {analysis::dp_test(ts, fabric).accepted() == gfb,
                    analysis::gn1_test(ts, fabric, bcl_window).accepted() ==
                        bcl,
                    analysis::gn2_test(ts, fabric).accepted() == bak2, gfb,
                    bcl, bak2};
          });
      rows.push_back("{\"m\": " + std::to_string(m) +
                     ", \"n\": " + std::to_string(n) +
                     ", \"samples\": " + count(t.samples) +
                     ", \"agree\": " + json_list(t.slots(0, 3), count) +
                     ", \"mp_accepted\": " + json_list(t.slots(3, 6), count) +
                     "}");
    }
  }
  return section_json(
      "specialization",
      "unit-area tasks on A(H) = m columns against m processors, U_S from "
      "0.2 to 0.93 of min(n, m); agree counts the samples on which each "
      "pair gives one verdict, mp_accepted the GFB, BCL and BAK2 accepts",
      kDraws, "pairs", {"DP=GFB", "GN1(W/Dk,+1)=BCL", "GN2=BAK2"}, rows);
}

/// Pessimism as capacity: per criterion, the largest uniform WCET scaling
/// it still accepts, summed in permille over the sets of a figure profile
/// at one U_S.
std::string sensitivity_json() {
  constexpr int kDraws = 501;
  constexpr int kMaxPermille = 8000;
  sim::SimConfig sim;
  sim.horizon_periods = kHorizonPeriods;
  std::vector<exp::SeriesSpec> criteria = exp::paper_series(sim);
  criteria.pop_back();  // SIM-EDF-FkF
  std::vector<std::string> names;
  for (const exp::SeriesSpec& c : criteria) names.push_back(c.name);

  std::vector<std::string> rows;
  for (const auto& [name, us] : {std::pair{"fig3a", 20}, std::pair{"fig3b", 20},
                                 std::pair{"fig4b", 60}}) {
    const Figure& f = figure(name);
    const Tally t = tally(
        kDraws, criteria.size(),
        [&](std::size_t i) {
          gen::GenRequest req;
          req.profile = f.profile;
          req.target_system_util = us;
          req.seed =
              derive_seed(0x5E45, i * 131 + static_cast<std::uint64_t>(us));
          return req;
        },
        [&](const TaskSet& ts) {
          std::vector<std::uint64_t> permille;
          for (const exp::SeriesSpec& c : criteria) {
            permille.push_back(static_cast<std::uint64_t>(
                analysis::critical_wcet_scale_permille(ts, Device{100},
                                                       c.accept, kMaxPermille)
                    .value_or(0)));
          }
          return permille;
        });
    rows.push_back("{\"profile\": " + quoted(f.name) +
                   ", \"us\": " + std::to_string(us) +
                   ", \"samples\": " + count(t.samples) +
                   ", \"permille_sums\": " + json_list(t.sums, count) + "}");
  }
  return section_json(
      "sensitivity",
      "the critical WCET scaling factor (the largest uniform WCET inflation "
      "a criterion still accepts) in permille, capped at " +
          std::to_string(kMaxPermille) +
          " and 0 when nothing is accepted, summed over the samples of a "
          "figure profile at one U_S",
      kDraws, "criteria", names, rows);
}

/// Section 7's future work: reconfiguration overhead folded into execution
/// times as one placement per job (C' = C + rho*A), analysed with the
/// EDF-FkF-sound bounds, against simulations that charge rho per column at
/// every placement, re-placements after a preemption included. The
/// optimism count is the sets the analysis accepted and EDF-FkF missed.
std::string overhead_json() {
  constexpr int kDraws = 1000;
  analysis::AnalysisRequest fkf = analysis::fast_any_request();
  fkf.scheduler = analysis::Scheduler::kEdfFkF;
  const analysis::AnalysisEngine any_fkf{std::move(fkf)};
  const Figure& f = figure("fig3b");

  std::vector<std::string> rows;
  for (const Ticks rho : {0LL, 1LL, 2LL, 5LL, 10LL, 20LL}) {
    sim::SimConfig charged;
    charged.horizon_periods = kHorizonPeriods;
    charged.reconf.per_column = rho;
    const exp::SeriesSpec nf =
        exp::sim_series(sim::SchedulerKind::kEdfNf, charged);
    const exp::SeriesSpec fkf_sim =
        exp::sim_series(sim::SchedulerKind::kEdfFkF, charged);
    analysis::OverheadModel model;
    model.cost.per_column = rho;
    const Tally t = tally(
        kDraws, 4,
        [&](std::size_t i) {
          gen::GenRequest req;
          req.profile = f.profile;
          req.target_system_util =
              10.0 + 30.0 * (static_cast<double>(i % 16) / 16.0);
          req.seed =
              derive_seed(0x0E44EAD ^ static_cast<std::uint64_t>(rho), i);
          return req;
        },
        [&](const TaskSet& ts) -> std::vector<std::uint64_t> {
          const Device dev{100};
          const bool any =
              any_fkf.decide(analysis::inflate_for_overhead(ts, model), dev)
                  .accepted();
          const bool fkf_ok = fkf_sim.accept(ts, dev);
          return {any, nf.accept(ts, dev), fkf_ok, any && !fkf_ok};
        });
    rows.push_back("{\"rho\": " + std::to_string(rho) +
                   ", \"samples\": " + count(t.samples) +
                   ", \"accepted\": " + json_list(t.slots(0, 3), count) +
                   ", \"optimism\": " + count(t.sums[3]) + "}");
  }
  return section_json(
      "overhead",
      "rho ticks per column and placement on fig3b's profile at U_S 10 to "
      "38: the EDF-FkF-sound bounds on sets inflated by one placement per "
      "job, against simulations charging every placement; optimism counts "
      "the sets that analysis accepted and SIM-EDF-FkF missed",
      kDraws, "series", {"ANY-FkF(k=1)", "SIM-EDF-NF", "SIM-EDF-FkF"}, rows);
}

int usage() {
  std::fprintf(stderr, "usage: bench_paper [--out=PAPER_figures.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  static const char* const known[] = {"--out="};
  for (const std::string& a : args) {
    if (!is_known_flag(a, known)) {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return usage();
    }
  }
  const std::string out_path =
      flag_value(args, "out").value_or("PAPER_figures.json");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\n  \"schema\": \"reconf-paper-figures/2\",\n"
                "  \"samples_per_bin\": %d,\n"
                "  \"sim_horizon_periods\": %d,\n  \"sweeps\": [\n",
                kSamplesPerBin, kHorizonPeriods);
  std::string json = buf;
  for (const Figure& figure : kFigures) {
    if (&figure != kFigures) json += ",\n";
    std::fprintf(stderr, "bench_paper: %s...\n", figure.name);
    exp::SweepConfig config;
    config.profile = figure.profile;
    config.us_min = figure.us_min;
    config.us_max = figure.us_max;
    config.bins = kBins;
    config.samples_per_bin = kSamplesPerBin;
    config.series = lineup(figure.studies);
    json += sweep_json(figure, exp::run_sweep(config));
  }
  std::fprintf(stderr, "bench_paper: studies...\n");
  json += "\n  ],\n" + specialization_json() + ",\n" + sensitivity_json() +
          ",\n" + overhead_json() + "\n}\n";

  if (out_path != "-") {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << json;
    std::fprintf(stderr, "bench_paper: wrote %s\n", out_path.c_str());
  }
  std::fputs(json.c_str(), stdout);
  return 0;
}
