// bench_paper — the paper's Section 6 evidence as one committed record,
// PAPER_figures.json. It runs the acceptance-ratio sweeps of Figs. 3(a),
// 3(b), 4(a) and 4(b), each on its figure's generator profile and U_S
// range, with the paper's lineup (DP, GN1, GN2, ANY, SIM-EDF-NF,
// SIM-EDF-FkF) plus the series of every ablation and study that runs on
// that workload:
//   all four figures  DP-orig: DP with Danne & Platzner's real-valued
//                     alpha, i.e. without Lemma 1's integer-area "+1"
//   Figs. 3(a), 3(b)  the three other GN1 variants (beta normalized by D_i
//                     or D_k, RHS coefficient with or without the "+1"),
//                     GN2 with the printed '<=', EDF-US at zeta 0.25, 0.5
//                     and 0.75, EDF-NF with contiguous placement and
//                     first/best/worst fit, and partitioned EDF with
//                     first/best/worst-fit allocation (Danne RAW'06)
//
//   bench_paper [--out=PAPER_figures.json]
//
//   --out=PATH   the record to write whole (default PAPER_figures.json in
//                the current directory); the file is byte-identical to
//                what this tool prints on stdout; "-" prints to stdout only
//
// An unknown flag prints a usage line and exits 2. Nothing else is
// settable: 10,000 samples per bin (the paper's count), 20 bins, a
// 40-period simulation horizon, all cores.
//
// The record is {"schema", "samples_per_bin", "sim_horizon_periods",
// "sweeps"}. Each sweep holds its name, caption, generator profile, U_S
// range, series names, refutation pairs and generation failures, then one
// entry per bin: the target and achieved U_S, the sample count, the accepts
// per series and the refutations per pair. A pair joins a bound series with
// SIM-EDF-NF or SIM-EDF-FkF and counts the samples the bound accepted and
// the same sample's simulation missed; it is "sound" when every analyzer
// behind the bound claims soundness for that scheduler, and then its count
// must be 0. No timing is recorded: generation is bit-identical across
// platforms and a sweep does not depend on the thread count, so a run
// reproduces the committed file byte for byte. tests/paper_record_test.cpp
// checks the committed file and every Section 6 claim.
//
// Regenerate (116 s on 4 vCPUs, Release):
//   cmake --build build -j && ./build/bench_paper

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/options.hpp"
#include "common/flags.hpp"
#include "common/json_escape.hpp"
#include "exp/series.hpp"
#include "exp/sweep.hpp"
#include "gen/generator.hpp"
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

const Figure kFigures[] = {
    {"fig3a", "4 tasks, unconstrained C and A distributions",
     "unconstrained", gen::GenProfile::unconstrained(4), 5.0, 100.0, true},
    {"fig3b", "10 tasks, unconstrained C and A distributions",
     "unconstrained", gen::GenProfile::unconstrained(10), 5.0, 100.0, true},
    // The class's reachable U_S starts near 0.05·ΣA (ΣA in [500, 1000]);
    // sweeping below ~25 would only produce empty bins.
    {"fig4a", "10 spatially-heavy, temporally-light tasks",
     "spatially_heavy_time_light",
     gen::GenProfile::spatially_heavy_time_light(10), 25.0, 100.0, false},
    // The class's reachable U_S starts near 0.5·ΣA; bins below ~35 need
    // improbably small area draws and would stay empty.
    {"fig4b", "10 spatially-light, temporally-heavy tasks",
     "spatially_light_time_heavy",
     gen::GenProfile::spatially_light_time_heavy(10), 35.0, 100.0, false},
};

exp::SeriesSpec named(std::string name, exp::SeriesSpec series) {
  series.name = std::move(name);
  return series;
}

std::vector<exp::SeriesSpec> lineup(bool studies) {
  sim::SimConfig sim;
  sim.horizon_periods = kHorizonPeriods;
  std::vector<exp::SeriesSpec> out = exp::paper_series(sim);

  analysis::DpOptions original;
  original.alpha = analysis::DpOptions::Alpha::kOriginalReal;
  out.push_back(named("DP-orig", exp::dp_series(original)));
  if (!studies) return out;

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

std::string quoted(const std::string& text) {
  return "\"" + json_escape(text) + "\"";
}

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
  const auto count = [](std::uint64_t c) { return std::to_string(c); };
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
                "{\n  \"schema\": \"reconf-paper-figures/1\",\n"
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
  json += "\n  ]\n}\n";

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
