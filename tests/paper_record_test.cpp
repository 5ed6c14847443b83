// Checks the committed PAPER_figures.json, which bench_paper writes whole:
// the four figure sweeps at 10,000 samples per bin, no sound bound refuted
// by the same sample's simulation, and every Section 6 claim, each stated
// once below as it stands after the data. README's "Reproducing the paper"
// quotes them.

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "math/stats.hpp"
#include "svc/json.hpp"

#ifndef RECONF_PAPER_FIGURES
#error "RECONF_PAPER_FIGURES must point at the committed PAPER_figures.json"
#endif

namespace reconf {
namespace {

using svc::json::Value;

/// Bins with fewer samples are too thin to judge a claim on.
constexpr long long kMinSamples = 1000;

const Value& record() {
  static const Value parsed = [] {
    std::ifstream in(RECONF_PAPER_FIGURES);
    std::ostringstream text;
    text << in.rdbuf();
    return svc::json::parse(text.str());
  }();
  return parsed;
}

/// The member `key` of object `v`; a record without it fails the test.
const Value& at(const Value& v, const std::string& key) {
  const Value* member = v.find(key);
  if (member == nullptr) throw std::out_of_range("no member " + key);
  return *member;
}

const std::vector<Value>& sweeps() { return at(record(), "sweeps").items; }

const Value& sweep(const std::string& name) {
  for (const Value& s : sweeps()) {
    if (at(s, "name").text == name) return s;
  }
  throw std::out_of_range("no sweep " + name);
}

std::size_t series_index(const Value& sweep, const std::string& name) {
  const std::vector<Value>& names = at(sweep, "series").items;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].text == name) return i;
  }
  throw std::out_of_range(at(sweep, "name").text + " has no series " + name);
}

std::uint64_t count(const Value& list, std::size_t i) {
  return static_cast<std::uint64_t>(list.items.at(i).integer);
}

/// A Section 6 claim: over the bins of `sweeps` whose target U_S lies in
/// [us_from, us_to] and that hold at least kMinSamples samples, every
/// series in `more` accepts at least `factor` times as much as every series
/// in `less`. A bin contradicts it only when the `more` series' 95% Wilson
/// upper bound lies below `factor` times the `less` series' lower bound.
struct Claim {
  const char* text;
  std::vector<std::string> sweeps;
  std::vector<std::string> more;
  std::vector<std::string> less;
  double factor = 1.0;
  double us_from = 0.0;
  double us_to = 100.0;
};

const std::vector<Claim>& claims() {
  static const std::vector<Claim> all = {
      {"Fig. 3(a), 4 tasks: GN2 accepts the most of the three bounds up to "
       "U_S 21.6",
       {"fig3a"}, {"GN2"}, {"DP", "GN1"}, 1.0, 0.0, 22.0},
      {"Fig. 3(a), 4 tasks: GN1 accepts the most of the three bounds from "
       "U_S 26.4 up",
       {"fig3a"}, {"GN1"}, {"DP", "GN2"}, 1.0, 26.0, 100.0},
      {"Fig. 3(b), 10 tasks: DP performs best",
       {"fig3b"}, {"DP"}, {"GN1", "GN2"}},
      {"Fig. 4(a), spatially-heavy tasks: all three tests perform poorly — "
       "the EDF-FkF simulation accepts at least 100 times as many sets as "
       "ANY",
       {"fig4a"}, {"SIM-EDF-FkF"}, {"ANY"}, 100.0},
      {"Fig. 4(b), temporally-heavy tasks: GN1 performs best",
       {"fig4b"}, {"GN1"}, {"DP", "GN2"}},
      {"Fig. 4(b), temporally-heavy tasks: DP performs worst",
       {"fig4b"}, {"GN1", "GN2"}, {"DP"}},
      {"Lemma 1: the integer alpha never accepts less than the original "
       "alpha",
       {"fig3a", "fig3b", "fig4a", "fig4b"}, {"DP"}, {"DP-orig"}},
      {"Contiguous placement never accepts more than unrestricted migration",
       {"fig3a", "fig3b"},
       {"SIM-EDF-NF"},
       {"NF-contig-first-fit", "NF-contig-best-fit", "NF-contig-worst-fit"}},
      {"EDF-US never accepts more than plain EDF-NF",
       {"fig3a", "fig3b"},
       {"SIM-EDF-NF"},
       {"EDF-US[0.25]", "EDF-US[0.5]", "EDF-US[0.75]"}},
      {"Partitioned EDF accepts at least as much as ANY, the union of the "
       "global bounds",
       {"fig3a", "fig3b"},
       {"PART-first-fit", "PART-best-fit", "PART-worst-fit"},
       {"ANY"}},
  };
  return all;
}

/// The `more` series' 95% Wilson upper bound lies below `factor` times the
/// `less` series' lower bound.
bool contradicted(std::uint64_t more, std::uint64_t less, std::uint64_t n,
                  double factor) {
  return math::wilson_interval(more, n).hi <
         factor * math::wilson_interval(less, n).lo;
}

TEST(PaperRecord, HoldsTheFourFiguresAtTenThousandSamplesPerBin) {
  EXPECT_EQ(at(record(), "schema").text, "reconf-paper-figures/1");
  const long long per_bin = at(record(), "samples_per_bin").integer;
  EXPECT_EQ(per_bin, 10000);

  const std::vector<std::string> names = {"fig3a", "fig3b", "fig4a", "fig4b"};
  const std::vector<std::size_t> widths = {20, 20, 7, 7};
  ASSERT_EQ(sweeps().size(), names.size());
  for (std::size_t f = 0; f < names.size(); ++f) {
    const Value& s = sweeps()[f];
    EXPECT_EQ(at(s, "name").text, names[f]);
    const std::size_t num_series = at(s, "series").items.size();
    EXPECT_EQ(num_series, widths[f]) << names[f];
    const std::size_t num_pairs = at(s, "refutation_pairs").items.size();

    const std::vector<Value>& bins = at(s, "bins").items;
    EXPECT_EQ(bins.size(), 20u);
    long long drawn = at(s, "generation_failures").integer;
    for (const Value& bin : bins) {
      const long long n = at(bin, "samples").integer;
      drawn += n;
      EXPECT_LE(n, per_bin);
      ASSERT_EQ(at(bin, "accepted").items.size(), num_series);
      ASSERT_EQ(at(bin, "refuted").items.size(), num_pairs);
      for (const Value& a : at(bin, "accepted").items) {
        EXPECT_LE(a.integer, n);
      }
    }
    EXPECT_EQ(drawn, per_bin * static_cast<long long>(bins.size()))
        << names[f];
  }
}

TEST(PaperRecord, NoSoundBoundIsRefutedByTheSameSamplesSimulation) {
  for (const Value& s : sweeps()) {
    const std::vector<Value>& pairs = at(s, "refutation_pairs").items;
    std::size_t sound = 0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      if (!at(pairs[p], "sound").boolean) continue;
      ++sound;
      for (const Value& bin : at(s, "bins").items) {
        EXPECT_EQ(count(at(bin, "refuted"), p), 0u)
            << at(s, "name").text << ": " << at(pairs[p], "bound").text
            << " refuted by " << at(pairs[p], "simulation").text
            << " at U_S " << at(bin, "us_target").number;
      }
    }
    // DP, GN1, GN2, ANY and DP-orig against SIM-EDF-NF, plus DP, GN2 and
    // DP-orig against SIM-EDF-FkF, at the least.
    EXPECT_GE(sound, 8u) << at(s, "name").text;
  }
}

TEST(PaperRecord, Gn1IsRefutedUnderEdfFkfInFig3a) {
  // The paper's caveat: Theorem 2 holds for EDF-NF only, and the 4-task
  // sweep holds sets GN1 accepts that EDF-FkF cannot schedule.
  const Value& s = sweep("fig3a");
  const std::vector<Value>& pairs = at(s, "refutation_pairs").items;
  bool found = false;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (at(pairs[p], "bound").text != "GN1" ||
        at(pairs[p], "simulation").text != "SIM-EDF-FkF") {
      continue;
    }
    found = true;
    EXPECT_FALSE(at(pairs[p], "sound").boolean);
    std::uint64_t refuted = 0;
    for (const Value& bin : at(s, "bins").items) {
      refuted += count(at(bin, "refuted"), p);
    }
    EXPECT_GT(refuted, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(PaperRecord, PrintedGn2EqualsStrictGn2InEveryBin) {
  // The printed '<=' only matters at exact equality, as in Table 1; no
  // random set lands there.
  for (const std::string name : {"fig3a", "fig3b"}) {
    const Value& s = sweep(name);
    const std::size_t strict = series_index(s, "GN2");
    const std::size_t printed = series_index(s, "GN2(printed<=)");
    for (const Value& bin : at(s, "bins").items) {
      EXPECT_EQ(count(at(bin, "accepted"), strict),
                count(at(bin, "accepted"), printed))
          << name << " at U_S " << at(bin, "us_target").number;
    }
  }
}

TEST(PaperRecord, EverySectionSixClaimHoldsWithinTheIntervals) {
  for (const Claim& claim : claims()) {
    std::size_t judged = 0;
    for (const std::string& name : claim.sweeps) {
      const Value& s = sweep(name);
      for (const Value& bin : at(s, "bins").items) {
        const double us = at(bin, "us_target").number;
        const long long n = at(bin, "samples").integer;
        if (n < kMinSamples || us < claim.us_from || us > claim.us_to) {
          continue;
        }
        ++judged;
        const Value& accepted = at(bin, "accepted");
        for (const std::string& more : claim.more) {
          for (const std::string& less : claim.less) {
            EXPECT_FALSE(contradicted(
                count(accepted, series_index(s, more)),
                count(accepted, series_index(s, less)),
                static_cast<std::uint64_t>(n), claim.factor))
                << claim.text << "\n  " << name << " at U_S " << us << ": "
                << more << " below " << less;
          }
        }
      }
    }
    EXPECT_GT(judged, 0u) << claim.text;
  }
}

}  // namespace
}  // namespace reconf
