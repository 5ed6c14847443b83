#include "inputs.hpp"

#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "gen/generator.hpp"

namespace perfbench {

using reconf::Task;
using reconf::TaskSet;

const char* to_string(Code code) noexcept {
  switch (code) {
    case Code::kReject: return "reject";
    case Code::kDp: return "dp";
    case Code::kGn1: return "gn1";
    case Code::kGn2: return "gn2";
    case Code::kOtherAccept: return "other-accept";
    case Code::kError: return "error";
    case Code::kShed: return "shed";
    case Code::kUnparsed: return "unparsed";
  }
  return "?";
}

namespace {

Code accept_code(std::string_view by) noexcept {
  if (by == "dp") return Code::kDp;
  if (by == "gn1") return Code::kGn1;
  if (by == "gn2") return Code::kGn2;
  return Code::kOtherAccept;
}

}  // namespace

Code response_code(std::string_view line) noexcept {
  constexpr std::string_view kVerdict = "\"verdict\":\"";
  const std::size_t v = line.find(kVerdict);
  if (v == std::string_view::npos) {
    if (line.find("\"error\":") != std::string_view::npos) return Code::kError;
    if (line.find("\"shed\":") != std::string_view::npos) return Code::kShed;
    return Code::kUnparsed;
  }
  if (line.compare(v + kVerdict.size(), 12, "schedulable\"") != 0) {
    return Code::kReject;
  }
  constexpr std::string_view kBy = "\"accepted_by\":\"";
  const std::size_t b = line.find(kBy, v);
  if (b == std::string_view::npos) return Code::kUnparsed;
  const std::size_t start = b + kBy.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string_view::npos) return Code::kUnparsed;
  return accept_code(line.substr(start, end - start));
}

Code expected_code(const reconf::analysis::AnalysisEngine& engine,
                   const TaskSet& ts) {
  const reconf::analysis::Decision d =
      engine.decide(ts, reconf::Device{kDeviceWidth});
  return d.accepted() ? accept_code(d.accepted_by) : Code::kReject;
}

std::string request_line(std::uint64_t id, const TaskSet& ts) {
  std::string out = "{\"id\":\"" + std::to_string(id) + "\",\"device\":" +
                    std::to_string(kDeviceWidth) + ",\"tasks\":[";
  bool first = true;
  for (const Task& t : ts) {
    out += first ? "{\"c\":" : ",{\"c\":";
    first = false;
    out += std::to_string(t.wcet) + ",\"d\":" + std::to_string(t.deadline) +
           ",\"t\":" + std::to_string(t.period) +
           ",\"a\":" + std::to_string(t.area) + "}";
  }
  return out + "]}";
}

std::uint64_t mix(std::uint64_t x) noexcept {
  reconf::SplitMix64 m(x);
  return m.next();
}

// ------------------------------------------------------ tcp-small-unique --

namespace {

constexpr std::uint64_t kWcets = 600;
constexpr std::uint64_t kAreas = 60;

Task make_task(reconf::Ticks c, reconf::Ticks d, reconf::Area a) {
  Task t;
  t.wcet = c;
  t.deadline = d;
  t.period = d;
  t.area = a;
  return t;
}

}  // namespace

UniqueSets::UniqueSets(std::uint64_t seed) {
  const std::uint64_t h = mix(seed);
  c_shift_ = h % kWcets;
  a_shift_ = (h >> 20) % kAreas;
  d_base_ = 700 + (h >> 40) % 16;
}

TaskSet UniqueSets::taskset(std::uint64_t g) const {
  const auto c = static_cast<reconf::Ticks>(1 + (g + c_shift_) % kWcets);
  const auto a =
      static_cast<reconf::Area>(1 + (g / kWcets + a_shift_) % kAreas);
  const auto d = static_cast<reconf::Ticks>(d_base_ + g / (kWcets * kAreas));
  return TaskSet({make_task(c, d, a), make_task(40, 500, 7),
                  make_task(30, 900, 5)});
}

void UniqueSets::append_line(std::uint64_t g, std::string& out) const {
  const std::uint64_t c = 1 + (g + c_shift_) % kWcets;
  const std::uint64_t a = 1 + (g / kWcets + a_shift_) % kAreas;
  const std::uint64_t d = d_base_ + g / (kWcets * kAreas);
  out += "{\"id\":\"";
  out += std::to_string(g);
  out += "\",\"device\":100,\"tasks\":[{\"c\":";
  out += std::to_string(c);
  out += ",\"d\":";
  out += std::to_string(d);
  out += ",\"t\":";
  out += std::to_string(d);
  out += ",\"a\":";
  out += std::to_string(a);
  out += "},{\"c\":40,\"d\":500,\"t\":500,\"a\":7},"
         "{\"c\":30,\"d\":900,\"t\":900,\"a\":5}]}\n";
}

// ------------------------------------------------------- stdio-paper-mix --

PaperLog make_paper_log(std::uint64_t seed, std::size_t lines) {
  // Section 6 "unconstrained" sets; the U_S window per N is where the paper
  // trio still accepts some sets, so dp, gn1 and gn2 each decide a share
  // and most of the rest are rejected after all three ran.
  struct Band {
    int n;
    double us_lo;
    double us_hi;
  };
  static constexpr Band kBands[] = {
      {4, 4.0, 45.0}, {8, 3.0, 30.0}, {16, 2.5, 20.0},
      {32, 2.5, 12.0}, {64, 3.0, 10.0}};

  reconf::Xoshiro256ss rng(mix(seed ^ 0x5eed'0002));
  const reconf::analysis::AnalysisEngine engine(
      reconf::analysis::fast_any_request());
  PaperLog log;
  log.lines.reserve(lines);
  log.set_of.reserve(lines);
  for (std::size_t i = 0; i < lines; ++i) {
    std::uint32_t set = 0;
    if (log.sets.empty() || rng.uniform01() >= 0.5) {
      std::optional<TaskSet> ts;
      // A target the draw cannot reach is redrawn, not skipped, so the log
      // length never depends on the generator's luck.
      for (int attempt = 0; !ts; ++attempt) {
        if (attempt == 64) throw std::runtime_error("paper-mix generation failed");
        const Band& band = kBands[rng.uniform_int(0, 4)];
        reconf::gen::GenRequest req;
        req.profile = reconf::gen::GenProfile::unconstrained(band.n);
        req.target_system_util = rng.uniform(band.us_lo, band.us_hi);
        req.seed = rng.next();
        ts = reconf::gen::generate_with_retries(req);
      }
      set = static_cast<std::uint32_t>(log.sets.size());
      log.expected.push_back(expected_code(engine, *ts));
      log.sets.push_back(std::move(*ts));
    } else {
      set = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(log.sets.size()) - 1));
    }
    log.set_of.push_back(set);
    log.lines.push_back(request_line(i, log.sets[set]));
  }
  return log;
}

// ----------------------------------------------------- runtime-scenarios --

std::vector<reconf::rt::Scenario> make_scenarios(std::uint64_t seed,
                                                 std::size_t count,
                                                 int arrivals) {
  static constexpr reconf::rt::ScenarioFamily kFamilies[] = {
      reconf::rt::ScenarioFamily::kSteady, reconf::rt::ScenarioFamily::kChurn,
      reconf::rt::ScenarioFamily::kReconfHeavy};
  std::vector<reconf::rt::Scenario> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    reconf::rt::ScenarioGenOptions gen;
    gen.family = kFamilies[i % 3];
    gen.arrivals = arrivals;
    gen.seed = mix(seed * 1'000'003 + i);
    out.push_back(reconf::rt::generate_scenario(gen));
  }
  return out;
}

}  // namespace perfbench
