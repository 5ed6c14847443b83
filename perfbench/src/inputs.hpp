#pragma once

// Seeded workload inputs and the verdict oracle. The system under test sees
// only the request lines / scenarios built here; the expected answers come
// from AnalysisEngine::decide over the same generated task sets.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/engine.hpp"
#include "rt/scenario.hpp"
#include "task/taskset.hpp"

namespace perfbench {

inline constexpr int kDeviceWidth = 100;

/// What one response line said, compactly: the verdict fields only (cache
/// hit/miss is not deterministic under threads, so it is never compared).
enum class Code : std::uint8_t {
  kReject,
  kDp,
  kGn1,
  kGn2,
  kOtherAccept,
  kError,
  kShed,
  kUnparsed,
};

[[nodiscard]] const char* to_string(Code code) noexcept;

/// Classifies one NDJSON response line.
[[nodiscard]] Code response_code(std::string_view line) noexcept;

/// The serving default's verdict for `ts` on the benchmark device.
[[nodiscard]] Code expected_code(const reconf::analysis::AnalysisEngine& engine,
                                 const reconf::TaskSet& ts);

/// `{"id":"<id>","device":100,"tasks":[...]}` for `ts`.
[[nodiscard]] std::string request_line(std::uint64_t id,
                                       const reconf::TaskSet& ts);

/// tcp-small-unique: the g-th 3-task set of a seed. A mixed-radix decode of
/// g (WCET x area x deadline of the first task, seed-offset digits) makes
/// every g a distinct canonical set, so every lookup misses.
class UniqueSets {
 public:
  explicit UniqueSets(std::uint64_t seed);
  [[nodiscard]] reconf::TaskSet taskset(std::uint64_t g) const;
  /// Appends the request line for g (id = g) plus '\n' to `out`.
  void append_line(std::uint64_t g, std::string& out) const;

 private:
  std::uint64_t c_shift_ = 0;
  std::uint64_t a_shift_ = 0;
  std::uint64_t d_base_ = 0;
};

/// stdio-paper-mix: a request log of Section-6 generator sets. Each line is
/// a new set or, with probability 1/2, a repeat of an earlier one.
struct PaperLog {
  std::vector<std::string> lines;     ///< request lines, no '\n'
  std::vector<std::uint32_t> set_of;  ///< line -> index into `sets`
  std::vector<reconf::TaskSet> sets;  ///< distinct sets, first-use order
  std::vector<Code> expected;         ///< per distinct set
};

[[nodiscard]] PaperLog make_paper_log(std::uint64_t seed, std::size_t lines);

/// runtime-scenarios: seeded draws cycling steady / churn / reconf-heavy.
[[nodiscard]] std::vector<reconf::rt::Scenario> make_scenarios(
    std::uint64_t seed, std::size_t count, int arrivals);

/// SplitMix64 step, for deriving sub-seeds.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept;

}  // namespace perfbench
