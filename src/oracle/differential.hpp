#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/engine.hpp"
#include "oracle/families.hpp"
#include "oracle/oracle.hpp"
#include "task/taskset.hpp"

namespace reconf::oracle {

/// How an analyzer verdict can disagree with ground truth or with itself.
enum class DisagreementKind {
  /// An analyzer accepted while a simulation it claims soundness for missed
  /// a deadline — a real bug, the class the oracle exists to catch.
  kSufficiencyViolation,
  /// AnalysisEngine::run() and AnalysisEngine::decide() (the report and
  /// verdict-only paths) returned different verdicts or accepting analyzers.
  kFastSlowDivergence,
  /// The tightened InvariantChecker flagged a simulation, or Danne
  /// dominance failed across schedulers — the referee itself is suspect.
  kSimInvariantViolation,
};

[[nodiscard]] const char* to_string(DisagreementKind kind) noexcept;

/// One adjudicated disagreement, carrying everything the shrinker and the
/// NDJSON repro writer need to reproduce it from scratch.
struct Disagreement {
  DisagreementKind kind = DisagreementKind::kSufficiencyViolation;
  std::string analyzer;  ///< offending analyzer id; "engine" for fast/slow
  sim::SchedulerKind scheduler = sim::SchedulerKind::kEdfNf;
  std::string detail;
  TaskSet taskset;
  Device device{};
  FuzzFamily family = FuzzFamily::kUnconstrained;
  std::uint64_t seed = 0;
};

/// Per-(family, analyzer) adjudication counters.
struct AnalyzerCell {
  std::uint64_t runs = 0;
  std::uint64_t accepts = 0;
  std::uint64_t violations = 0;
  /// Runs where the sync-release oracle was exact (full hyperperiod) and
  /// clean — ground-truth schedulable for the paper's release pattern.
  std::uint64_t exact_schedulable_samples = 0;
  /// Of those, runs this analyzer failed to accept: the pessimism numerator.
  std::uint64_t pessimism_samples = 0;

  [[nodiscard]] double pessimism_rate() const noexcept {
    return exact_schedulable_samples == 0
               ? 0.0
               : static_cast<double>(pessimism_samples) /
                     static_cast<double>(exact_schedulable_samples);
  }
};

struct FamilyStats {
  std::uint64_t tasksets = 0;
  std::uint64_t exact_oracle = 0;  ///< sync horizon covered the hyperperiod
  std::uint64_t sync_miss = 0;     ///< sync EDF-NF missed a deadline
  std::uint64_t accepted_any = 0;  ///< some analyzer accepted
  std::map<std::string, AnalyzerCell> analyzers;
};

/// Aggregate over one fuzz run. Mergeable so workers can accumulate locally.
struct OracleStats {
  std::uint64_t tasksets = 0;
  std::uint64_t sufficiency_violations = 0;
  std::uint64_t fast_slow_divergences = 0;
  std::uint64_t sim_invariant_violations = 0;
  std::map<FuzzFamily, FamilyStats> families;

  void merge(const OracleStats& other);
  [[nodiscard]] bool clean() const noexcept {
    return sufficiency_violations == 0 && fast_slow_divergences == 0 &&
           sim_invariant_violations == 0;
  }
};

/// Machine-readable stats report (schema reconf-oracle-stats/1), the
/// pessimism-trend companion of BENCH_perf.json.
[[nodiscard]] std::string stats_to_json(const OracleStats& stats,
                                        std::uint64_t master_seed);

/// Adjudicates tasksets against the simulation oracle: every analyzer of
/// the configured lineup through the report path, the engine's
/// decide() against its run(), and both against hyperperiod-
/// bounded simulation evidence. Stateless after construction; `adjudicate`
/// is const and thread-safe, so one harness serves every fuzz worker.
class DifferentialHarness {
 public:
  /// `tests`: analyzer lineup to adjudicate (registry ids; empty = every
  /// registered analyzer). Throws analysis::UnknownAnalyzerError on an
  /// unknown id. The registry must outlive the harness.
  DifferentialHarness(std::vector<std::string> tests,
                      const analysis::AnalyzerRegistry& registry,
                      OracleConfig oracle_config = {});

  /// Adjudicates one taskset. Updates `stats` and appends any disagreement
  /// to `out` (when non-null). Deterministic per (taskset, device).
  void adjudicate(const TaskSet& ts, Device device, FuzzFamily family,
                  std::uint64_t seed, OracleStats& stats,
                  std::vector<Disagreement>* out) const;

  [[nodiscard]] const analysis::AnalysisEngine& engine() const noexcept {
    return engine_;
  }
  [[nodiscard]] const OracleConfig& oracle_config() const noexcept {
    return oracle_config_;
  }

 private:
  analysis::AnalysisEngine engine_;
  OracleConfig oracle_config_;
};

}  // namespace reconf::oracle
