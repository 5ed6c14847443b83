#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/options.hpp"
#include "analysis/report.hpp"
#include "common/types.hpp"
#include "partition/partitioned.hpp"
#include "task/taskset.hpp"

namespace reconf::obs {
class Counter;
class Histogram;
}  // namespace reconf::obs

namespace reconf::analysis {

namespace detail {
struct AnalysisScratch;
}  // namespace detail

class AnalyzerRegistry;

/// Schedulers a verdict can be claimed for. Soundness is per scheduler: a
/// sufficient test proves schedulability only under schedulers it is sound
/// for (the paper's caveat: GN1 holds for EDF-NF but not EDF-FkF).
enum class Scheduler {
  kEdfNf,           ///< global EDF, next-fit skipping (work-conserving)
  kEdfFkF,          ///< global EDF, first-k-first (blocking)
  kPartitionedEdf,  ///< fixed column partitions, uniprocessor EDF inside
};

[[nodiscard]] const char* to_string(Scheduler scheduler) noexcept;

/// The most general deadline model a test handles without refusing.
enum class DeadlineModel {
  kImplicit,     ///< requires D = T (e.g. DP, which descends from GFB)
  kConstrained,  ///< requires D ≤ T
  kArbitrary,    ///< handles any D, including post-period deadlines
};

[[nodiscard]] const char* to_string(DeadlineModel model) noexcept;

/// Asymptotic cost over the task count N — the engine's cheapest-first
/// execution order sorts by this, so a linear test gets the chance to
/// accept (and early-exit) before an O(N³) one ever runs.
enum class CostClass {
  kLinear,     ///< O(N)  — one pass (DP, GFB)
  kQuadratic,  ///< O(N²) — per-task interference sums (GN1, BCL, partition)
  kCubic,      ///< O(N³) — λ-candidate scans (GN2, BAK2)
};

[[nodiscard]] const char* to_string(CostClass cost) noexcept;

/// Capability metadata every Analyzer declares: which schedulers its
/// acceptance is sound for, the deadline model it supports, and its cost
/// class. The engine derives scheduler restrictions from this metadata
/// (an EDF-FkF request simply filters out analyzers not FkF-sound) instead
/// of hard-wiring per-test bool flags at every call site.
struct Capabilities {
  bool sound_edf_nf = false;
  bool sound_edf_fkf = false;
  bool sound_partitioned = false;
  DeadlineModel deadlines = DeadlineModel::kArbitrary;
  CostClass cost = CostClass::kLinear;
};

/// Whether an acceptance from a test with these capabilities proves
/// schedulability under `scheduler`.
[[nodiscard]] constexpr bool sound_for(const Capabilities& caps,
                                       Scheduler scheduler) noexcept {
  switch (scheduler) {
    case Scheduler::kEdfNf: return caps.sound_edf_nf;
    case Scheduler::kEdfFkF: return caps.sound_edf_fkf;
    case Scheduler::kPartitionedEdf: return caps.sound_partitioned;
  }
  return false;
}

/// Union of every per-test option struct; each analyzer reads only its own
/// slice (and fingerprints only that slice, so cache keys do not churn when
/// an unrelated test's knob moves).
struct AnalyzerConfig {
  DpOptions dp;
  Gn1Options gn1;
  Gn2Options gn2;
  partition::PartitionConfig partition;
};

/// One pluggable schedulability test. Implementations must be stateless and
/// thread-safe: `run` is called concurrently on distinct tasksets by the
/// batch pipeline and the sweep harness.
///
/// See README.md ("Writing a new Analyzer") for a worked example.
class Analyzer {
 public:
  virtual ~Analyzer() = default;

  /// Registry key, lowercase kebab-case (e.g. "dp", "mp-bak2"). Stable —
  /// it appears in NDJSON requests, CLI flags and cache fingerprints.
  [[nodiscard]] virtual std::string_view id() const noexcept = 0;

  /// One-line human description for listings and error messages.
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  [[nodiscard]] virtual Capabilities capabilities() const noexcept = 0;

  /// Evaluates the test. Must be pure: the report depends only on the
  /// arguments. Inapplicable inputs (wrong deadline model, non-unit areas
  /// for the mp cross-checks) yield kInconclusive with an explanatory note,
  /// never an unsound acceptance.
  [[nodiscard]] virtual TestReport run(const TaskSet& ts, Device device,
                                       const AnalyzerConfig& config) const = 0;

  /// Fingerprint of the slice of `config` this analyzer reads — every knob
  /// that can change its verdict. Folded into cache keys: two configs with
  /// equal fingerprints for every selected analyzer must produce identical
  /// verdicts. Default: 0 (no options).
  [[nodiscard]] virtual std::uint64_t options_fingerprint(
      const AnalyzerConfig& config) const noexcept;

  /// True when run_fast answers through an allocation-free SoA kernel
  /// instead of the default adapter (which runs run() and summarizes).
  [[nodiscard]] virtual bool has_fast_path() const noexcept { return false; }

  /// Fast evaluation of the set bound in `scratch`: verdict + first failing
  /// task, no diagnostics. The engine binds the set once per verdict
  /// (AnalysisScratch::build, or an admission session's push) and shares
  /// the scratch across analyzers. Must agree with run() on verdict and
  /// first_failing_task for every input (the built-in kernels serve both).
  /// Default: adapts run() on a TaskSet built from the bound rows (C, D, T,
  /// A; no analysis reads names), allocating.
  [[nodiscard]] virtual FastVerdict run_fast(detail::AnalysisScratch& scratch,
                                             Device device,
                                             const AnalyzerConfig& config)
      const;
};

/// Thrown when a requested analyzer id is not registered. The message lists
/// every registered id so callers (CLI, codec) can relay an actionable
/// error.
class UnknownAnalyzerError : public std::invalid_argument {
 public:
  UnknownAnalyzerError(const std::string& id, const std::string& registered);

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

 private:
  std::string id_;
};

/// Everything that parameterizes one analysis: which tests, under which
/// scheduler restriction, with which options, and how eagerly run() stops.
/// What a caller gets is its choice of engine method: run() for the timed
/// report with per-task diagnostics, decide() for the untimed verdict.
struct AnalysisRequest {
  /// Registry ids to run. Defaults to the paper's Section 6 lineup.
  /// Duplicates are ignored; an empty list builds an engine that runs
  /// nothing and answers kInconclusive.
  std::vector<std::string> tests{"dp", "gn1", "gn2"};

  /// When set, only analyzers whose capabilities are sound for this
  /// scheduler are kept (the registry-era spelling of the old
  /// `for_fkf` bool: kEdfFkF drops GN1/BCL/BAK1). Unset = no restriction.
  std::optional<Scheduler> scheduler;

  AnalyzerConfig config;

  /// Stop run() after the first acceptance (sufficient tests are a union —
  /// one accept decides). Skipped analyzers still appear in the report with
  /// ran == false. The verdict and accepted_by are unaffected because
  /// execution order is deterministic, so early exit is excluded from the
  /// fingerprint and cached verdicts are shared. decide() always stops at
  /// the first acceptance.
  bool early_exit = false;
};

/// The serving configuration: paper trio with cheapest-first early exit.
/// What every decide() caller (the serving default, the runtime gate)
/// builds its engine from.
[[nodiscard]] AnalysisRequest fast_any_request();

/// A single-analyzer spelling of the same configuration — one test id. The
/// shape bench_report and perfbench's layer pass time each kernel through,
/// shared so both always measure the identical request.
[[nodiscard]] AnalysisRequest fast_single_request(std::string test);

/// Allocation-free result of AnalysisEngine::decide — the union verdict and
/// which analyzer decided it. `accepted_by` points at the accepting
/// analyzer's static id (empty when not accepted) and stays valid for the
/// registry's lifetime.
struct Decision {
  Verdict verdict = Verdict::kInconclusive;
  std::string_view accepted_by;

  [[nodiscard]] bool accepted() const noexcept {
    return verdict == Verdict::kSchedulable;
  }
};

/// Per-analyzer slice of one engine run, in execution order.
struct AnalyzerOutcome {
  std::string id;
  bool ran = false;       ///< false when early-exit skipped this analyzer
  TestReport report;      ///< meaningful only when ran
  double seconds = 0.0;   ///< wall time of Analyzer::run; 0 when !ran
};

/// Result of AnalysisEngine::run — the union verdict plus one outcome per
/// selected analyzer.
struct AnalysisReport {
  Verdict verdict = Verdict::kInconclusive;
  std::vector<AnalyzerOutcome> outcomes;

  [[nodiscard]] bool accepted() const noexcept {
    return verdict == Verdict::kSchedulable;
  }
  /// Id of the first accepting analyzer in execution order, or empty.
  [[nodiscard]] std::string accepted_by() const;
  /// The outcome for `id`, or nullptr when not selected.
  [[nodiscard]] const AnalyzerOutcome* outcome(std::string_view id) const;
  /// The TestReport for `id`, or nullptr when not selected or not run.
  [[nodiscard]] const TestReport* report_for(std::string_view id) const;
};

/// A resolved, immutable analysis pipeline: ids are looked up in the
/// registry once, the scheduler capability filter is applied once, and the
/// execution order (cheapest cost class first, id as tie-break) plus the
/// configuration fingerprint are fixed at construction. `run` is then pure
/// and thread-safe — one engine serves every worker of the batch pipeline.
class AnalysisEngine {
 public:
  /// Resolves `request` against `registry`. Throws UnknownAnalyzerError on
  /// an unregistered id (message lists the registered ones).
  explicit AnalysisEngine(
      AnalysisRequest request,
      const AnalyzerRegistry& registry = default_registry());

  AnalysisEngine(AnalysisEngine&&) noexcept = default;
  AnalysisEngine& operator=(AnalysisEngine&&) noexcept = default;

  /// The report: runs the selected analyzers in execution order through
  /// Analyzer::run (full per-task diagnostics; for DP/GN1/GN2 the SoA
  /// kernels given a TestReport), timing each one into
  /// AnalyzerOutcome::seconds and reconf_engine_latency_ns. Verdict
  /// and accepted_by depend only on (taskset, device, fingerprint()) —
  /// never on early_exit or thread interleaving.
  [[nodiscard]] AnalysisReport run(const TaskSet& ts, Device device) const;

  /// The untimed kernel verdict: binds `ts` in the calling thread's SoA
  /// scratch and decides it (the overload below). Zero heap allocation per
  /// call once the arena is warm (analyzers without a kernel adapt run()
  /// and do allocate).
  ///
  /// Returns the same verdict and accepting analyzer as run() for every
  /// input: for DP/GN1/GN2 both evaluate the same kernels
  /// (detail/kernels.hpp), decide() without a report. The fastpath parity
  /// suite checks the two against each other and the kernels against the
  /// exact evaluators across a randomized corpus.
  [[nodiscard]] Decision decide(const TaskSet& ts, Device device) const;

  /// The one decide loop: evaluates analyzers in execution order through
  /// Analyzer::run_fast over the set already bound in `bound`, stopping at
  /// the first acceptance, and never reads a clock. The
  /// reconf_engine_verdicts_total counters move as for run() with
  /// early_exit. svc::AdmissionSession calls it on the scratch that holds
  /// its admitted rows plus the candidate's.
  [[nodiscard]] Decision decide(detail::AnalysisScratch& bound,
                                Device device) const;

  /// Fingerprint of the resolved configuration: the ordered analyzer ids
  /// and each analyzer's options fingerprint. Two engines with equal
  /// fingerprints produce identical verdicts for every input, so this (and
  /// only this) is what verdict-cache keys mix in. early_exit is
  /// deliberately excluded.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Selected analyzer ids in execution order (post filter, post sort).
  [[nodiscard]] std::vector<std::string> execution_order() const;

  /// The resolved analyzer at position `i` of the execution order — the
  /// differential oracle iterates these to pair each AnalyzerOutcome with
  /// the capability metadata its adjudication depends on. Valid for the
  /// backing registry's lifetime.
  [[nodiscard]] const Analyzer& analyzer_at(std::size_t i) const {
    RECONF_EXPECTS(i < analyzers_.size());
    return *analyzers_[i];
  }

  [[nodiscard]] const AnalysisRequest& request() const noexcept {
    return request_;
  }
  [[nodiscard]] std::size_t analyzer_count() const noexcept {
    return analyzers_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return analyzers_.empty(); }

 private:
  /// Pre-resolved process-wide metric handles for one analyzer — resolved
  /// once at engine construction so run()/decide() pay one relaxed
  /// increment per verdict, never a registry lookup. Metrics are keyed by
  /// analyzer id, so every engine instance feeds the same counters (the
  /// registry accumulates across batch waves and sessions). Verdict
  /// classes: accept = kSchedulable; refuse = the analyzer declined the
  /// input model (run() only — decide() cannot distinguish a refusal and
  /// counts it inconclusive); reject = kInconclusive with a named failing
  /// task; inconclusive = the rest.
  struct ObsCell {
    obs::Counter* accept = nullptr;
    obs::Counter* reject = nullptr;
    obs::Counter* refuse = nullptr;
    obs::Counter* inconclusive = nullptr;
    obs::Histogram* latency = nullptr;  ///< recorded by run() only
    /// Span names and decide()'s span category, resolved at construction so
    /// the hot loop never makes the id()/has_fast_path() virtual calls just
    /// to label a (usually inactive) span. The name view aliases the
    /// analyzer's static id storage. run() spans are always "report".
    std::string_view span_name;
    const char* fast_cat = "report";
  };

  [[nodiscard]] static const AnalyzerRegistry& default_registry();

  AnalysisRequest request_;
  std::vector<const Analyzer*> analyzers_;  ///< execution order
  std::uint64_t fingerprint_ = 0;
  std::vector<ObsCell> obs_;  ///< one cell per analyzer
};

}  // namespace reconf::analysis
