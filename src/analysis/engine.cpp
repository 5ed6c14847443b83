#include "analysis/engine.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/detail/kernels.hpp"
#include "analysis/detail/scratch.hpp"
#include "analysis/dp.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "analysis/hash.hpp"
#include "analysis/registry.hpp"
#include "common/stopwatch.hpp"
#include "mp/mp_tests.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace reconf::analysis {

namespace {

/// FNV-1a over the id string — stable across platforms, unlike
/// std::hash<std::string>.
std::uint64_t id_hash(std::string_view id) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// ----------------------------------------------------- paper analyzers ----

class DpAnalyzer final : public Analyzer {
 public:
  std::string_view id() const noexcept override { return "dp"; }
  std::string_view description() const noexcept override {
    return "Theorem 1 utilization bound (Danne & Platzner + integer-area "
           "correction)";
  }
  Capabilities capabilities() const noexcept override {
    return {.sound_edf_nf = true,
            .sound_edf_fkf = true,
            .sound_partitioned = false,
            .deadlines = DeadlineModel::kImplicit,
            .cost = CostClass::kLinear};
  }
  TestReport run(const TaskSet& ts, Device device,
                 const AnalyzerConfig& config) const override {
    return dp_test(ts, device, config.dp);
  }
  bool has_fast_path() const noexcept override { return true; }
  FastVerdict run_fast(detail::AnalysisScratch& scratch, Device device,
                       const AnalyzerConfig& config) const override {
    return detail::dp_fast(scratch, device, config.dp);
  }
  std::uint64_t options_fingerprint(
      const AnalyzerConfig& config) const noexcept override {
    std::uint64_t h = mix64(id_hash(id()));
    h = mix64(h ^ static_cast<std::uint64_t>(config.dp.alpha));
    // The implicit-deadline gate, always on. Fixed values are still mixed:
    // persisted cache-snapshot keys depend on them.
    h = mix64(h ^ 1u);
    return h;
  }
};

class Gn1Analyzer final : public Analyzer {
 public:
  std::string_view id() const noexcept override { return "gn1"; }
  std::string_view description() const noexcept override {
    return "Theorem 2 interference bound for EDF-NF (from BCL)";
  }
  Capabilities capabilities() const noexcept override {
    return {.sound_edf_nf = true,
            .sound_edf_fkf = false,  // not interval-α-work-conserving
            .sound_partitioned = false,
            .deadlines = DeadlineModel::kConstrained,
            .cost = CostClass::kQuadratic};
  }
  TestReport run(const TaskSet& ts, Device device,
                 const AnalyzerConfig& config) const override {
    return gn1_test(ts, device, config.gn1);
  }
  bool has_fast_path() const noexcept override { return true; }
  FastVerdict run_fast(detail::AnalysisScratch& scratch, Device device,
                       const AnalyzerConfig& config) const override {
    return detail::gn1_fast(scratch, device, config.gn1);
  }
  std::uint64_t options_fingerprint(
      const AnalyzerConfig& config) const noexcept override {
    std::uint64_t h = mix64(id_hash(id()));
    h = mix64(h ^ static_cast<std::uint64_t>(config.gn1.normalization));
    h = mix64(h ^ static_cast<std::uint64_t>(config.gn1.rhs));
    return h;
  }
};

class Gn2Analyzer final : public Analyzer {
 public:
  std::string_view id() const noexcept override { return "gn2"; }
  std::string_view description() const noexcept override {
    return "Theorem 3 lambda-parameterized bound for EDF-FkF (from BAK2)";
  }
  Capabilities capabilities() const noexcept override {
    return {.sound_edf_nf = true,
            .sound_edf_fkf = true,
            .sound_partitioned = false,
            .deadlines = DeadlineModel::kArbitrary,
            .cost = CostClass::kCubic};
  }
  TestReport run(const TaskSet& ts, Device device,
                 const AnalyzerConfig& config) const override {
    return gn2_test(ts, device, config.gn2);
  }
  bool has_fast_path() const noexcept override { return true; }
  FastVerdict run_fast(detail::AnalysisScratch& scratch, Device device,
                       const AnalyzerConfig& config) const override {
    return detail::gn2_fast(scratch, device, config.gn2);
  }
  std::uint64_t options_fingerprint(
      const AnalyzerConfig& config) const noexcept override {
    std::uint64_t h = mix64(id_hash(id()));
    h = mix64(h ^ (config.gn2.non_strict_condition2 ? 1u : 0u));
    h = mix64(h ^ 0u);  // the published middle branch (fixed; see dp)
    return h;
  }
};

// ------------------------------------------------ mp cross-check tests ----

/// The mp:: tests are the multiprocessor special case (every area = 1,
/// A(H) = m processors). As analyzers over general tasksets they guard that
/// precondition: a non-unit-area taskset yields kInconclusive with a note,
/// never an unsound acceptance.
class MpAnalyzer : public Analyzer {
 public:
  using MpTest = TestReport (*)(const TaskSet&, mp::MpPlatform);

  MpAnalyzer(MpTest test, const char* test_name) noexcept
      : test_(test), test_name_(test_name) {}

  TestReport run(const TaskSet& ts, Device device,
                 const AnalyzerConfig&) const override {
    for (const Task& t : ts) {
      if (t.area != 1) {
        TestReport refused;
        refused.test_name = test_name_;
        refused.note =
            "requires unit-area tasks (multiprocessor cross-check; use "
            "mp::as_unit_area to coerce)";
        refused.refused = true;
        return refused;
      }
    }
    return test_(ts, mp::MpPlatform{device.width});
  }

 private:
  MpTest test_;
  const char* test_name_;
};

class GfbAnalyzer final : public MpAnalyzer {
 public:
  GfbAnalyzer() : MpAnalyzer(&mp::gfb_test, "GFB") {}
  std::string_view id() const noexcept override { return "mp-gfb"; }
  std::string_view description() const noexcept override {
    return "GFB multiprocessor utilization bound (unit-area tasks only)";
  }
  Capabilities capabilities() const noexcept override {
    // Specialization of DP: sound wherever DP is.
    return {.sound_edf_nf = true,
            .sound_edf_fkf = true,
            .sound_partitioned = false,
            .deadlines = DeadlineModel::kImplicit,
            .cost = CostClass::kLinear};
  }
};

class BclAnalyzer final : public MpAnalyzer {
 public:
  BclAnalyzer() : MpAnalyzer(&mp::bcl_test, "BCL") {}
  std::string_view id() const noexcept override { return "mp-bcl"; }
  std::string_view description() const noexcept override {
    return "BCL multiprocessor interference bound (unit-area tasks only)";
  }
  Capabilities capabilities() const noexcept override {
    // Specialization of GN1: EDF-NF only.
    return {.sound_edf_nf = true,
            .sound_edf_fkf = false,
            .sound_partitioned = false,
            .deadlines = DeadlineModel::kConstrained,
            .cost = CostClass::kQuadratic};
  }
};

class Bak1Analyzer final : public MpAnalyzer {
 public:
  Bak1Analyzer() : MpAnalyzer(&mp::bak1_test, "BAK1") {}
  std::string_view id() const noexcept override { return "mp-bak1"; }
  std::string_view description() const noexcept override {
    return "BAK1 multiprocessor density bound (unit-area tasks only)";
  }
  Capabilities capabilities() const noexcept override {
    return {.sound_edf_nf = true,
            .sound_edf_fkf = false,
            .sound_partitioned = false,
            .deadlines = DeadlineModel::kConstrained,
            .cost = CostClass::kQuadratic};
  }
};

class Bak2Analyzer final : public MpAnalyzer {
 public:
  Bak2Analyzer() : MpAnalyzer(&mp::bak2_test, "BAK2") {}
  std::string_view id() const noexcept override { return "mp-bak2"; }
  std::string_view description() const noexcept override {
    return "BAK2 lambda-parameterized multiprocessor bound (unit-area tasks "
           "only)";
  }
  Capabilities capabilities() const noexcept override {
    // Specialization of GN2: sound wherever GN2 is.
    return {.sound_edf_nf = true,
            .sound_edf_fkf = true,
            .sound_partitioned = false,
            .deadlines = DeadlineModel::kArbitrary,
            .cost = CostClass::kCubic};
  }
};

// ------------------------------------------------------ partitioned EDF ----

class PartitionAnalyzer final : public Analyzer {
 public:
  std::string_view id() const noexcept override { return "partition"; }
  std::string_view description() const noexcept override {
    return "partitioned EDF baseline (Danne & Platzner RAW'06 contrast)";
  }
  Capabilities capabilities() const noexcept override {
    // A feasible allocation proves schedulability for the partitioned
    // scheduler it constructs — not for either global EDF variant.
    return {.sound_edf_nf = false,
            .sound_edf_fkf = false,
            .sound_partitioned = true,
            .deadlines = DeadlineModel::kArbitrary,
            .cost = CostClass::kQuadratic};
  }
  TestReport run(const TaskSet& ts, Device device,
                 const AnalyzerConfig& config) const override {
    const auto result =
        partition::partition_tasks(ts, device, config.partition);
    TestReport report;
    report.test_name = "PART";
    report.verdict =
        result.feasible ? Verdict::kSchedulable : Verdict::kInconclusive;
    report.note = result.feasible
                      ? std::to_string(result.partitions.size()) +
                            " partitions, " +
                            std::to_string(result.total_width) + " columns"
                      : result.note;
    return report;
  }
  std::uint64_t options_fingerprint(
      const AnalyzerConfig& config) const noexcept override {
    std::uint64_t h = mix64(id_hash(id()));
    h = mix64(h ^ static_cast<std::uint64_t>(config.partition.heuristic));
    h = mix64(h ^ 0u);  // density-decreasing task order (fixed; see dp)
    return h;
  }
};

constexpr std::uint64_t kEngineSalt = 0x656E67696E652D31ull;  // "engine-1"

}  // namespace

const char* to_string(Scheduler scheduler) noexcept {
  switch (scheduler) {
    case Scheduler::kEdfNf: return "EDF-NF";
    case Scheduler::kEdfFkF: return "EDF-FkF";
    case Scheduler::kPartitionedEdf: return "partitioned-EDF";
  }
  return "?";
}

const char* to_string(DeadlineModel model) noexcept {
  switch (model) {
    case DeadlineModel::kImplicit: return "implicit";
    case DeadlineModel::kConstrained: return "constrained";
    case DeadlineModel::kArbitrary: return "arbitrary";
  }
  return "?";
}

const char* to_string(CostClass cost) noexcept {
  switch (cost) {
    case CostClass::kLinear: return "O(N)";
    case CostClass::kQuadratic: return "O(N^2)";
    case CostClass::kCubic: return "O(N^3)";
  }
  return "?";
}

std::uint64_t Analyzer::options_fingerprint(
    const AnalyzerConfig&) const noexcept {
  return 0;
}

FastVerdict Analyzer::run_fast(detail::AnalysisScratch& scratch,
                               Device device,
                               const AnalyzerConfig& config) const {
  // Adapter for analyzers without a dedicated kernel: evaluate the full
  // report on the bound rows (allocates) and keep the summary.
  std::vector<Task> tasks(scratch.n);
  for (std::size_t i = 0; i < scratch.n; ++i) {
    tasks[i].wcet = scratch.wcet[i];
    tasks[i].deadline = scratch.deadline[i];
    tasks[i].period = scratch.period[i];
    tasks[i].area = scratch.area[i];
  }
  const TestReport report = run(TaskSet(std::move(tasks)), device, config);
  FastVerdict out;
  out.verdict = report.verdict;
  if (report.first_failing_task.has_value()) {
    out.first_failing_task =
        static_cast<std::ptrdiff_t>(*report.first_failing_task);
  }
  return out;
}

AnalysisRequest fast_any_request() {
  AnalysisRequest request;
  request.early_exit = true;
  return request;
}

AnalysisRequest fast_single_request(std::string test) {
  AnalysisRequest request = fast_any_request();
  request.tests = {std::move(test)};
  return request;
}

UnknownAnalyzerError::UnknownAnalyzerError(const std::string& id,
                                           const std::string& registered)
    : std::invalid_argument("unknown analyzer '" + id +
                            "'; registered analyzers: " + registered),
      id_(id) {}

void register_builtin_analyzers(AnalyzerRegistry& registry) {
  registry.add(std::make_unique<DpAnalyzer>());
  registry.add(std::make_unique<Gn1Analyzer>());
  registry.add(std::make_unique<Gn2Analyzer>());
  registry.add(std::make_unique<GfbAnalyzer>());
  registry.add(std::make_unique<BclAnalyzer>());
  registry.add(std::make_unique<Bak1Analyzer>());
  registry.add(std::make_unique<Bak2Analyzer>());
  registry.add(std::make_unique<PartitionAnalyzer>());
}

// ----------------------------------------------------- AnalysisReport ----

std::string AnalysisReport::accepted_by() const {
  for (const AnalyzerOutcome& o : outcomes) {
    if (o.ran && o.report.accepted()) return o.id;
  }
  return {};
}

const AnalyzerOutcome* AnalysisReport::outcome(std::string_view id) const {
  for (const AnalyzerOutcome& o : outcomes) {
    if (o.id == id) return &o;
  }
  return nullptr;
}

const TestReport* AnalysisReport::report_for(std::string_view id) const {
  const AnalyzerOutcome* o = outcome(id);
  return o != nullptr && o->ran ? &o->report : nullptr;
}

// ----------------------------------------------------- AnalysisEngine ----

const AnalyzerRegistry& AnalysisEngine::default_registry() {
  return AnalyzerRegistry::instance();
}

AnalysisEngine::AnalysisEngine(AnalysisRequest request,
                               const AnalyzerRegistry& registry)
    : request_(std::move(request)) {
  analyzers_.reserve(request_.tests.size());
  for (const std::string& test : request_.tests) {
    const Analyzer* analyzer = registry.find(test);
    if (analyzer == nullptr) {
      throw UnknownAnalyzerError(test, registry.id_list());
    }
    if (std::find(analyzers_.begin(), analyzers_.end(), analyzer) !=
        analyzers_.end()) {
      continue;  // duplicate id: run once
    }
    if (request_.scheduler.has_value() &&
        !sound_for(analyzer->capabilities(), *request_.scheduler)) {
      continue;  // not sound for the target scheduler
    }
    analyzers_.push_back(analyzer);
  }

  // Cheapest-first, id as tie-break: deterministic regardless of the order
  // ids were listed in, so the same selection always produces the same
  // execution order, accepted_by, and fingerprint.
  std::stable_sort(analyzers_.begin(), analyzers_.end(),
                   [](const Analyzer* a, const Analyzer* b) {
                     const auto ca = a->capabilities().cost;
                     const auto cb = b->capabilities().cost;
                     if (ca != cb) return ca < cb;
                     return a->id() < b->id();
                   });

  std::uint64_t h = mix64(kEngineSalt);
  for (const Analyzer* analyzer : analyzers_) {
    h = mix64(h ^ id_hash(analyzer->id()));
    h = mix64(h ^ analyzer->options_fingerprint(request_.config));
  }
  fingerprint_ = h;

  // Metric handles are shared per analyzer id across every engine instance;
  // get-or-create here (mutex + string build, once per engine) buys
  // lock-free increments on every verdict thereafter.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  obs_.reserve(analyzers_.size());
  for (const Analyzer* analyzer : analyzers_) {
    const std::string id(analyzer->id());
    ObsCell cell;
    const auto verdict_counter = [&](const char* verdict) {
      return &metrics.counter("reconf_engine_verdicts_total{analyzer=\"" +
                              id + "\",verdict=\"" + verdict + "\"}");
    };
    cell.accept = verdict_counter("accept");
    cell.reject = verdict_counter("reject");
    cell.refuse = verdict_counter("refuse");
    cell.inconclusive = verdict_counter("inconclusive");
    cell.latency =
        &metrics.histogram("reconf_engine_latency_ns{analyzer=\"" + id +
                           "\"}");
    cell.span_name = analyzer->id();
    cell.fast_cat = analyzer->has_fast_path() ? "fast" : "report";
    obs_.push_back(cell);
  }
}

AnalysisReport AnalysisEngine::run(const TaskSet& ts, Device device) const {
  const obs::Span run_span("engine.run", "engine");
  AnalysisReport out;
  out.outcomes.reserve(analyzers_.size());

  bool decided = false;
  for (std::size_t i = 0; i < analyzers_.size(); ++i) {
    const Analyzer& analyzer = *analyzers_[i];
    AnalyzerOutcome outcome;
    outcome.id = std::string(analyzer.id());
    if (decided) {
      out.outcomes.push_back(std::move(outcome));
      continue;
    }

    const ObsCell& oc = obs_[i];
    {
      const obs::Span analyzer_span(oc.span_name, "report");
      Stopwatch watch;
      outcome.report = analyzer.run(ts, device, request_.config);
      outcome.seconds = watch.seconds();
    }
    outcome.ran = true;

    if (outcome.report.accepted()) {
      oc.accept->inc();
    } else if (outcome.report.refused) {
      oc.refuse->inc();
    } else if (outcome.report.first_failing_task.has_value()) {
      oc.reject->inc();
    } else {
      oc.inconclusive->inc();
    }
    oc.latency->record(
        static_cast<std::uint64_t>(std::llround(outcome.seconds * 1e9)));

    if (outcome.report.accepted()) {
      out.verdict = Verdict::kSchedulable;
      decided = request_.early_exit;
    }
    out.outcomes.push_back(std::move(outcome));
  }
  return out;
}

Decision AnalysisEngine::decide(const TaskSet& ts, Device device) const {
  detail::AnalysisScratch& scratch = detail::thread_scratch();
  scratch.build(ts);
  return decide(scratch, device);
}

Decision AnalysisEngine::decide(detail::AnalysisScratch& bound,
                                Device device) const {
  const obs::Span decide_span("engine.decide", "engine");
  Decision out;
  for (std::size_t i = 0; i < analyzers_.size(); ++i) {
    const Analyzer& analyzer = *analyzers_[i];
    const ObsCell& oc = obs_[i];
    FastVerdict v;
    {
      const obs::Span analyzer_span(oc.span_name, oc.fast_cat);
      v = analyzer.run_fast(bound, device, request_.config);
    }

    // The hot-path telemetry promise: one relaxed increment per analyzer
    // verdict (FastVerdict cannot see refusals — those count inconclusive).
    if (v.verdict == Verdict::kSchedulable) {
      oc.accept->inc();
    } else if (v.first_failing_task >= 0) {
      oc.reject->inc();
    } else {
      oc.inconclusive->inc();
    }

    if (v.verdict == Verdict::kSchedulable) {
      // First acceptance decides the union verdict; the tail cannot change
      // it, so decide() always early-exits.
      out.verdict = Verdict::kSchedulable;
      out.accepted_by = analyzer.id();
      return out;
    }
  }
  return out;
}

std::vector<std::string> AnalysisEngine::execution_order() const {
  std::vector<std::string> out;
  out.reserve(analyzers_.size());
  for (const Analyzer* analyzer : analyzers_) {
    out.emplace_back(analyzer->id());
  }
  return out;
}

}  // namespace reconf::analysis
