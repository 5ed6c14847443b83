#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/engine.hpp"
#include "analysis/options.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "svc/verdict_cache.hpp"
#include "task/taskset.hpp"

namespace reconf::svc {

/// One independent analysis request in a batch: decide schedulability of
/// `taskset` on `device`. `id` is an opaque caller tag echoed back in the
/// response (the NDJSON codec fills it from the request's "id" field).
struct BatchRequest {
  std::string id;
  TaskSet taskset;
  Device device;
  /// Per-request analyzer lineup (registry ids, e.g. {"dp","gn2"}). Empty =
  /// the pipeline default (BatchOptions::request.tests). Order and
  /// repetition do not matter. Unknown ids throw
  /// analysis::UnknownAnalyzerError from EngineTable::resolve — the NDJSON
  /// codec validates at parse time so malformed requests never reach it.
  std::vector<std::string> tests;
  /// True for a `{"id":...,"stats":true}` introspection request: no taskset
  /// to analyze; the serving core's io thread answers it with a metrics
  /// snapshot (see svc/stats_surface.hpp) instead of routing it to a shard.
  bool stats = false;
  /// Per-request deadline (hardening): epoch (the default) means none. A
  /// request whose deadline has passed when a worker picks it up is shed —
  /// BatchVerdict::shed = "deadline" — instead of analyzed; under overload,
  /// work the client has already given up on is the first to go.
  std::chrono::steady_clock::time_point deadline{};
};

/// Per-analyzer slice of a freshly computed verdict, in execution order —
/// the "sub" array of NDJSON responses.
struct SubVerdict {
  std::string test;      ///< analyzer id
  bool ran = false;      ///< false when early-exit skipped it
  bool accepted = false;
  double micros = 0.0;   ///< wall time of this analyzer, microseconds
};

/// Verdict for one BatchRequest, at the same index in the output vector.
///
/// Determinism contract: `accepted`, `accepted_by` and `hash` depend only on
/// the request (the analysis is pure and the engine's execution order is
/// fixed), so a batch produces bit-identical verdict vectors for any worker
/// count. `cache_hit` and `sub` are diagnostics and are NOT deterministic —
/// with duplicates in flight, which duplicate wins the race to insert (and
/// therefore which response carries fresh sub-reports) depends on
/// scheduling.
struct BatchVerdict {
  std::string id;
  bool accepted = false;
  std::string accepted_by;  ///< accepting analyzer id ("dp"/"gn1"/…), or empty
  std::uint64_t hash = 0;
  bool cache_hit = false;
  /// Per-analyzer outcomes; populated only when freshly analyzed (a cache
  /// hit stores just the CachedVerdict summary) through the engine's
  /// run(), i.e. under BatchOptions::explain. The serving default answers
  /// through decide() and reports none.
  std::vector<SubVerdict> sub;
  /// Non-empty when the request could not be analyzed at all — e.g. its
  /// analyzer selection filtered down to nothing under the pipeline's
  /// scheduler restriction. A verdict with an error is NOT "inconclusive";
  /// the server answers with an error line instead of a verdict.
  std::string error;
  /// Non-empty when the server chose not to evaluate the request (reason:
  /// "deadline" here; the serving core adds "queue" for a full shard ring).
  /// Answered with a distinct {"id":...,"shed":"..."} line — shed work is
  /// retryable, errored work is not.
  std::string shed;
};

/// Pipeline-wide analysis configuration. `request` is the AnalysisRequest
/// shared by all requests that don't name their own tests; its default is
/// the paper trio with cheapest-first early exit, so the O(N³) test only
/// runs when the cheap ones fail.
///
/// `explain` picks the engine method. Off (the serving default), a fresh
/// verdict comes from decide(): the untimed SoA kernels, no per-task
/// reports. On (reconf_serve --explain), it comes from run(): the timed
/// reference evaluators, whose per-analyzer sub-verdicts and timings fill
/// the NDJSON "sub" array. Verdicts are identical either way, so cached
/// entries are shared.
struct BatchOptions {
  analysis::AnalysisRequest request = analysis::fast_any_request();
  bool explain = false;
};

/// The one place a request's analyzer lineup becomes an engine. It holds
/// the pipeline default engine (for requests naming no tests) plus one
/// engine per canonical lineup — the distinct ids a request names, without
/// regard to order — built on first use from the pipeline request with its
/// lineup overridden. Every spelling of a lineup resolves to the same engine
/// object, so the table holds at most 2^R − 1 lineup engines for R
/// registered analyzers however many spellings a client sends.
///
/// Not thread-safe: one table per resolving thread (the serving core keeps
/// one per io thread, run_batch one per batch). The engines it hands out
/// are immutable and safe to use from any thread; references stay valid
/// for the table's lifetime.
class EngineTable {
 public:
  explicit EngineTable(const BatchOptions& options = {});

  EngineTable(const EngineTable&) = delete;
  EngineTable& operator=(const EngineTable&) = delete;

  /// The engine for a request naming `tests` (empty = the pipeline
  /// default). Throws analysis::UnknownAnalyzerError on an unregistered id.
  [[nodiscard]] const analysis::AnalysisEngine& resolve(
      std::span<const std::string> tests);

  /// Lineup engines built so far; the default engine is not counted.
  [[nodiscard]] std::size_t size() const noexcept { return lineups_.size(); }

 private:
  /// The key bit of registered analyzer `id`: bit i stands for ids_[i].
  [[nodiscard]] std::uint64_t bit_for(const std::string& id);

  analysis::AnalysisEngine default_;
  std::vector<std::string> ids_;  ///< registered ids seen, first-use order
  std::unordered_map<std::uint64_t, analysis::AnalysisEngine> lineups_;
};

/// The VerdictCache key for analyzing `ts` on `device` under `engine`:
/// canonical taskset hash mixed with the engine's configuration
/// fingerprint (selected analyzer set + per-test options). Two callers with
/// different lineups (e.g. {dp} vs {dp,gn1,gn2}, or an EDF-FkF filter) must
/// never share cache lines — a {dp}-only verdict answered to a full-trio
/// caller would be wrong, and a GN1 acceptance served to an EDF-FkF caller
/// would be a deadline-safety bug.
[[nodiscard]] std::uint64_t verdict_cache_key(
    const TaskSet& ts, Device device,
    const analysis::AnalysisEngine& engine) noexcept;

/// Evaluates every request, fanning out across `pool` and consulting/filling
/// `cache` (nullptr to always analyze; shared by the pool workers, so a
/// thread-safe VerdictCache). Results are indexed by request — order never
/// depends on completion order. Every lineup is resolved through one
/// EngineTable before the fan-out. Its last user outside its own tests is
/// perfbench's layer pass; reconf_serve serves through the shard workers of
/// net::AsyncServer, which call evaluate_with_engine directly.
[[nodiscard]] std::vector<BatchVerdict> run_batch(
    std::span<const BatchRequest> requests, VerdictStore* cache,
    ThreadPool& pool, const BatchOptions& options = {});

/// Core evaluation against a caller-held engine: cache lookup keyed by
/// (canonical taskset hash, engine fingerprint), analysis on miss. The
/// request's `tests` field is NOT consulted — the caller already resolved
/// the engine (EngineTable::resolve). This is the one verdict-producing
/// path: the serving core's shard workers and the batch pipeline both
/// funnel through it, which is what makes verdict parity across them a
/// structural property rather than a test-enforced one. A miss is analyzed
/// by engine.run() with `sub` filled when `explain`, else by
/// engine.decide() (see BatchOptions::explain).
[[nodiscard]] BatchVerdict evaluate_with_engine(
    const analysis::AnalysisEngine& engine, const BatchRequest& request,
    VerdictStore* cache, bool explain = false);

}  // namespace reconf::svc
