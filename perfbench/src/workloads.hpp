#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "rt/runtime.hpp"
#include "rt/scenario.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_path;  ///< the reconf_serve binary under test
  std::string self_path;   ///< this driver, for the runtime set-up probe
  std::string out_dir;     ///< scratch files (port files, span file)
};

struct RunResult {
  Tally tally;
  MetricSink metrics;
  std::vector<std::string> server_command;  ///< empty for in-process runs
};

/// How many set-up launches a run times; setup_s is their median.
inline constexpr int kSetupLaunches = 25;

void run_tcp_small_unique(const RunOptions& opt, RunResult& out);
void run_stdio_paper_mix(const RunOptions& opt, RunResult& out);
void run_runtime_scenarios(const RunOptions& opt, RunResult& out);

/// Set-up probe for runtime-scenarios, run as a child process: generates
/// and runs the seed's first scenario and prints its summary line.
int runtime_probe(std::uint64_t seed);

/// The runtime configuration every runtime-scenarios run uses: hybrid
/// prefetch, invariant checker on, no execution-trace recording.
[[nodiscard]] reconf::rt::RuntimeConfig runtime_config();

/// Cap on the traced pass's request lines and gate candidate sets: enough
/// samples for a p99, and a span file that stays small.
inline constexpr std::size_t kMaxLayerInputs = 8192;

/// Inputs of the traced per-layer pass: request lines (no '\n') for the
/// svc/analysis layers and scenarios for the rt layer.
struct LayerInputs {
  std::vector<std::string> lines;
  /// Start from a full 65,536-entry cache, as a server in steady state
  /// under all-distinct traffic does.
  bool prefill_cache = false;
  std::vector<reconf::rt::Scenario> scenarios;
};

/// Times every layer's public calls over `in`, keeps spans in memory, writes
/// them as Chrome trace JSON to `span_path`, and adds the svc.*, analysis.*,
/// rt.* and trace.* per-layer metrics to `sink`.
void run_layers(const LayerInputs& in, const std::string& span_path,
                MetricSink& sink, Tally& tally);

/// Client-side figures of a request loop. In an open loop a request is due
/// at its scheduled send time; in a closed loop with one request
/// outstanding it is due when the previous answer arrived.
struct LoopStats {
  std::vector<double> latency_us;  ///< answer minus due time, due order
  std::vector<double> late_us;     ///< send (or start) minus due time
  std::uint64_t backlog_max = 0;   ///< peak outstanding requests
};

/// Adds lat_p50_us / lat_p99_us (end-to-end).
void add_latency_metrics(LoopStats& loop, MetricSink& sink);
/// Adds client.late_p99_us / client.backlog_max (per-layer).
void add_client_metrics(LoopStats& loop, MetricSink& sink);
void add_serve_metrics(const ServeLoad& load, MetricSink& sink);

}  // namespace perfbench
