#pragma once

// Umbrella header for the reconf-edf library: EDF schedulability analysis
// and simulation for hardware tasks on 1D partially runtime-reconfigurable
// devices, reproducing Guan, Gu, Deng, Liu, Yu — "Improved Schedulability
// Analysis of EDF Scheduling on Reconfigurable Hardware Devices"
// (IPDPS 2007).
//
// The analysis entry point is the Analyzer registry + AnalysisEngine
// (analysis/engine.hpp, analysis/registry.hpp): every schedulability test —
// the paper's DP/GN1/GN2, the mp:: multiprocessor cross-checks, the
// partitioned-EDF baseline, and any backend you register yourself — is an
// `Analyzer` with an id and capability metadata (scheduler soundness,
// deadline model, cost class). An `AnalysisEngine` resolves an
// `AnalysisRequest` (test ids, optional scheduler restriction, per-test
// options, early exit) once and then serves thread-safe, deterministic
// verdicts two ways: run() is the timed reference report (per-analyzer
// reports and timings), decide() the untimed, allocation-free kernel
// verdict. Both agree on every verdict, and the engine's configuration
// fingerprint keys caching.
//
// Typical use:
//
//   #include "reconf/reconf.hpp"
//   using namespace reconf;
//
//   const TaskSet ts({make_task(2.10, 5, 5, 7), make_task(2.00, 7, 7, 7)});
//   const Device fpga{10};
//
//   // Section 6 recommendation: run the paper trio, accept if any accepts.
//   const analysis::AnalysisEngine engine(analysis::AnalysisRequest{});
//   const auto verdict = engine.run(ts, fpga);          // per-test reports
//   // Or the verdict alone, through the allocation-free kernels:
//   const bool any = analysis::AnalysisEngine(analysis::fast_any_request())
//                        .decide(ts, fpga).accepted();
//
//   const auto run = sim::simulate(ts, fpga);           // validate by sim
//
// The svc/ layer serves engine verdicts. svc::AdmissionSession is the
// runtime's online admission gate: decide() on the set it holds plus the
// arriving task. evaluate_with_engine answers one request behind a
// per-shard LRU verdict cache keyed by the canonical taskset hash mixed
// with the engine fingerprint — through decide(), or run() with
// per-analyzer sub-verdicts when BatchOptions::explain is set — and the
// NDJSON codec reads and writes the wire; net/ is the serving core behind
// reconf_serve.
//
// The sim/ layer simulates the paper's 1D model (sim::simulate). Its
// sim::JobTable is the one EDF dispatch core: the simulator and the online
// runtime both order, place, advance and observe their jobs through it, each
// passing its own hook that charges a job entering the running set.
//
// The rt/ layer turns the analyzer into an online scheduler: rt::run_scenario
// replays a timed arrival/departure/mode-change workload (rt/scenario.hpp)
// through an admission gate, the EDF next-fit dispatcher of sim::JobTable and
// a prefetch-aware reconfiguration port (rt/prefetch.hpp), with the shared
// reconfiguration cost model (reconf/cost_model.hpp) charging every
// placement.

#include "analysis/dp.hpp"
#include "analysis/engine.hpp"
#include "analysis/gn1.hpp"
#include "analysis/gn2.hpp"
#include "analysis/hash.hpp"
#include "analysis/overhead.hpp"
#include "analysis/registry.hpp"
#include "analysis/sensitivity.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "exp/series.hpp"
#include "exp/sweep.hpp"
#include "gen/generator.hpp"
#include "gen/rng.hpp"
#include "mp/mp_tests.hpp"
#include "partition/partitioned.hpp"
#include "placement/column_map.hpp"
#include "reconf/cost_model.hpp"
#include "rt/prefetch.hpp"
#include "rt/runtime.hpp"
#include "rt/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/invariants.hpp"
#include "sim/job_table.hpp"
#include "svc/batch.hpp"
#include "svc/codec.hpp"
#include "svc/session.hpp"
#include "svc/verdict_cache.hpp"
#include "task/fixtures.hpp"
#include "task/io.hpp"
#include "task/task.hpp"
#include "task/taskset.hpp"
