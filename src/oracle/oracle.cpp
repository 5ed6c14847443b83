#include "oracle/oracle.hpp"

#include <string>
#include <utility>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace reconf::oracle {

namespace {

sim::SimConfig base_config(sim::SchedulerKind scheduler,
                           const OracleConfig& config) {
  sim::SimConfig cfg;
  cfg.scheduler = scheduler;
  cfg.horizon_periods = config.horizon_periods;
  cfg.stop_on_first_miss = true;
  cfg.check_invariants = config.check_invariants;
  return cfg;
}

void collect_violations(SchedulerEvidence& evidence,
                        const sim::SimResult& result,
                        const std::string& pattern) {
  for (const std::string& v : result.invariant_violations) {
    if (evidence.invariant_violations.size() >= 16) return;
    evidence.invariant_violations.push_back(pattern + ": " + v);
  }
}

}  // namespace

SchedulerEvidence probe_scheduler(const TaskSet& ts, Device device,
                                  sim::SchedulerKind scheduler,
                                  const OracleConfig& config) {
  SchedulerEvidence evidence;

  const sim::SimConfig sync_cfg = base_config(scheduler, config);
  const sim::SimResult sync = sim::simulate(ts, device, sync_cfg);
  evidence.sync_miss = !sync.schedulable;
  evidence.any_miss = evidence.sync_miss;
  evidence.exact = sync.horizon_was_hyperperiod;
  if (sync.first_miss) evidence.sync_first_miss = sync.first_miss->deadline;
  collect_violations(evidence, sync, "sync");

  for (int trial = 0; trial < config.offset_trials; ++trial) {
    sim::SimConfig cfg = base_config(scheduler, config);
    // Offsets are a pure function of (offset_seed, scheduler, trial, i):
    // a disagreement found in CI replays bit-identically anywhere.
    Xoshiro256ss rng(derive_seed(
        config.offset_seed ^ static_cast<std::uint64_t>(scheduler),
        static_cast<std::uint64_t>(trial)));
    cfg.offsets.reserve(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      cfg.offsets.push_back(rng.uniform_int(0, ts[i].period));
    }
    const sim::SimResult run = sim::simulate(ts, device, cfg);
    if (!run.schedulable) evidence.any_miss = true;
    collect_violations(evidence, run,
                       "offsets[" + std::to_string(trial) + "]");
  }
  return evidence;
}

OracleEvidence probe(const TaskSet& ts, Device device,
                     const OracleConfig& config, bool with_offsets) {
  OracleConfig cfg = config;
  if (!with_offsets) cfg.offset_trials = 0;

  OracleEvidence out;
  out.nf = probe_scheduler(ts, device, sim::SchedulerKind::kEdfNf, cfg);
  out.fkf = probe_scheduler(ts, device, sim::SchedulerKind::kEdfFkF, cfg);
  // Danne dominance, checked on the shared sync pattern: EDF-FkF meeting
  // every deadline while EDF-NF misses one would be a simulator bug.
  out.dominance_violated = !out.fkf.sync_miss && out.nf.sync_miss;
  return out;
}

}  // namespace reconf::oracle
