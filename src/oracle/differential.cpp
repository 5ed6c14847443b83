#include "oracle/differential.hpp"

#include <cstdio>
#include <utility>

#include "analysis/registry.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace reconf::oracle {

namespace {

analysis::AnalysisRequest reference_request(std::vector<std::string> tests) {
  analysis::AnalysisRequest request;
  request.tests = std::move(tests);
  // Reference configuration: every analyzer runs (no early exit), so each
  // run() outcome is a genuine reference-evaluator verdict to hold against
  // both decide() and the simulation.
  request.early_exit = false;
  return request;
}

}  // namespace

const char* to_string(DisagreementKind kind) noexcept {
  switch (kind) {
    case DisagreementKind::kSufficiencyViolation:
      return "sufficiency_violation";
    case DisagreementKind::kFastSlowDivergence:
      return "fast_slow_divergence";
    case DisagreementKind::kSimInvariantViolation:
      return "sim_invariant_violation";
  }
  return "?";
}

void OracleStats::merge(const OracleStats& other) {
  tasksets += other.tasksets;
  sufficiency_violations += other.sufficiency_violations;
  fast_slow_divergences += other.fast_slow_divergences;
  sim_invariant_violations += other.sim_invariant_violations;
  for (const auto& [family, fs] : other.families) {
    FamilyStats& mine = families[family];
    mine.tasksets += fs.tasksets;
    mine.exact_oracle += fs.exact_oracle;
    mine.sync_miss += fs.sync_miss;
    mine.accepted_any += fs.accepted_any;
    for (const auto& [id, cell] : fs.analyzers) {
      AnalyzerCell& target = mine.analyzers[id];
      target.runs += cell.runs;
      target.accepts += cell.accepts;
      target.violations += cell.violations;
      target.exact_schedulable_samples += cell.exact_schedulable_samples;
      target.pessimism_samples += cell.pessimism_samples;
    }
  }
}

DifferentialHarness::DifferentialHarness(
    std::vector<std::string> tests,
    const analysis::AnalyzerRegistry& registry, OracleConfig oracle_config)
    : engine_(reference_request(tests.empty() ? registry.ids()
                                              : std::move(tests)),
              registry),
      oracle_config_(oracle_config) {}

void DifferentialHarness::adjudicate(const TaskSet& ts, Device device,
                                     FuzzFamily family, std::uint64_t seed,
                                     OracleStats& stats,
                                     std::vector<Disagreement>* out) const {
  const obs::Span adjudicate_span("oracle.adjudicate", "oracle");
  static obs::Counter& obs_tasksets =
      obs::MetricsRegistry::instance().counter(
          "reconf_oracle_tasksets_total");
  static obs::Counter& obs_disagreements =
      obs::MetricsRegistry::instance().counter(
          "reconf_oracle_disagreements_total");
  static obs::Histogram& obs_latency =
      obs::MetricsRegistry::instance().histogram(
          "reconf_oracle_adjudicate_ns");
  const bool timed = obs::enabled();
  Stopwatch adjudicate_watch;
  obs_tasksets.inc();

  const auto emit = [&](Disagreement d) {
    obs_disagreements.inc();
    if (out != nullptr) out->push_back(std::move(d));
  };
  const auto base_disagreement = [&](DisagreementKind kind) {
    Disagreement d;
    d.kind = kind;
    d.taskset = ts;
    d.device = device;
    d.family = family;
    d.seed = seed;
    return d;
  };

  const analysis::AnalysisReport report = engine_.run(ts, device);
  const analysis::Decision decision = engine_.decide(ts, device);

  ++stats.tasksets;
  FamilyStats& fs = stats.families[family];
  ++fs.tasksets;

  // ---- fast path vs reference path --------------------------------------
  if (decision.verdict != report.verdict ||
      decision.accepted_by != report.accepted_by()) {
    ++stats.fast_slow_divergences;
    Disagreement d = base_disagreement(DisagreementKind::kFastSlowDivergence);
    d.analyzer = "engine";
    d.detail = "run(): " +
               std::string(report.accepted() ? "schedulable" : "inconclusive") +
               " by '" + report.accepted_by() + "'; decide(): " +
               std::string(decision.accepted() ? "schedulable"
                                               : "inconclusive") +
               " by '" + std::string(decision.accepted_by) + "'";
    emit(std::move(d));
  }

  // ---- simulation evidence ---------------------------------------------
  // Offsets only earn their simulation time when there is an acceptance to
  // attack; rejected tasksets still get the sync probes for the pessimism
  // ledger.
  const OracleEvidence evidence =
      probe(ts, device, oracle_config_, /*with_offsets=*/report.accepted());

  if (evidence.nf.exact) ++fs.exact_oracle;
  if (evidence.nf.sync_miss) ++fs.sync_miss;
  if (report.accepted()) ++fs.accepted_any;

  if (!evidence.nf.invariant_violations.empty() ||
      !evidence.fkf.invariant_violations.empty() ||
      evidence.dominance_violated) {
    ++stats.sim_invariant_violations;
    Disagreement d =
        base_disagreement(DisagreementKind::kSimInvariantViolation);
    d.analyzer = "sim";
    if (evidence.dominance_violated) {
      d.detail = "EDF-FkF met every deadline but EDF-NF missed (dominance)";
    } else if (!evidence.nf.invariant_violations.empty()) {
      d.detail = "EDF-NF: " + evidence.nf.invariant_violations.front();
    } else {
      d.detail = "EDF-FkF: " + evidence.fkf.invariant_violations.front();
    }
    emit(std::move(d));
  }

  // ---- per-analyzer adjudication ---------------------------------------
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const analysis::AnalyzerOutcome& outcome = report.outcomes[i];
    if (!outcome.ran) continue;  // cannot happen: early_exit is off
    const analysis::Analyzer& analyzer = engine_.analyzer_at(i);
    const analysis::Capabilities caps = analyzer.capabilities();
    AnalyzerCell& cell = fs.analyzers[outcome.id];
    ++cell.runs;

    const bool accepted = outcome.report.accepted();
    if (accepted) ++cell.accepts;

    // Violation check: an acceptance is refuted by any missed deadline
    // under a scheduler the analyzer claims soundness for. Analyzers sound
    // for neither global EDF variant (partition) cannot be adjudicated by
    // these simulations and only contribute accept counts.
    if (accepted) {
      const bool nf_refutes = caps.sound_edf_nf && evidence.nf.any_miss;
      const bool fkf_refutes = caps.sound_edf_fkf && evidence.fkf.any_miss;
      if (nf_refutes || fkf_refutes) {
        ++cell.violations;
        ++stats.sufficiency_violations;
        Disagreement d =
            base_disagreement(DisagreementKind::kSufficiencyViolation);
        d.analyzer = outcome.id;
        d.scheduler = nf_refutes ? sim::SchedulerKind::kEdfNf
                                 : sim::SchedulerKind::kEdfFkF;
        const SchedulerEvidence& ev =
            nf_refutes ? evidence.nf : evidence.fkf;
        d.detail = std::string("accepted but ") + sim::to_string(d.scheduler) +
                   " missed a deadline" +
                   (ev.sync_miss
                        ? " at t=" + std::to_string(ev.sync_first_miss) +
                              " (sync release)"
                        : " (offset release pattern)");
        emit(std::move(d));
      }
    }

    // Pessimism sample: the sync-release oracle was exact and clean, the
    // analyzer actually evaluated (did not refuse the input's model), yet
    // did not accept. A sample, not a proof — sync schedulability says
    // nothing about other release patterns.
    const bool adjudicable = caps.sound_edf_nf || caps.sound_edf_fkf;
    if (adjudicable && !outcome.report.refused) {
      const SchedulerEvidence& ev =
          caps.sound_edf_nf ? evidence.nf : evidence.fkf;
      if (ev.exact && !ev.sync_miss) {
        ++cell.exact_schedulable_samples;
        if (!accepted) ++cell.pessimism_samples;
      }
    }
  }

  if (timed) {
    obs_latency.record(
        static_cast<std::uint64_t>(adjudicate_watch.seconds() * 1e9));
  }
}

std::string stats_to_json(const OracleStats& stats,
                          std::uint64_t master_seed) {
  char buf[256];
  std::string json = "{\n  \"schema\": \"reconf-oracle-stats/1\",\n";
  std::snprintf(buf, sizeof buf, "  \"seed\": \"0x%llx\",\n",
                static_cast<unsigned long long>(master_seed));
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"tasksets\": %llu,\n"
                "  \"sufficiency_violations\": %llu,\n"
                "  \"fast_slow_divergences\": %llu,\n"
                "  \"sim_invariant_violations\": %llu,\n",
                static_cast<unsigned long long>(stats.tasksets),
                static_cast<unsigned long long>(stats.sufficiency_violations),
                static_cast<unsigned long long>(stats.fast_slow_divergences),
                static_cast<unsigned long long>(
                    stats.sim_invariant_violations));
  json += buf;
  json += "  \"families\": [\n";
  std::size_t fi = 0;
  for (const auto& [family, fs] : stats.families) {
    std::snprintf(buf, sizeof buf,
                  "    {\"family\": \"%s\", \"tasksets\": %llu, "
                  "\"exact_oracle\": %llu, \"sync_miss\": %llu, "
                  "\"accepted_any\": %llu, \"analyzers\": [\n",
                  to_string(family),
                  static_cast<unsigned long long>(fs.tasksets),
                  static_cast<unsigned long long>(fs.exact_oracle),
                  static_cast<unsigned long long>(fs.sync_miss),
                  static_cast<unsigned long long>(fs.accepted_any));
    json += buf;
    std::size_t ai = 0;
    for (const auto& [id, cell] : fs.analyzers) {
      std::snprintf(
          buf, sizeof buf,
          "      {\"test\": \"%s\", \"runs\": %llu, \"accepts\": %llu, "
          "\"violations\": %llu, \"exact_schedulable_samples\": %llu, "
          "\"pessimism_samples\": %llu, \"pessimism_rate\": %.4f}%s\n",
          id.c_str(), static_cast<unsigned long long>(cell.runs),
          static_cast<unsigned long long>(cell.accepts),
          static_cast<unsigned long long>(cell.violations),
          static_cast<unsigned long long>(cell.exact_schedulable_samples),
          static_cast<unsigned long long>(cell.pessimism_samples),
          cell.pessimism_rate(), ++ai == fs.analyzers.size() ? "" : ",");
      json += buf;
    }
    json += "    ]}";
    json += ++fi == stats.families.size() ? "\n" : ",\n";
  }
  json += "  ]\n}\n";
  return json;
}

}  // namespace reconf::oracle
