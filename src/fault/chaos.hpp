#pragma once

#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "rt/scenario.hpp"

namespace reconf::fault {

/// One pinned replay: `config` names the runtime configuration as
/// "<overrun-action>/<prefetch>" (e.g. "degrade/hybrid"), `summary` is the
/// byte-exact rt::RuntimeResult::summary_json() the run must reproduce.
struct ChaosExpect {
  std::string config;
  std::string summary;
};

/// A committed chaos-corpus entry: one scenario, one fault plan, and the
/// `#expect` lines that pin its replay bit-stably (same contract as the
/// scenario corpus, extended with the fault dimension).
struct ChaosCase {
  rt::Scenario scenario;
  FaultPlan plan;
  std::vector<ChaosExpect> expects;
};

/// Parses a combined `.chaos` file: scenario NDJSON first, then the fault
/// plan (the first line whose object has a top-level "fault_plan" member
/// starts the second section), with `#expect <config> <summary_json>`
/// comment lines collected from anywhere.
/// Throws rt::ScenarioError / FaultPlanError on malformed input.
[[nodiscard]] ChaosCase parse_chaos_case(const std::string& text);

/// Canonical text for `c`; parse_chaos_case(format_chaos_case(c))
/// round-trips bit-exactly.
[[nodiscard]] std::string format_chaos_case(const ChaosCase& c);

}  // namespace reconf::fault
