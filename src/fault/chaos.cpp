#include "fault/chaos.hpp"

#include <sstream>
#include <utility>

#include "svc/json.hpp"

namespace reconf::fault {

namespace {

constexpr const char kExpectPrefix[] = "#expect ";
constexpr std::size_t kExpectPrefixLen = sizeof(kExpectPrefix) - 1;

/// Whether `line` is the fault-plan header: a JSON object with a top-level
/// "fault_plan" member. A scenario line that merely mentions the word (a
/// task or scenario named "fault_plan") is not.
bool is_plan_header(const std::string& line) {
  if (line.find("\"fault_plan\"") == std::string::npos) return false;
  try {
    const svc::json::Value value = svc::json::parse(line);
    return value.kind == svc::json::Value::Kind::kObject &&
           value.find("fault_plan") != nullptr;
  } catch (const svc::json::JsonError&) {
    return false;  // not JSON: left for the section's own parser to report
  }
}

}  // namespace

ChaosCase parse_chaos_case(const std::string& text) {
  ChaosCase out;
  std::string scenario_text;
  std::string plan_text;
  bool in_plan = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, kExpectPrefixLen, kExpectPrefix) == 0) {
      const std::string rest = line.substr(kExpectPrefixLen);
      const std::size_t space = rest.find(' ');
      if (space == std::string::npos) {
        throw FaultPlanError("chaos: malformed #expect line (want "
                             "\"#expect <config> <summary_json>\")");
      }
      ChaosExpect e;
      e.config = rest.substr(0, space);
      e.summary = rest.substr(space + 1);
      out.expects.push_back(std::move(e));
      continue;
    }
    // The fault-plan header opens the second section; everything before it
    // (comments included) is the scenario's.
    if (!in_plan && is_plan_header(line)) in_plan = true;
    (in_plan ? plan_text : scenario_text) += line;
    (in_plan ? plan_text : scenario_text) += '\n';
  }
  if (!in_plan) {
    throw FaultPlanError("chaos: missing {\"fault_plan\":...} section");
  }
  out.scenario = rt::parse_scenario(scenario_text);
  out.plan = parse_fault_plan(plan_text);
  return out;
}

std::string format_chaos_case(const ChaosCase& c) {
  std::string out = rt::format_scenario(c.scenario);
  out += format_fault_plan(c.plan);
  for (const ChaosExpect& e : c.expects) {
    out += kExpectPrefix + e.config + " " + e.summary + "\n";
  }
  return out;
}

}  // namespace reconf::fault
