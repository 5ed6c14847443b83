#include "rt/scenario.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "common/json_escape.hpp"
#include "common/rng.hpp"
#include "svc/json.hpp"

namespace reconf::rt {

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kArrive:
      return "arrive";
    case EventKind::kDepart:
      return "depart";
    case EventKind::kModeChange:
      return "mode-change";
  }
  return "?";
}

const char* to_string(ScenarioFamily family) noexcept {
  switch (family) {
    case ScenarioFamily::kSteady:
      return "steady";
    case ScenarioFamily::kChurn:
      return "churn";
    case ScenarioFamily::kReconfHeavy:
      return "reconf-heavy";
  }
  return "?";
}

std::optional<ScenarioFamily> scenario_family_from(
    std::string_view name) noexcept {
  if (name == "steady") return ScenarioFamily::kSteady;
  if (name == "churn") return ScenarioFamily::kChurn;
  if (name == "reconf-heavy") return ScenarioFamily::kReconfHeavy;
  return std::nullopt;
}

namespace {

using svc::json::Value;

[[noreturn]] void fail(int line, const std::string& what) {
  throw ScenarioError("scenario line " + std::to_string(line) + ": " + what);
}

/// Fails unless `v` ≤ `max`: tick values stay inside the input domain
/// (task/task.hpp), so no release, deadline or load time the runtime forms
/// from them can overflow, and column counts are never truncated.
Ticks at_most(Ticks v, Ticks max, const char* key, int line) {
  if (v > max) {
    fail(line, std::string("\"") + key + "\" out of range (max " +
                   std::to_string(max) + ")");
  }
  return v;
}

/// Positive integer field, with the same strictness as the svc codec.
Ticks require_ticks(const Value& obj, const char* key, int line,
                    Ticks max = kMaxTicks) {
  const Value* v = obj.find(key);
  if (v == nullptr) fail(line, std::string("missing \"") + key + "\"");
  if (v->kind != Value::Kind::kNumber || !v->integral || v->integer <= 0) {
    fail(line, std::string("\"") + key + "\" must be a positive integer");
  }
  return at_most(v->integer, max, key, line);
}

/// Non-negative integer field with a default.
Ticks optional_ticks(const Value& obj, const char* key, Ticks fallback,
                     int line) {
  const Value* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != Value::Kind::kNumber || !v->integral || v->integer < 0) {
    fail(line, std::string("\"") + key + "\" must be a non-negative integer");
  }
  return at_most(v->integer, kMaxTicks, key, line);
}

std::string require_string(const Value& obj, const char* key, int line) {
  const Value* v = obj.find(key);
  if (v == nullptr) fail(line, std::string("missing \"") + key + "\"");
  if (v->kind != Value::Kind::kString || v->text.empty()) {
    fail(line, std::string("\"") + key + "\" must be a non-empty string");
  }
  return v->text;
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  bool have_header = false;
  Ticks last_at = 0;
  svc::json::for_each_object_line(text, fail, [&](const Value& obj,
                                                  int line_no) {
    if (!have_header) {
      static constexpr const char* kHeaderKeys[] = {
          "scenario", "device", "horizon", "rho", "reconf_fixed"};
      svc::json::reject_unknown_keys(obj, kHeaderKeys, line_no, fail);
      if (const Value* name = obj.find("scenario")) {
        if (name->kind != Value::Kind::kString) {
          fail(line_no, "\"scenario\" must be a string");
        }
        scenario.name = name->text;
      }
      scenario.device.width =
          static_cast<Area>(require_ticks(obj, "device", line_no, kMaxWidth));
      scenario.horizon = require_ticks(obj, "horizon", line_no);
      scenario.reconf.per_column = optional_ticks(obj, "rho", 0, line_no);
      scenario.reconf.fixed = optional_ticks(obj, "reconf_fixed", 0, line_no);
      have_header = true;
      return;
    }

    ScenarioEvent event;
    event.at = optional_ticks(obj, "at", -1, line_no);
    if (obj.find("at") == nullptr) fail(line_no, "missing \"at\"");
    if (event.at < last_at) {
      fail(line_no, "events must be in non-decreasing \"at\" order");
    }
    const std::string kind = require_string(obj, "event", line_no);
    event.name = require_string(obj, "name", line_no);
    if (kind == "depart") {
      static constexpr const char* kDepartKeys[] = {"at", "event", "name"};
      svc::json::reject_unknown_keys(obj, kDepartKeys, line_no, fail);
      event.kind = EventKind::kDepart;
    } else if (kind == "arrive" || kind == "mode-change") {
      static constexpr const char* kTaskKeys[] = {
          "at", "event", "name", "c", "d", "t", "a", "start", "value"};
      svc::json::reject_unknown_keys(obj, kTaskKeys, line_no, fail);
      event.kind =
          kind == "arrive" ? EventKind::kArrive : EventKind::kModeChange;
      event.task.wcet = require_ticks(obj, "c", line_no);
      event.task.deadline = require_ticks(obj, "d", line_no);
      event.task.period = require_ticks(obj, "t", line_no);
      event.task.area =
          static_cast<Area>(require_ticks(obj, "a", line_no, kMaxWidth));
      event.task.name = event.name;
      if (obj.find("value") != nullptr) {
        event.value = require_ticks(obj, "value", line_no);
      }
      if (obj.find("start") != nullptr) {
        event.start = optional_ticks(obj, "start", event.at, line_no);
        if (event.start < event.at) {
          fail(line_no, "\"start\" must be at or after \"at\"");
        }
      }
    } else {
      fail(line_no, "\"event\" must be \"arrive\", \"depart\" or "
                    "\"mode-change\"");
    }
    last_at = event.at;
    scenario.events.push_back(std::move(event));
  });
  if (!have_header) {
    throw ScenarioError("scenario: missing header line "
                        "({\"device\":...,\"horizon\":...})");
  }
  if (std::any_of(scenario.events.begin(), scenario.events.end(),
                  [&](const ScenarioEvent& e) {
                    return e.at >= scenario.horizon;
                  })) {
    throw ScenarioError("scenario: event at or beyond the horizon");
  }
  return scenario;
}

std::string format_scenario(const Scenario& scenario) {
  std::string out = "{";
  if (!scenario.name.empty()) {
    out += "\"scenario\":\"" + json_escape(scenario.name) + "\",";
  }
  out += "\"device\":" + std::to_string(scenario.device.width);
  out += ",\"horizon\":" + std::to_string(scenario.horizon);
  if (scenario.reconf.per_column != 0) {
    out += ",\"rho\":" + std::to_string(scenario.reconf.per_column);
  }
  if (scenario.reconf.fixed != 0) {
    out += ",\"reconf_fixed\":" + std::to_string(scenario.reconf.fixed);
  }
  out += "}\n";
  for (const ScenarioEvent& e : scenario.events) {
    out += "{\"at\":" + std::to_string(e.at) + ",\"event\":\"" +
           to_string(e.kind) + "\",\"name\":\"" + json_escape(e.name) +
           "\"";
    if (e.kind != EventKind::kDepart) {
      out += ",\"c\":" + std::to_string(e.task.wcet) +
             ",\"d\":" + std::to_string(e.task.deadline) +
             ",\"t\":" + std::to_string(e.task.period) +
             ",\"a\":" + std::to_string(e.task.area);
      if (e.start != kNoTick && e.start != e.at) {
        out += ",\"start\":" + std::to_string(e.start);
      }
      if (e.value != 1) {
        out += ",\"value\":" + std::to_string(e.value);
      }
    }
    out += "}\n";
  }
  return out;
}

namespace {

/// Draws a well-formed task; `duty` is the C/T ratio range.
Task draw_task(Xoshiro256ss& rng, Area area_lo, Area area_hi,
               Ticks period_lo, Ticks period_hi, double duty_lo,
               double duty_hi) {
  Task t;
  t.area = static_cast<Area>(rng.uniform_int(area_lo, area_hi));
  t.period = rng.uniform_int(period_lo, period_hi);
  const double duty = rng.uniform(duty_lo, duty_hi);
  t.wcet = std::max<Ticks>(
      1, static_cast<Ticks>(duty * static_cast<double>(t.period)));
  // Mostly implicit deadlines, sometimes constrained.
  t.deadline = rng.uniform01() < 0.3
                   ? rng.uniform_int(t.wcet, t.period)
                   : t.period;
  return t;
}

}  // namespace

Scenario generate_scenario(const ScenarioGenOptions& options) {
  RECONF_EXPECTS(options.arrivals > 0 && options.device.valid());
  Xoshiro256ss rng(derive_seed(options.seed, 0x5CE4A210u));
  Scenario s;
  s.name = std::string(to_string(options.family)) + "-" +
           std::to_string(options.seed);
  s.device = options.device;

  const Area w = options.device.width;
  struct Live {
    std::string name;
    Ticks since = 0;
  };
  std::vector<Live> live;
  int next_id = 0;
  Ticks clock = 0;
  Ticks max_period = 1;

  const auto push_arrival = [&](Ticks at, Task task, Ticks start) {
    ScenarioEvent e;
    e.at = at;
    e.kind = EventKind::kArrive;
    e.name = "t" + std::to_string(next_id++);
    task.name = e.name;
    e.task = std::move(task);
    e.start = start;
    live.push_back({e.name, at});
    max_period = std::max(max_period, e.task.period);
    s.events.push_back(std::move(e));
  };

  switch (options.family) {
    case ScenarioFamily::kSteady: {
      for (int i = 0; i < options.arrivals; ++i) {
        clock += rng.uniform_int(0, 400);
        push_arrival(clock,
                     draw_task(rng, std::max<Area>(1, w / 20), w / 3, 300,
                               2000, 0.05, 0.45),
                     kNoTick);
        // Occasionally one of the older tasks leaves.
        if (live.size() > 3 && rng.uniform01() < 0.25) {
          const std::size_t victim = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          ScenarioEvent e;
          e.at = clock;
          e.kind = EventKind::kDepart;
          e.name = live[victim].name;
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
          s.events.push_back(std::move(e));
        }
      }
      break;
    }
    case ScenarioFamily::kChurn: {
      for (int i = 0; i < options.arrivals; ++i) {
        clock += rng.uniform_int(50, 600);
        const double roll = rng.uniform01();
        if (roll < 0.2 && !live.empty()) {
          // Mode change on a random live task.
          const std::size_t victim = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          ScenarioEvent e;
          e.at = clock;
          e.kind = EventKind::kModeChange;
          e.name = live[victim].name;
          e.task = draw_task(rng, std::max<Area>(1, w / 16), w / 2, 200,
                             1500, 0.05, 0.5);
          e.task.name = e.name;
          max_period = std::max(max_period, e.task.period);
          e.start = clock + rng.uniform_int(0, 300);
          s.events.push_back(std::move(e));
        } else if (roll < 0.45 && live.size() > 1) {
          const std::size_t victim = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          ScenarioEvent e;
          e.at = clock;
          e.kind = EventKind::kDepart;
          e.name = live[victim].name;
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
          s.events.push_back(std::move(e));
        } else {
          push_arrival(clock,
                       draw_task(rng, std::max<Area>(1, w / 16), w / 2, 200,
                                 1500, 0.05, 0.5),
                       clock + rng.uniform_int(0, 200));
        }
      }
      break;
    }
    case ScenarioFamily::kReconfHeavy: {
      // Fat configurations (Σ areas well beyond A(H)) with low duty cycles
      // and an admission-to-activation gap: almost every release finds its
      // configuration evicted, so the run is dominated by reconfiguration —
      // exactly where prefetch pays.
      s.reconf.per_column = ReconfCostModel::kDefaultPerColumnTicks;
      for (int i = 0; i < options.arrivals; ++i) {
        clock += rng.uniform_int(100, 500);
        Task t = draw_task(rng, w / 4, (w * 3) / 5, 2500, 6000, 0.04, 0.12);
        t.deadline = t.period;  // implicit: admission must not reject on D
        push_arrival(clock, std::move(t), clock + rng.uniform_int(200, 800));
      }
      break;
    }
  }

  s.horizon = clock + 4 * max_period + 1;
  return s;
}

std::vector<std::string> arrival_names(const Scenario& scenario) {
  std::vector<std::string> names;
  for (const ScenarioEvent& e : scenario.events) {
    if (e.kind != EventKind::kArrive) continue;
    if (std::find(names.begin(), names.end(), e.name) == names.end()) {
      names.push_back(e.name);
    }
  }
  return names;
}

}  // namespace reconf::rt
