#include "fault/plan.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "common/json_escape.hpp"
#include "common/minimize.hpp"
#include "common/rng.hpp"
#include "svc/json.hpp"
#include "task/task.hpp"

namespace reconf::fault {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kWcetOverrun:
      return "wcet";
    case FaultKind::kPortFail:
      return "port-fail";
    case FaultKind::kPortSlow:
      return "port-slow";
    case FaultKind::kFabric:
      return "fabric";
  }
  return "?";
}

namespace {

using svc::json::Value;

[[noreturn]] void fail(int line, const std::string& what) {
  throw FaultPlanError("fault plan line " + std::to_string(line) + ": " +
                       what);
}

/// Every field is a tick value or a small count, held to the input domain
/// (task/task.hpp) so an overrun or slow window cannot overflow a job's
/// remaining time.
Ticks require_nonneg(const Value& obj, const char* key, int line) {
  const Value* v = obj.find(key);
  if (v == nullptr) fail(line, std::string("missing \"") + key + "\"");
  if (v->kind != Value::Kind::kNumber || !v->integral || v->integer < 0) {
    fail(line, std::string("\"") + key + "\" must be a non-negative integer");
  }
  if (v->integer > kMaxTicks) {
    fail(line, std::string("\"") + key + "\" out of range (max " +
                   std::to_string(kMaxTicks) + ")");
  }
  return static_cast<Ticks>(v->integer);
}

Ticks require_positive(const Value& obj, const char* key, int line) {
  const Ticks v = require_nonneg(obj, key, line);
  if (v <= 0) fail(line, std::string("\"") + key + "\" must be positive");
  return v;
}

std::string optional_name(const Value& obj, int line) {
  const Value* v = obj.find("name");
  if (v == nullptr) return {};
  if (v->kind != Value::Kind::kString || v->text.empty()) {
    fail(line, "\"name\" must be a non-empty string");
  }
  return v->text;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  bool have_header = false;
  Ticks last_at = 0;
  svc::json::for_each_object_line(text, fail, [&](const Value& obj,
                                                  int line_no) {
    if (!have_header) {
      static constexpr const char* kHeaderKeys[] = {"fault_plan"};
      svc::json::reject_unknown_keys(obj, kHeaderKeys, line_no, fail);
      const Value* name = obj.find("fault_plan");
      if (name == nullptr) fail(line_no, "missing \"fault_plan\" header");
      if (name->kind != Value::Kind::kString) {
        fail(line_no, "\"fault_plan\" must be a string");
      }
      plan.name = name->text;
      have_header = true;
      return;
    }

    FaultEvent event;
    event.at = require_nonneg(obj, "at", line_no);
    if (event.at < last_at) {
      fail(line_no, "events must be in non-decreasing \"at\" order");
    }
    const Value* kind = obj.find("fault");
    if (kind == nullptr || kind->kind != Value::Kind::kString) {
      fail(line_no, "missing \"fault\" kind");
    }
    if (kind->text == "wcet") {
      static constexpr const char* kKeys[] = {"at", "fault", "name", "extra"};
      svc::json::reject_unknown_keys(obj, kKeys, line_no, fail);
      event.kind = FaultKind::kWcetOverrun;
      event.name = optional_name(obj, line_no);
      if (event.name.empty()) fail(line_no, "\"wcet\" requires \"name\"");
      event.extra = require_positive(obj, "extra", line_no);
    } else if (kind->text == "port-fail") {
      static constexpr const char* kKeys[] = {"at", "fault", "count"};
      svc::json::reject_unknown_keys(obj, kKeys, line_no, fail);
      event.kind = FaultKind::kPortFail;
      event.count = static_cast<int>(
          obj.find("count") != nullptr ? require_positive(obj, "count", line_no)
                                       : 1);
      if (event.count > 1'000'000) fail(line_no, "\"count\" is absurd");
    } else if (kind->text == "port-slow") {
      static constexpr const char* kKeys[] = {"at", "fault", "until",
                                              "factor"};
      svc::json::reject_unknown_keys(obj, kKeys, line_no, fail);
      event.kind = FaultKind::kPortSlow;
      event.until = require_positive(obj, "until", line_no);
      if (event.until <= event.at) {
        fail(line_no, "\"until\" must be after \"at\"");
      }
      event.factor = obj.find("factor") != nullptr
                         ? require_positive(obj, "factor", line_no)
                         : 2;
      if (event.factor < 2) fail(line_no, "\"factor\" must be at least 2");
      if (event.factor > 1024) fail(line_no, "\"factor\" is absurd");
    } else if (kind->text == "fabric") {
      static constexpr const char* kKeys[] = {"at", "fault", "name"};
      svc::json::reject_unknown_keys(obj, kKeys, line_no, fail);
      event.kind = FaultKind::kFabric;
      event.name = optional_name(obj, line_no);
    } else {
      fail(line_no,
           "\"fault\" must be \"wcet\", \"port-fail\", \"port-slow\" or "
           "\"fabric\"");
    }
    last_at = event.at;
    plan.events.push_back(std::move(event));
  });
  if (!have_header) {
    throw FaultPlanError(
        "fault plan: missing header line ({\"fault_plan\":\"...\"})");
  }
  return plan;
}

std::string format_fault_plan(const FaultPlan& plan) {
  std::string out =
      "{\"fault_plan\":\"" + json_escape(plan.name) + "\"}\n";
  for (const FaultEvent& e : plan.events) {
    out += "{\"at\":" + std::to_string(e.at) + ",\"fault\":\"" +
           to_string(e.kind) + "\"";
    switch (e.kind) {
      case FaultKind::kWcetOverrun:
        out += ",\"name\":\"" + json_escape(e.name) + "\"";
        out += ",\"extra\":" + std::to_string(e.extra);
        break;
      case FaultKind::kPortFail:
        out += ",\"count\":" + std::to_string(e.count);
        break;
      case FaultKind::kPortSlow:
        out += ",\"until\":" + std::to_string(e.until);
        out += ",\"factor\":" + std::to_string(e.factor);
        break;
      case FaultKind::kFabric:
        if (!e.name.empty()) {
          out += ",\"name\":\"" + json_escape(e.name) + "\"";
        }
        break;
    }
    out += "}\n";
  }
  return out;
}

FaultPlan generate_fault_plan(const FaultPlanGenOptions& options) {
  RECONF_EXPECTS(options.horizon > 0);
  RECONF_EXPECTS(options.faults >= 0);
  Xoshiro256ss rng(derive_seed(options.seed, 0xFA17B10Cull));
  FaultPlan plan;
  plan.name = "plan-" + std::to_string(options.seed);
  if (options.faults == 0) return plan;

  std::vector<Ticks> times;
  times.reserve(static_cast<std::size_t>(options.faults));
  for (int i = 0; i < options.faults; ++i) {
    times.push_back(rng.uniform_int(0, options.horizon - 1));
  }
  std::sort(times.begin(), times.end());

  for (const Ticks at : times) {
    FaultEvent e;
    e.at = at;
    // Weight toward the kinds the runtime has to work hardest for; a plan
    // with no targetable names can only exercise the port.
    const std::int64_t roll =
        rng.uniform_int(0, options.names.empty() ? 1 : 5);
    switch (roll) {
      case 0: {
        e.kind = FaultKind::kPortFail;
        e.count = static_cast<int>(rng.uniform_int(1, 3));
        break;
      }
      case 1: {
        e.kind = FaultKind::kPortSlow;
        e.until = at + rng.uniform_int(1, std::max<Ticks>(
                                              1, options.horizon / 8));
        e.factor = rng.uniform_int(2, 5);
        break;
      }
      case 2:
      case 3: {
        e.kind = FaultKind::kWcetOverrun;
        e.name = options.names[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(options.names.size()) - 1))];
        e.extra = rng.uniform_int(1, 400);
        break;
      }
      default: {
        e.kind = FaultKind::kFabric;
        // One in three fabric faults hits the whole fabric.
        if (rng.uniform_int(0, 2) != 0) {
          e.name = options.names[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(options.names.size()) - 1))];
        }
        break;
      }
    }
    plan.events.push_back(std::move(e));
  }
  return plan;
}

namespace {

/// The fields each fault kind carries; on an event of another kind a
/// field's floor is its own value, so the minimizer leaves it alone.
constexpr minimize::Field<FaultEvent> kEventFields[] = {
    {[](const FaultEvent& e) -> std::int64_t { return e.extra; },
     [](FaultEvent& e, std::int64_t v) { e.extra = v; },
     [](const FaultEvent& e) -> std::int64_t {
       return e.kind == FaultKind::kWcetOverrun ? 1 : e.extra;
     }},
    {[](const FaultEvent& e) -> std::int64_t { return e.count; },
     [](FaultEvent& e, std::int64_t v) { e.count = static_cast<int>(v); },
     [](const FaultEvent& e) -> std::int64_t {
       return e.kind == FaultKind::kPortFail ? 1 : e.count;
     }},
    {[](const FaultEvent& e) -> std::int64_t { return e.factor; },
     [](FaultEvent& e, std::int64_t v) { e.factor = v; },
     [](const FaultEvent& e) -> std::int64_t {
       return e.kind == FaultKind::kPortSlow ? 2 : e.factor;
     }},
    {[](const FaultEvent& e) -> std::int64_t { return e.until; },
     [](FaultEvent& e, std::int64_t v) { e.until = v; },
     [](const FaultEvent& e) -> std::int64_t {
       return e.kind == FaultKind::kPortSlow ? e.at + 1 : e.until;
     }},
};

}  // namespace

FaultPlan shrink_fault_plan(const FaultPlan& plan,
                            const PlanShrinkPredicate& still_fails) {
  using Minimizer = minimize::Minimizer<FaultPlan, FaultEvent>;
  static constexpr Minimizer::Shape kShape{&FaultPlan::events, 0,
                                           kEventFields, {}, {}};
  return Minimizer::run(kShape, plan, still_fails).best;
}

}  // namespace reconf::fault
