#include "oracle/families.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "gen/generator.hpp"
#include "reconf/cost_model.hpp"
#include "rt/runtime.hpp"
#include "rt/scenario.hpp"

namespace reconf::oracle {

namespace {

/// Seed-domain separation per family: two families fed the same master seed
/// must not draw correlated streams.
std::uint64_t family_seed(const FamilyRequest& r) {
  return derive_seed(r.seed,
                     0xFA417Full ^ static_cast<std::uint64_t>(r.family));
}

Ticks wcet_cap(const Task& t) { return std::min(t.deadline, t.period); }

/// Clamps C into [1, min(D, T)] — every family output is individually
/// feasible by construction.
void clamp_wcet(Task& t) {
  t.wcet = std::clamp<Ticks>(t.wcet, 1, wcet_cap(t));
}

/// One multiplicative pass steering U_S toward `target` within per-task
/// feasibility; deliberately cruder than gen's retarget loop (fuzz inputs
/// should scatter around the target, not sit exactly on it).
void steer_system_util(std::vector<Task>& tasks, double target) {
  double us = 0.0;
  for (const Task& t : tasks) us += t.system_utilization();
  if (us <= 0.0) return;
  const double factor = target / us;
  for (Task& t : tasks) {
    t.wcet = static_cast<Ticks>(
        std::llround(static_cast<double>(t.wcet) * factor));
    clamp_wcet(t);
  }
}

void name_tasks(std::vector<Task>& tasks) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].name = "t" + std::to_string(i + 1);
  }
}

/// Families layered on the Section 6 generator: configure a GenRequest and
/// fall back to an untargeted draw when the U_S target is unreachable for
/// this seed (fuzzing wants a taskset for *every* seed).
TaskSet generate_or_fallback(gen::GenRequest req) {
  if (auto ts = gen::generate_with_retries(req, 8)) return std::move(*ts);
  req.target_system_util.reset();
  auto ts = gen::generate(req);
  RECONF_ASSERT(ts.has_value());  // untargeted generation cannot fail
  return std::move(*ts);
}

FuzzCase unconstrained_case(const FamilyRequest& r, Xoshiro256ss& rng) {
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(r.num_tasks);
  // Sweep the whole cliff, including mild overload (U_S slightly above
  // A(H)) so the "analyzer must reject" side is exercised too.
  req.target_system_util =
      static_cast<double>(r.device.width) * rng.uniform(0.15, 1.10);
  req.target_tolerance = 1.0;
  req.seed = rng.next();
  return {generate_or_fallback(req), r.device};
}

FuzzCase near_boundary_case(const FamilyRequest& r, Xoshiro256ss& rng) {
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(r.num_tasks);
  req.target_system_util =
      static_cast<double>(r.device.width) * rng.uniform(0.90, 0.999);
  req.target_tolerance = 0.35;
  req.seed = rng.next();
  return {generate_or_fallback(req), r.device};
}

FuzzCase harmonic_case(const FamilyRequest& r, Xoshiro256ss& rng) {
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(r.num_tasks);
  // base·2^k ladder: hyperperiod = base·2^3 at most, so the sync-release
  // oracle is exact (horizon_was_hyperperiod) for virtually every draw.
  const Ticks base = 20 + 10 * rng.uniform_int(0, 2);  // 20, 30, 40
  req.profile.period_choices = {base, base * 2, base * 4, base * 8};
  req.target_system_util =
      static_cast<double>(r.device.width) * rng.uniform(0.25, 1.05);
  req.target_tolerance = 1.0;
  req.seed = rng.next();
  return {generate_or_fallback(req), r.device};
}

FuzzCase coprime_case(const FamilyRequest& r, Xoshiro256ss& rng) {
  static constexpr Ticks kPrimes[] = {3,  5,  7,  11, 13, 17,
                                      19, 23, 29, 31, 37, 41};
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(r.num_tasks);
  req.profile.period_choices.reserve(std::size(kPrimes));
  for (const Ticks p : kPrimes) {
    req.profile.period_choices.push_back(p * 10);
  }
  req.target_system_util =
      static_cast<double>(r.device.width) * rng.uniform(0.25, 1.05);
  req.target_tolerance = 1.0;
  req.seed = rng.next();
  return {generate_or_fallback(req), r.device};
}

FuzzCase zero_laxity_case(const FamilyRequest& r, Xoshiro256ss& rng) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(r.num_tasks));
  for (int i = 0; i < r.num_tasks; ++i) {
    Task t;
    t.period = rng.uniform_int(50, 400);
    t.area = static_cast<Area>(rng.uniform_int(1, r.device.width));
    t.wcet = std::max<Ticks>(
        1, static_cast<Ticks>(std::llround(
               rng.uniform(0.02, 0.6) * static_cast<double>(t.period))));
    t.deadline = t.period;  // placeholder until WCETs settle
    tasks.push_back(std::move(t));
  }
  steer_system_util(tasks,
                    static_cast<double>(r.device.width) *
                        rng.uniform(0.2, 0.9));
  // Deadlines are assigned after the U_S steering settles the WCETs —
  // steering must not be able to reopen the laxity.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Task& t = tasks[i];
    // Half the tasks run at zero laxity (D = C); the rest constrained.
    t.deadline =
        (i % 2 == 0) ? t.wcet : rng.uniform_int(t.wcet, t.period);
  }
  name_tasks(tasks);
  return {TaskSet{std::move(tasks)}, r.device};
}

FuzzCase tight_deadline_case(const FamilyRequest& r, Xoshiro256ss& rng) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(r.num_tasks));
  for (int i = 0; i < r.num_tasks; ++i) {
    Task t;
    t.period = rng.uniform_int(80, 600);
    t.area = static_cast<Area>(rng.uniform_int(1, r.device.width));
    t.wcet = std::max<Ticks>(
        1, static_cast<Ticks>(std::llround(
               rng.uniform(0.01, 0.35) * static_cast<double>(t.period))));
    // Quadratic bias pushes D hard toward C — the degenerate corner of the
    // constrained-deadline class.
    const double u = rng.uniform01();
    t.deadline =
        t.wcet + static_cast<Ticks>(std::llround(
                     u * u * static_cast<double>(t.period - t.wcet)));
    clamp_wcet(t);
    tasks.push_back(std::move(t));
  }
  steer_system_util(tasks,
                    static_cast<double>(r.device.width) *
                        rng.uniform(0.2, 0.85));
  name_tasks(tasks);
  return {TaskSet{std::move(tasks)}, r.device};
}

FuzzCase heavy_tail_arbitrary_case(const FamilyRequest& r,
                                   Xoshiro256ss& rng) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(r.num_tasks));
  for (int i = 0; i < r.num_tasks; ++i) {
    Task t;
    t.period = rng.uniform_int(60, 800);
    t.area = static_cast<Area>(rng.uniform_int(1, r.device.width));
    // Bounded Pareto-ish utilization: most tasks tiny, a few near 0.95.
    // Plain division only — std::pow is not correctly rounded and would
    // break the bit-exact cross-platform seed-replay contract.
    const double x = rng.uniform01();
    const double u = std::min(0.95, 0.04 / (1.0 - 0.999 * x));
    t.wcet = std::max<Ticks>(
        1, static_cast<Ticks>(
               std::llround(u * static_cast<double>(t.period))));
    // Arbitrary deadlines: up to 4T, including the post-period tail that
    // only GN2/BAK2 claim to handle.
    t.deadline = std::max<Ticks>(
        t.wcet, static_cast<Ticks>(std::llround(
                    rng.uniform(0.5, 4.0) * static_cast<double>(t.period))));
    clamp_wcet(t);
    tasks.push_back(std::move(t));
  }
  name_tasks(tasks);
  return {TaskSet{std::move(tasks)}, r.device};
}

FuzzCase reconf_heavy_case(const FamilyRequest& r, Xoshiro256ss& rng) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(r.num_tasks));
  // Up to the shared reference ρ (reconf/cost_model.hpp) per occupied column.
  const Ticks rho =
      rng.uniform_int(1, ReconfCostModel::kDefaultPerColumnTicks);
  for (int i = 0; i < r.num_tasks; ++i) {
    Task t;
    t.area = static_cast<Area>(
        rng.uniform_int(std::max<Area>(1, r.device.width / 4),
                        r.device.width));
    // WCET = reconfiguration-shaped component ρ·A plus a little real work:
    // the regime where "add the overhead to C" (Section 1) dominates.
    t.wcet = rho * static_cast<Ticks>(t.area) + rng.uniform_int(1, 40);
    t.period = t.wcet * rng.uniform_int(2, 12);
    t.deadline = rng.uniform_int(t.wcet, t.period);
    clamp_wcet(t);
    tasks.push_back(std::move(t));
  }
  name_tasks(tasks);
  return {TaskSet{std::move(tasks)}, r.device};
}

FuzzCase unit_area_case(const FamilyRequest& r, Xoshiro256ss& rng) {
  // Multiprocessor special case: m processors, every area 1 — the inputs
  // the mp-* cross-check analyzers accept instead of refusing.
  const Device device{static_cast<Area>(rng.uniform_int(2, 8))};
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(r.num_tasks));
  for (int i = 0; i < r.num_tasks; ++i) {
    Task t;
    t.period = rng.uniform_int(40, 500);
    t.area = 1;
    t.wcet = std::max<Ticks>(
        1, static_cast<Ticks>(std::llround(
               rng.uniform(0.05, 0.95) * static_cast<double>(t.period))));
    const double ratio = rng.uniform(0.6, 1.0);
    t.deadline = std::max<Ticks>(
        t.wcet, static_cast<Ticks>(
                    std::llround(ratio * static_cast<double>(t.period))));
    clamp_wcet(t);
    tasks.push_back(std::move(t));
  }
  steer_system_util(tasks,
                    static_cast<double>(device.width) * rng.uniform(0.3, 1.0));
  name_tasks(tasks);
  return {TaskSet{std::move(tasks)}, device};
}

FuzzCase runtime_miss_case(const FamilyRequest& r, Xoshiro256ss& rng) {
  // Replay a reconfiguration-heavy scenario with the port unassisted (no
  // prefetch) and harvest the admitted tasks live at the earliest deadline
  // miss: a set the admission gate accepted but an execution missed with.
  // These sit exactly on the sound/unsound boundary the oracle adjudicates.
  rt::ScenarioGenOptions opt;
  opt.family = rt::ScenarioFamily::kReconfHeavy;
  opt.device = r.device;
  opt.arrivals = std::clamp(r.num_tasks, 3, 8);
  opt.seed = rng.next();
  rt::RuntimeConfig config;
  config.prefetch = rt::PrefetchKind::kNone;
  config.record_trace = false;
  config.check_invariants = false;
  const rt::RuntimeResult result =
      rt::run_scenario(rt::generate_scenario(opt), config);

  Ticks miss_at = kNoTick;
  for (const rt::TaskAccount& acct : result.tasks) {
    if (acct.first_miss != kNoTick) miss_at = std::min(miss_at, acct.first_miss);
  }
  std::vector<Task> tasks;
  if (miss_at != kNoTick) {
    for (const rt::TaskAccount& acct : result.tasks) {
      // Live at the miss: activated before it and not yet fully drained. A
      // mode change opens a fresh account under the same name — keep the
      // later generation (the parameters actually running at the miss).
      if (acct.first_release == kNoTick || acct.first_release > miss_at ||
          (acct.drained_at != kNoTick && acct.drained_at < miss_at)) {
        continue;
      }
      Task t = acct.task;
      t.name = acct.name;
      const auto prior = std::find_if(
          tasks.begin(), tasks.end(),
          [&](const Task& existing) { return existing.name == t.name; });
      if (prior != tasks.end()) {
        *prior = std::move(t);
      } else {
        tasks.push_back(std::move(t));
      }
    }
  }
  if (tasks.size() < 2) {
    // Scenario met every deadline (or drained to a singleton): fall back to
    // the statically shaped reconf-heavy family so every seed still yields
    // an input.
    return reconf_heavy_case(r, rng);
  }
  return {TaskSet{std::move(tasks)}, r.device};
}

}  // namespace

const char* to_string(FuzzFamily family) noexcept {
  switch (family) {
    case FuzzFamily::kUnconstrained: return "unconstrained";
    case FuzzFamily::kNearBoundary: return "near_boundary";
    case FuzzFamily::kHarmonic: return "harmonic";
    case FuzzFamily::kCoprime: return "coprime";
    case FuzzFamily::kZeroLaxity: return "zero_laxity";
    case FuzzFamily::kTightDeadline: return "tight_deadline";
    case FuzzFamily::kHeavyTailArbitrary: return "heavy_tail_arbitrary";
    case FuzzFamily::kReconfHeavy: return "reconf_heavy";
    case FuzzFamily::kUnitArea: return "unit_area";
    case FuzzFamily::kRuntimeMiss: return "runtime_miss";
  }
  return "?";
}

std::optional<FuzzFamily> family_from_string(std::string_view name) noexcept {
  for (const FuzzFamily f : all_families()) {
    if (name == to_string(f)) return f;
  }
  return std::nullopt;
}

const std::vector<FuzzFamily>& all_families() {
  static const std::vector<FuzzFamily> families = {
      FuzzFamily::kUnconstrained,  FuzzFamily::kNearBoundary,
      FuzzFamily::kHarmonic,       FuzzFamily::kCoprime,
      FuzzFamily::kZeroLaxity,     FuzzFamily::kTightDeadline,
      FuzzFamily::kHeavyTailArbitrary, FuzzFamily::kReconfHeavy,
      FuzzFamily::kUnitArea,           FuzzFamily::kRuntimeMiss,
  };
  return families;
}

FuzzCase make_fuzz_case(const FamilyRequest& request) {
  RECONF_EXPECTS(request.num_tasks > 0);
  RECONF_EXPECTS(request.device.valid());
  Xoshiro256ss rng(family_seed(request));
  FuzzCase out;
  switch (request.family) {
    case FuzzFamily::kUnconstrained:
      out = unconstrained_case(request, rng);
      break;
    case FuzzFamily::kNearBoundary:
      out = near_boundary_case(request, rng);
      break;
    case FuzzFamily::kHarmonic: out = harmonic_case(request, rng); break;
    case FuzzFamily::kCoprime: out = coprime_case(request, rng); break;
    case FuzzFamily::kZeroLaxity: out = zero_laxity_case(request, rng); break;
    case FuzzFamily::kTightDeadline:
      out = tight_deadline_case(request, rng);
      break;
    case FuzzFamily::kHeavyTailArbitrary:
      out = heavy_tail_arbitrary_case(request, rng);
      break;
    case FuzzFamily::kReconfHeavy:
      out = reconf_heavy_case(request, rng);
      break;
    case FuzzFamily::kUnitArea: out = unit_area_case(request, rng); break;
    case FuzzFamily::kRuntimeMiss:
      out = runtime_miss_case(request, rng);
      break;
  }
  RECONF_ENSURES(out.taskset.all_well_formed());
  RECONF_ENSURES(out.device.valid());
  return out;
}

}  // namespace reconf::oracle
