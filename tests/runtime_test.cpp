// Conformance suite for the online reconfiguration runtime (src/rt/).
//
// Pins the runtime's contract from runtime.hpp:
//  * admission conformance — every gate decision over the committed corpus
//    plus >=1k generated scenarios agrees with an independently re-run
//    AnalysisEngine::decide on the exact candidate set (the runtime never
//    admits what the analysis rejects, and never rejects what it accepts);
//  * zero-cost soundness — with a free reconfiguration-cost model the
//    dispatch is exactly the simulator's EDF-NF (DispatchParity compares
//    the two dispatch by dispatch), so admitted-only scenarios meet every
//    deadline;
//  * invariant conformance — the sim::InvariantChecker (area cap, EDF
//    order, expiry, Lemma 2 work conservation) passes on runtime dispatch
//    traces across families and prefetch policies;
//  * replay stability — the committed corpus scenarios under
//    tests/corpus/scenarios/ reproduce their recorded summary_json
//    byte-for-byte, per prefetch policy;
//  * one ledger — every reconf_rt_* / reconf_fault_* counter moves by
//    exactly its RuntimeResult field per run, fault corpus included.
//
// Corpus file format: canonical scenario NDJSON (bit-exact under
// format_scenario) followed by "#expect <policy> <summary_json>" comment
// lines — '#' lines are skipped by parse_scenario, so each file is both a
// valid scenario and its own expectation record.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/engine.hpp"
#include "fault/chaos.hpp"
#include "obs/metrics.hpp"
#include "rt/runtime.hpp"
#include "rt/scenario.hpp"
#include "sim/engine.hpp"

#ifndef RECONF_CORPUS_DIR
#error "RECONF_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace reconf::rt {
namespace {

constexpr ScenarioFamily kFamilies[] = {
    ScenarioFamily::kSteady, ScenarioFamily::kChurn,
    ScenarioFamily::kReconfHeavy};

Scenario make_scenario(ScenarioFamily family, std::uint64_t seed,
                       int arrivals = 10) {
  ScenarioGenOptions gen;
  gen.family = family;
  gen.seed = seed;
  gen.arrivals = arrivals;
  return generate_scenario(gen);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct CorpusScenario {
  std::filesystem::path path;
  Scenario scenario;
  std::string text;  ///< full file text, expect lines included
  std::vector<std::pair<PrefetchKind, std::string>> expect;
};

std::vector<CorpusScenario> load_corpus_scenarios() {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir =
      std::filesystem::path(RECONF_CORPUS_DIR) / "scenarios";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scenario") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<CorpusScenario> corpus;
  for (const auto& path : files) {
    CorpusScenario c;
    c.path = path;
    c.text = read_file(path);
    c.scenario = parse_scenario(c.text);
    std::istringstream lines(c.text);
    std::string line;
    while (std::getline(lines, line)) {
      constexpr std::string_view kTag = "#expect ";
      if (line.rfind(kTag, 0) != 0) continue;
      const std::size_t sp = line.find(' ', kTag.size());
      if (sp == std::string::npos) {
        ADD_FAILURE() << path << ": malformed " << line;
        continue;
      }
      const std::string policy = line.substr(kTag.size(), sp - kTag.size());
      const auto kind = prefetch_kind_from(policy);
      if (!kind.has_value()) {
        ADD_FAILURE() << path << ": unknown policy " << policy;
        continue;
      }
      c.expect.emplace_back(*kind, line.substr(sp + 1));
    }
    corpus.push_back(std::move(c));
  }
  return corpus;
}

// ------------------------------------------------------------ codec --

TEST(ScenarioCodec, FormatParseFormatIsBitExact) {
  for (const ScenarioFamily family : kFamilies) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const Scenario s = make_scenario(family, seed);
      const std::string text = format_scenario(s);
      EXPECT_EQ(format_scenario(parse_scenario(text)), text)
          << to_string(family) << " seed " << seed;
    }
  }
}

TEST(ScenarioCodec, GenerationIsDeterministic) {
  for (const ScenarioFamily family : kFamilies) {
    EXPECT_EQ(format_scenario(make_scenario(family, 42)),
              format_scenario(make_scenario(family, 42)));
    EXPECT_NE(format_scenario(make_scenario(family, 42)),
              format_scenario(make_scenario(family, 43)));
  }
}

TEST(ScenarioCodec, FamilyNamesRoundTrip) {
  for (const ScenarioFamily family : kFamilies) {
    EXPECT_EQ(scenario_family_from(to_string(family)), family);
  }
  EXPECT_EQ(scenario_family_from("Steady"), std::nullopt);
  EXPECT_EQ(scenario_family_from(""), std::nullopt);
}

TEST(ScenarioCodec, ArrivalNamesAreDistinctInFirstArrivalOrder) {
  const Scenario s = parse_scenario(
      "{\"scenario\":\"n\",\"device\":100,\"horizon\":5000}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"b\","
      "\"c\":100,\"d\":400,\"t\":400,\"a\":10}\n"
      "{\"at\":10,\"event\":\"arrive\",\"name\":\"a\","
      "\"c\":100,\"d\":400,\"t\":400,\"a\":10}\n"
      "{\"at\":20,\"event\":\"mode-change\",\"name\":\"c\","
      "\"c\":100,\"d\":400,\"t\":400,\"a\":10}\n"
      "{\"at\":30,\"event\":\"depart\",\"name\":\"b\"}\n"
      "{\"at\":40,\"event\":\"arrive\",\"name\":\"b\","
      "\"c\":100,\"d\":400,\"t\":400,\"a\":10}\n");
  EXPECT_EQ(arrival_names(s), (std::vector<std::string>{"b", "a"}));
}

TEST(ScenarioCodec, SkipsCommentsAndBlankLines) {
  const Scenario s = parse_scenario(
      "# a comment\n"
      "{\"scenario\":\"c\",\"device\":100,\"horizon\":1000}\n"
      "\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"a\","
      "\"c\":100,\"d\":400,\"t\":400,\"a\":10}\n"
      "# trailing comment\n");
  EXPECT_EQ(s.name, "c");
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].name, "a");
}

// A scenario saved with CRLF line ends, with lines of blanks and indented
// comments between its lines, reads as the LF file does.
TEST(ScenarioCodec, ReadsCrlfAndBlankLookingLines) {
  const std::string lf =
      "{\"scenario\":\"crlf\",\"device\":100,\"horizon\":5000}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"a\","
      "\"c\":100,\"d\":400,\"t\":400,\"a\":10}\n"
      "{\"at\":20,\"event\":\"mode-change\",\"name\":\"a\","
      "\"c\":50,\"d\":400,\"t\":400,\"a\":10}\n"
      "{\"at\":30,\"event\":\"depart\",\"name\":\"a\"}\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') {
      crlf += "\r\n \t\r\n\r\n  # note\r\n";
    } else {
      crlf += c;
    }
  }
  const std::string want = format_scenario(parse_scenario(lf));
  EXPECT_EQ(format_scenario(parse_scenario(crlf)), want);
  EXPECT_EQ(format_scenario(parse_scenario(" \t\n" + crlf)), want);
}

TEST(ScenarioCodec, RejectsMalformedInput) {
  const std::string header =
      "{\"scenario\":\"x\",\"device\":100,\"horizon\":1000}\n";
  const std::string arrive =
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"a\","
      "\"c\":100,\"d\":400,\"t\":400,\"a\":10}\n";
  // Unknown keys must not silently replay defaults.
  EXPECT_THROW(parse_scenario("{\"device\":100,\"horizon\":1000,"
                              "\"hrizon\":2}\n"),
               ScenarioError);
  EXPECT_THROW(
      parse_scenario(header + "{\"at\":0,\"event\":\"arrive\",\"name\":\"a\","
                              "\"c\":100,\"d\":400,\"perid\":400,\"a\":10}\n"),
      ScenarioError);
  // The input domain: no truncating cast, no tick value past 2^31 - 1.
  EXPECT_THROW(parse_scenario("{\"device\":4294967396,\"horizon\":1000}\n"),
               ScenarioError);
  EXPECT_THROW(
      parse_scenario("{\"device\":100,\"horizon\":4294967296}\n"),
      ScenarioError);
  EXPECT_THROW(parse_scenario("{\"device\":100,\"horizon\":1000,"
                              "\"rho\":4294967296}\n"),
               ScenarioError);
  EXPECT_THROW(
      parse_scenario(header + "{\"at\":0,\"event\":\"arrive\",\"name\":\"a\","
                              "\"c\":100,\"d\":400,\"t\":400,"
                              "\"a\":4294967306}\n"),
      ScenarioError);
  try {
    (void)parse_scenario(header +
                         "{\"at\":0,\"event\":\"arrive\",\"name\":\"a\","
                         "\"c\":1,\"d\":4294967231,\"t\":4294967279,"
                         "\"a\":1}\n");
    ADD_FAILURE() << "out-of-domain deadline accepted";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("max 2147483647"), std::string::npos)
        << e.what();
  }
  // Missing header / required fields.
  EXPECT_THROW(parse_scenario(arrive), ScenarioError);
  EXPECT_THROW(parse_scenario("{\"device\":100}\n"), ScenarioError);
  // Events must be time-ordered, inside the horizon, with start >= at.
  EXPECT_THROW(
      parse_scenario(header +
                     "{\"at\":500,\"event\":\"depart\",\"name\":\"a\"}\n"
                     "{\"at\":400,\"event\":\"depart\",\"name\":\"b\"}\n"),
      ScenarioError);
  EXPECT_THROW(
      parse_scenario(header +
                     "{\"at\":1000,\"event\":\"depart\",\"name\":\"a\"}\n"),
      ScenarioError);
  EXPECT_THROW(
      parse_scenario(header + "{\"at\":10,\"event\":\"arrive\",\"name\":\"a\","
                              "\"c\":100,\"d\":400,\"t\":400,\"a\":10,"
                              "\"start\":5}\n"),
      ScenarioError);
}

// ------------------------------------------------- admission conformance --

// The acceptance bar: over the committed corpus plus >=1000 generated
// scenarios, every admission-gate decision matches an independent
// AnalysisEngine::decide on the exact candidate set the gate saw.
TEST(AdmissionConformance, GateAgreesWithDecideOverThousandScenarios) {
  const analysis::AnalysisEngine engine{analysis::fast_any_request()};
  std::uint64_t attempts = 0, admitted = 0, rejected = 0, scenarios = 0;

  const auto probe = [&](const TaskSet& candidate, Device device,
                         const svc::AdmissionDecision& decision) {
    ++attempts;
    decision.admitted ? ++admitted : ++rejected;
    const analysis::Decision independent = engine.decide(candidate, device);
    EXPECT_EQ(independent.accepted(), decision.admitted)
        << "gate and decide() disagree on a candidate set of "
        << candidate.size() << " tasks";
  };

  auto sweep = [&](const Scenario& s) {
    ++scenarios;
    RuntimeConfig config;
    config.record_trace = false;
    config.check_invariants = false;
    config.admission_probe = probe;
    const RuntimeResult r = run_scenario(s, config);
    EXPECT_EQ(r.admitted + r.rejected, static_cast<std::uint64_t>(std::count_if(
        r.admissions.begin(), r.admissions.end(),
        [](const AdmissionRecord&) { return true; })));
  };

  for (const CorpusScenario& c : load_corpus_scenarios()) sweep(c.scenario);
  for (const ScenarioFamily family : kFamilies) {
    for (std::uint64_t seed = 0; seed < 334; ++seed) {
      sweep(make_scenario(family, seed));
    }
  }

  EXPECT_GE(scenarios, 1000u);
  // The sweep must actually exercise both verdicts to mean anything.
  EXPECT_GT(attempts, 1000u);
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(AdmissionConformance, EveryAdmissionRecordNamesAnAcceptingAnalyzer) {
  const RuntimeResult r = run_scenario(make_scenario(ScenarioFamily::kChurn, 3));
  ASSERT_FALSE(r.admissions.empty());
  for (const AdmissionRecord& rec : r.admissions) {
    if (rec.admitted) {
      EXPECT_FALSE(rec.accepted_by.empty()) << rec.name;
    } else {
      EXPECT_TRUE(rec.accepted_by.empty()) << rec.name;
    }
  }
}

// ------------------------------------------------------ zero-cost misses --

// With a free cost model the runtime is exactly the simulator's EDF-NF
// (DispatchParity.ZeroCostRuntimeDispatchesLikeTheSimulator below), and the
// gate only ever releases jobs of analysis-accepted sets — so no job may
// miss. kSteady and kChurn generate rho = 0 scenarios.
TEST(ZeroCost, AdmittedOnlyScenariosMeetEveryDeadline) {
  for (const ScenarioFamily family :
       {ScenarioFamily::kSteady, ScenarioFamily::kChurn}) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      const Scenario s = make_scenario(family, seed);
      ASSERT_TRUE(s.reconf.free())
          << to_string(family) << " should generate zero-cost scenarios";
      RuntimeConfig config;
      config.record_trace = false;
      const RuntimeResult r = run_scenario(s, config);
      EXPECT_EQ(r.deadline_misses, 0u)
          << to_string(family) << " seed " << seed;
      EXPECT_TRUE(r.invariant_violations.empty())
          << to_string(family) << " seed " << seed;
    }
  }
}

// ------------------------------------------------------- dispatch parity --

/// Every dispatch of one run: the instant, the occupied area and each active
/// job's (task, sequence, remaining, running) in queue order.
class DispatchLog final : public sim::DispatchObserver {
 public:
  struct Row {
    Ticks now = 0;
    Area occupied = 0;
    std::vector<std::tuple<std::size_t, std::uint64_t, Ticks, bool>> jobs;
    bool operator==(const Row&) const = default;
  };

  void on_dispatch(const sim::DispatchSnapshot& snap, const TaskSet&,
                   Device) override {
    Row row{snap.now, snap.occupied, {}};
    for (std::size_t i = 0; i < snap.active.size(); ++i) {
      const Job& j = snap.active[i];
      row.jobs.emplace_back(j.task_index, j.sequence, j.remaining,
                            snap.running[i] != 0);
    }
    rows.push_back(std::move(row));
  }

  std::vector<Row> rows;
};

auto segment_fields(const sim::TraceSegment& s) {
  return std::tuple(s.task_index, s.sequence, s.begin, s.end, s.col_lo,
                    s.col_hi, s.reconfiguring);
}

// The runtime's zero-cost dispatch is the simulator's EDF-NF: scenarios cut
// down to their arrivals, each task first releasing when it arrives, are
// run through the runtime and, when the gate admits every arrival, through
// sim::simulate on the same tasks with the arrival times as offsets. Every
// dispatch snapshot, the trace and the counters must agree.
TEST(DispatchParity, ZeroCostRuntimeDispatchesLikeTheSimulator) {
  std::uint64_t compared = 0;
  std::uint64_t dispatches = 0;
  for (const ScenarioFamily family : kFamilies) {
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
      Scenario s = make_scenario(family, seed, 4 + static_cast<int>(seed % 5));
      s.reconf = ReconfCostModel{};
      std::vector<ScenarioEvent> arrivals;
      for (ScenarioEvent& e : s.events) {
        if (e.kind != EventKind::kArrive) continue;
        if (e.start != kNoTick) e.at = e.start;
        e.start = kNoTick;
        arrivals.push_back(std::move(e));
      }
      std::stable_sort(arrivals.begin(), arrivals.end(),
                       [](const ScenarioEvent& a, const ScenarioEvent& b) {
                         return a.at < b.at;
                       });
      s.events = std::move(arrivals);

      DispatchLog runtime_log;
      RuntimeConfig config;
      config.observer = &runtime_log;
      const RuntimeResult r = run_scenario(s, config);
      if (r.rejected != 0) continue;

      std::vector<Task> tasks;
      sim::SimConfig sc;
      for (const ScenarioEvent& e : s.events) {
        tasks.push_back(e.task);
        sc.offsets.push_back(e.at);
      }
      sc.horizon = s.horizon;
      sc.stop_on_first_miss = false;
      sc.record_trace = true;
      DispatchLog sim_log;
      sc.observer = &sim_log;
      const sim::SimResult sr =
          sim::simulate(TaskSet(std::move(tasks)), s.device, sc);

      const std::string what = s.name;
      ++compared;
      dispatches += runtime_log.rows.size();
      EXPECT_EQ(r.releases, sr.jobs_released) << what;
      EXPECT_EQ(r.completions, sr.jobs_completed) << what;
      EXPECT_EQ(r.deadline_misses, sr.deadline_misses) << what;
      EXPECT_EQ(r.preemptions, sr.preemptions) << what;
      EXPECT_EQ(r.busy_area_time, sr.busy_area_time) << what;
      EXPECT_TRUE(r.invariant_violations.empty()) << what;

      ASSERT_EQ(runtime_log.rows.size(), sim_log.rows.size()) << what;
      for (std::size_t i = 0; i < sim_log.rows.size(); ++i) {
        if (runtime_log.rows[i] == sim_log.rows[i]) continue;
        ADD_FAILURE() << what << ": dispatch " << i << " at t="
                      << sim_log.rows[i].now << " differs";
        break;
      }
      const auto& rt_trace = r.trace.segments();
      const auto& sim_trace = sr.trace.segments();
      ASSERT_EQ(rt_trace.size(), sim_trace.size()) << what;
      for (std::size_t i = 0; i < sim_trace.size(); ++i) {
        if (segment_fields(rt_trace[i]) == segment_fields(sim_trace[i])) {
          continue;
        }
        ADD_FAILURE() << what << ": trace segment " << i << " differs";
        break;
      }
    }
  }
  EXPECT_GE(compared, 500u);
  EXPECT_GT(dispatches, 10000u);
}

// ------------------------------------------------------------ invariants --

TEST(Invariants, CheckerIsCleanAcrossFamiliesAndPolicies) {
  for (const ScenarioFamily family : kFamilies) {
    for (const PrefetchKind policy :
         {PrefetchKind::kNone, PrefetchKind::kStatic, PrefetchKind::kHybrid}) {
      for (std::uint64_t seed = 0; seed < 10; ++seed) {
        RuntimeConfig config;
        config.prefetch = policy;
        config.record_trace = false;
        const RuntimeResult r =
            run_scenario(make_scenario(family, seed), config);
        EXPECT_TRUE(r.invariant_violations.empty())
            << to_string(family) << "/" << to_string(policy) << " seed "
            << seed << ": " << r.invariant_violations.front();
      }
    }
  }
}

// --------------------------------------------------------- corpus replay --

TEST(CorpusReplay, CommittedScenariosReplayBitStable) {
  const std::vector<CorpusScenario> corpus = load_corpus_scenarios();
  ASSERT_GE(corpus.size(), 3u);
  for (const CorpusScenario& c : corpus) {
    ASSERT_FALSE(c.expect.empty()) << c.path;
    for (const auto& [policy, expected] : c.expect) {
      RuntimeConfig config;
      config.prefetch = policy;
      const RuntimeResult r = run_scenario(c.scenario, config);
      EXPECT_EQ(r.summary_json(), expected)
          << c.path << " under --policy=" << to_string(policy);
    }
  }
}

TEST(CorpusReplay, CommittedScenariosAreCanonical) {
  for (const CorpusScenario& c : load_corpus_scenarios()) {
    std::string stripped;
    std::istringstream lines(c.text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      stripped += line;
      stripped += '\n';
    }
    EXPECT_EQ(format_scenario(c.scenario), stripped) << c.path;
  }
}

TEST(CorpusReplay, SummaryIsInsensitiveToTraceAndInvariantRecording) {
  const Scenario s = make_scenario(ScenarioFamily::kReconfHeavy, 2);
  RuntimeConfig on;
  on.prefetch = PrefetchKind::kHybrid;
  RuntimeConfig off = on;
  off.record_trace = false;
  off.check_invariants = false;
  EXPECT_EQ(run_scenario(s, on).summary_json(),
            run_scenario(s, off).summary_json());
}

// --------------------------------------------------------- golden record --

/// One canonical line holding every RuntimeResult field but the wall-clock
/// admission_nanos: the counters, the peak utilization as a hex float, each
/// admission record, task account and shed record, and a hash of the trace.
std::string canonical_line(const std::string& label, const RuntimeResult& r) {
  const auto num = [](auto v) { return std::to_string(v); };
  const auto tick = [](Ticks v) {
    return v == kNoTick ? std::string("-") : std::to_string(v);
  };
  std::string out = label + " " + r.scenario + " h=" + num(r.horizon);
  out += " adm=" + num(r.admitted) + "/" + num(r.rejected);
  out += " rel=" + num(r.releases) + " done=" + num(r.completions) +
         " miss=" + num(r.deadline_misses);
  out += " disp=" + num(r.dispatches) + " pre=" + num(r.preemptions);
  out += " stall=" + num(r.stall_ticks) + " hid=" + num(r.hidden_ticks);
  out += " load=" + num(r.cold_loads) + "/" + num(r.warm_hits) + "/" +
         num(r.prefetch_hits) + "/" + num(r.prefetch_partial);
  out += " pf=" + num(r.prefetch_started) + "/" + num(r.prefetch_completed) +
         "/" + num(r.prefetch_aborted);
  out += " evict=" + num(r.evictions) + " ign=" + num(r.ignored_events);
  char peak[64];
  std::snprintf(peak, sizeof peak, "%a", r.peak_admitted_system_util);
  out += " peak=" + std::string(peak) + " busy=" + num(r.busy_area_time);
  out += " gates=";
  for (const AdmissionRecord& a : r.admissions) {
    out += num(a.at) + ":" + to_string(a.kind)[0] + ":" + a.name + ":" +
           (a.admitted ? a.accepted_by : "-") + ";";
  }
  out += " tasks=";
  for (const TaskAccount& t : r.tasks) {
    // The task's own name is printed only where it differs from the
    // account's; kNoTick prints as '-'.
    out += t.name + "(" + num(t.task.wcet) + "," + num(t.task.deadline) +
           "," + num(t.task.period) + "," + num(t.task.area) +
           (t.task.name == t.name ? "" : "," + t.task.name) + ")";
    for (const Ticks v :
         {t.first_release, static_cast<Ticks>(t.released),
          static_cast<Ticks>(t.completed), static_cast<Ticks>(t.missed),
          t.max_response, t.total_response, t.stall_ticks, t.hidden_ticks,
          t.first_miss, t.drained_at}) {
      out += ":" + tick(v);
    }
    out += ";";
  }
  out += " viol=" + num(r.invariant_violations.size());
  if (r.fault_mode) {
    const FaultRecoveryStats& f = r.faults;
    out += " faults=";
    for (const std::uint64_t v :
         {f.wcet_overruns, f.overrun_aborts, f.overrun_skips,
          f.overrun_degrades, f.port_failures, f.load_retries, f.load_aborts,
          f.prefetch_refails, static_cast<std::uint64_t>(f.retry_backoff_ticks),
          f.port_slow_events, f.port_slowed_loads,
          static_cast<std::uint64_t>(f.port_slow_ticks), f.fabric_faults,
          f.fabric_reloads, f.fabric_invalidations, f.sheds,
          f.shed_revalidation_rejects, f.post_shed_misses}) {
      out += num(v) + "/";
    }
    out += " sheds=";
    for (const ShedRecord& s : r.sheds) {
      out += num(s.at) + ":" + s.name + ":" +
             (s.revalidation_reject ? "r" : "v") + ";";
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the segments
  for (const sim::TraceSegment& s : r.trace.segments()) {
    for (const std::int64_t v :
         {static_cast<std::int64_t>(s.task_index),
          static_cast<std::int64_t>(s.sequence), s.begin, s.end,
          static_cast<std::int64_t>(s.col_lo),
          static_cast<std::int64_t>(s.col_hi),
          static_cast<std::int64_t>(s.reconfiguring)}) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= static_cast<std::uint64_t>(v) >> (8 * byte) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  char trace[32];
  std::snprintf(trace, sizeof trace, "%016llx",
                static_cast<unsigned long long>(h));
  out += " trace=" + num(r.trace.segments().size()) + ":" + trace;
  return out;
}

// Every runtime counter, record and trace over generated scenarios, pinned
// across builds: 40 scenarios per family under each prefetch policy, plus
// 40 churn and 40 reconf-heavy ones under a generated fault plan for each
// overrun action, with the invariant checker and the trace on. The
// expected lines come from a build that sorted the job table at every
// dispatch and rebuilt the gate's candidate set per attempt. Both engines
// dispatch through sim::JobTable, so DispatchParity alone cannot see an
// order both would get wrong. On a mismatch the lines this build produces
// are written to generated.actual in the working directory.
TEST(GoldenRecord, GeneratedRunsMatchTheCommittedLines) {
  constexpr PrefetchKind kPolicies[] = {
      PrefetchKind::kNone, PrefetchKind::kStatic, PrefetchKind::kHybrid};
  std::vector<std::string> lines;
  for (const ScenarioFamily family : kFamilies) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const Scenario s = make_scenario(family, seed, 20);
      for (const PrefetchKind policy : kPolicies) {
        RuntimeConfig config;
        config.prefetch = policy;
        lines.push_back(canonical_line(
            std::string(to_string(family)) + "/" + std::to_string(seed) +
                "/" + to_string(policy),
            run_scenario(s, config)));
      }
    }
  }
  for (const ScenarioFamily family :
       {ScenarioFamily::kChurn, ScenarioFamily::kReconfHeavy}) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const Scenario s = make_scenario(family, seed, 20);
      fault::FaultPlanGenOptions gen;
      gen.horizon = s.horizon;
      gen.names = arrival_names(s);
      gen.faults = 8;
      gen.seed = seed;
      const fault::FaultPlan plan = fault::generate_fault_plan(gen);
      for (const OverrunAction action :
           {OverrunAction::kAbort, OverrunAction::kSkipNext,
            OverrunAction::kDegrade}) {
        RuntimeConfig config;
        config.prefetch = kPolicies[seed % 3];
        config.recovery.overrun = action;
        config.faults = &plan;
        lines.push_back(canonical_line(
            std::string("faults/") + to_string(family) + "/" +
                std::to_string(seed) + "/" + to_string(action) + "/" +
                to_string(config.prefetch),
            run_scenario(s, config)));
      }
    }
  }

  std::vector<std::string> expected;
  {
    std::istringstream in(read_file(std::filesystem::path(RECONF_CORPUS_DIR) /
                                    "scenarios" / "generated.expected"));
    std::string line;
    while (std::getline(in, line)) expected.push_back(line);
  }
  std::size_t differ = 0;
  for (std::size_t i = 0; i < std::max(lines.size(), expected.size()); ++i) {
    const std::string got = i < lines.size() ? lines[i] : "<none>";
    const std::string want = i < expected.size() ? expected[i] : "<none>";
    if (got == want) continue;
    if (++differ <= 3) {
      ADD_FAILURE() << "line " << i + 1 << "\n  got:  " << got
                    << "\n  want: " << want;
    }
  }
  EXPECT_EQ(differ, 0u) << "of " << lines.size() << " lines";
  if (differ != 0) {
    std::ofstream actual("generated.actual");
    for (const std::string& l : lines) actual << l << '\n';
  }
}

// ------------------------------------------------------ event semantics --

TEST(EventSemantics, ModeChangeGatesTheTransientUnion) {
  // The new mode's utilization (95 * 990/1000 = 94.05) plus the old
  // generation's cannot fit the device — the gate must reject, and the old
  // generation must keep releasing untouched.
  const Scenario s = parse_scenario(
      "{\"scenario\":\"mc-reject\",\"device\":100,\"horizon\":6000}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"fir\","
      "\"c\":300,\"d\":900,\"t\":900,\"a\":20}\n"
      "{\"at\":2000,\"event\":\"mode-change\",\"name\":\"fir\","
      "\"c\":990,\"d\":1000,\"t\":1000,\"a\":95}\n");
  const RuntimeResult r = run_scenario(s);
  EXPECT_EQ(r.admitted, 1u);
  EXPECT_EQ(r.rejected, 1u);
  ASSERT_EQ(r.admissions.size(), 2u);
  EXPECT_EQ(r.admissions[1].kind, EventKind::kModeChange);
  EXPECT_FALSE(r.admissions[1].admitted);
  // One generation only, releasing across the whole horizon: 0,900,...,5400.
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].released, 7u);
  EXPECT_EQ(r.deadline_misses, 0u);
}

TEST(EventSemantics, DeparturesDrainOutstandingJobs) {
  // Departure lands mid-job: the outstanding job must still complete, and
  // no release may happen after the departure.
  const Scenario s = parse_scenario(
      "{\"scenario\":\"drain\",\"device\":100,\"horizon\":4000}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"a\","
      "\"c\":400,\"d\":1000,\"t\":1000,\"a\":30}\n"
      "{\"at\":1100,\"event\":\"depart\",\"name\":\"a\"}\n");
  const RuntimeResult r = run_scenario(s);
  // Releases at 0 and 1000 only; the 1000-job is outstanding at the
  // departure and drains to completion.
  EXPECT_EQ(r.releases, 2u);
  EXPECT_EQ(r.completions, 2u);
  EXPECT_EQ(r.deadline_misses, 0u);
}

TEST(EventSemantics, NonLiveNamesAreCountedNoOps) {
  const Scenario s = parse_scenario(
      "{\"scenario\":\"ignored\",\"device\":100,\"horizon\":3000}\n"
      "{\"at\":0,\"event\":\"arrive\",\"name\":\"a\","
      "\"c\":100,\"d\":400,\"t\":400,\"a\":10}\n"
      "{\"at\":500,\"event\":\"depart\",\"name\":\"ghost\"}\n"
      "{\"at\":600,\"event\":\"mode-change\",\"name\":\"ghost\","
      "\"c\":100,\"d\":400,\"t\":400,\"a\":10}\n");
  const RuntimeResult r = run_scenario(s);
  EXPECT_EQ(r.ignored_events, 2u);
  EXPECT_EQ(r.admitted, 1u);
  EXPECT_EQ(r.deadline_misses, 0u);
}

// -------------------------------------------------------------- prefetch --

// The acceptance bar for the prefetch port: on the reconf-heavy family the
// hybrid policy hides at least half of the total load time that the
// no-prefetch baseline pays as stalls. Evaluated at 8 arrivals on the
// 100-column device — sigma-areas already exceed the fabric (every release
// risks a cold load) but some columns stay free to hide loads in; past
// that the fabric saturates and no policy can hide much (the port may not
// evict configurations that running jobs occupy).
TEST(Prefetch, HybridHidesAtLeastHalfTheStallOnReconfHeavy) {
  for (const std::uint64_t seed : {2u, 5u, 9u, 13u, 21u}) {
    const Scenario s =
        make_scenario(ScenarioFamily::kReconfHeavy, seed, /*arrivals=*/8);
    RuntimeConfig none;
    none.record_trace = false;
    RuntimeConfig hybrid = none;
    hybrid.prefetch = PrefetchKind::kHybrid;
    const RuntimeResult base = run_scenario(s, none);
    const RuntimeResult hyb = run_scenario(s, hybrid);
    EXPECT_EQ(base.hidden_ticks, 0);
    EXPECT_GT(base.stall_ticks, 0) << "seed " << seed;
    EXPECT_LT(hyb.stall_ticks, base.stall_ticks) << "seed " << seed;
    EXPECT_GE(hyb.stall_hiding_ratio(), 0.5)
        << "seed " << seed << ": hid " << hyb.hidden_ticks << " of "
        << (hyb.hidden_ticks + hyb.stall_ticks);
  }
}

TEST(Prefetch, ModeChangeSurvivesOnlyWithPrefetch) {
  // The committed mode-change-prefetch corpus scenario, semantically: the
  // new mode's load (240) exceeds its slack (D - C = 200), so the first
  // job of the new mode misses cold but survives when the admission-to-
  // activation gap hides the load.
  const auto corpus = load_corpus_scenarios();
  const auto it = std::find_if(
      corpus.begin(), corpus.end(), [](const CorpusScenario& c) {
        return c.scenario.name == "mode-change-prefetch";
      });
  ASSERT_NE(it, corpus.end());
  RuntimeConfig none;
  RuntimeConfig hybrid;
  hybrid.prefetch = PrefetchKind::kHybrid;
  const RuntimeResult cold = run_scenario(it->scenario, none);
  const RuntimeResult warm = run_scenario(it->scenario, hybrid);
  EXPECT_EQ(cold.deadline_misses, 1u);
  EXPECT_EQ(warm.deadline_misses, 0u);
  EXPECT_EQ(warm.prefetch_hits, 1u);
  EXPECT_TRUE(cold.invariant_violations.empty());
  EXPECT_TRUE(warm.invariant_violations.empty());
}

// --------------------------------------------------------------- metrics --

TEST(Metrics, RuntimeCountersLandInTheSharedRegistry) {
  (void)run_scenario(make_scenario(ScenarioFamily::kReconfHeavy, 2));
  const std::string text =
      obs::MetricsRegistry::instance().prometheus_text();
  for (const char* metric :
       {"reconf_rt_admissions_total", "reconf_rt_releases_total",
        "reconf_rt_completions_total", "reconf_rt_config_loads_total",
        "reconf_rt_admission_latency_ns"}) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric;
  }
}

/// Every reconf_rt_* / reconf_fault_* counter in the shared registry. The
/// admission-latency histogram is a per-gate sample, not a ledger copy.
std::map<std::string, std::uint64_t> ledger_counters() {
  std::map<std::string, std::uint64_t> out;
  std::istringstream lines(obs::MetricsRegistry::instance().prometheus_text());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("reconf_rt_", 0) != 0 &&
        line.rfind("reconf_fault_", 0) != 0) {
      continue;
    }
    if (line.rfind("reconf_rt_admission_latency_ns", 0) == 0) continue;
    const std::size_t sp = line.rfind(' ');
    out[line.substr(0, sp)] = std::stoull(line.substr(sp + 1));
  }
  return out;
}

/// How far each counter must move for the run that produced `r`.
std::map<std::string, std::uint64_t> expected_moves(const RuntimeResult& r) {
  const FaultRecoveryStats& f = r.faults;
  const auto ticks = [](Ticks t) { return static_cast<std::uint64_t>(t); };
  return {
      {"reconf_rt_admissions_total{verdict=\"admitted\"}", r.admitted},
      {"reconf_rt_admissions_total{verdict=\"rejected\"}", r.rejected},
      {"reconf_rt_releases_total", r.releases},
      {"reconf_rt_completions_total", r.completions},
      {"reconf_rt_deadline_misses_total", r.deadline_misses},
      {"reconf_rt_stall_ticks_total", ticks(r.stall_ticks)},
      {"reconf_rt_prefetch_hidden_ticks_total", ticks(r.hidden_ticks)},
      {"reconf_rt_config_loads_total{kind=\"cold\"}", r.cold_loads},
      {"reconf_rt_config_loads_total{kind=\"warm\"}", r.warm_hits},
      {"reconf_rt_config_loads_total{kind=\"prefetch\"}", r.prefetch_hits},
      {"reconf_rt_prefetch_total{event=\"started\"}", r.prefetch_started},
      {"reconf_rt_prefetch_total{event=\"completed\"}", r.prefetch_completed},
      {"reconf_rt_prefetch_total{event=\"aborted\"}", r.prefetch_aborted},
      {"reconf_rt_evictions_total", r.evictions},
      {"reconf_fault_injected_total{kind=\"wcet\"}", f.wcet_overruns},
      {"reconf_fault_injected_total{kind=\"port\"}", f.port_failures},
      {"reconf_fault_injected_total{kind=\"slow\"}", f.port_slowed_loads},
      {"reconf_fault_injected_total{kind=\"fabric\"}", f.fabric_faults},
      {"reconf_fault_recovered_total{action=\"abort\"}", f.overrun_aborts},
      {"reconf_fault_recovered_total{action=\"skip\"}", f.overrun_skips},
      {"reconf_fault_recovered_total{action=\"retry\"}",
       f.load_retries + f.prefetch_refails},
      {"reconf_fault_recovered_total{action=\"reload\"}", f.fabric_reloads},
      {"reconf_fault_degraded_total{mode=\"overrun\"}", f.overrun_degrades},
      {"reconf_fault_degraded_total{mode=\"shed\"}", f.sheds},
      {"reconf_fault_degraded_total{mode=\"load-abort\"}", f.load_aborts},
  };
}

/// Runs `scenario` and checks that the counters moved by exactly the
/// result's fields — no counter missing, none extra.
RuntimeResult run_and_check_ledger(const std::string& what,
                                   const Scenario& scenario,
                                   const RuntimeConfig& config) {
  const std::map<std::string, std::uint64_t> before = ledger_counters();
  RuntimeResult r = run_scenario(scenario, config);
  const std::map<std::string, std::uint64_t> after = ledger_counters();
  const std::map<std::string, std::uint64_t> expected = expected_moves(r);
  EXPECT_EQ(after.size(), expected.size()) << what;
  for (const auto& [name, value] : after) {
    const auto want = expected.find(name);
    if (want == expected.end()) {
      ADD_FAILURE() << what << ": counter " << name << " has no ledger field";
      continue;
    }
    const auto prev = before.find(name);
    const std::uint64_t moved =
        value - (prev == before.end() ? 0 : prev->second);
    EXPECT_EQ(moved, want->second) << what << ": " << name;
  }
  return r;
}

TEST(Metrics, CountersMoveByExactlyTheResultLedger) {
  for (const CorpusScenario& c : load_corpus_scenarios()) {
    for (const PrefetchKind policy :
         {PrefetchKind::kNone, PrefetchKind::kStatic, PrefetchKind::kHybrid}) {
      RuntimeConfig config;
      config.prefetch = policy;
      config.record_trace = false;
      (void)run_and_check_ledger(
          c.path.filename().string() + " " + to_string(policy), c.scenario,
          config);
    }
  }

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(RECONF_CORPUS_DIR) / "faults")) {
    if (entry.path().extension() == ".chaos") files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 4u);
  FaultRecoveryStats fired;
  for (const auto& path : files) {
    const fault::ChaosCase c = fault::parse_chaos_case(read_file(path));
    for (const fault::ChaosExpect& e : c.expects) {
      const std::size_t slash = e.config.find('/');
      const auto action = overrun_action_from(e.config.substr(0, slash));
      const auto prefetch = prefetch_kind_from(e.config.substr(slash + 1));
      ASSERT_TRUE(action.has_value() && prefetch.has_value()) << e.config;
      RuntimeConfig config;
      config.prefetch = *prefetch;
      config.recovery.overrun = *action;
      config.faults = &c.plan;
      config.record_trace = false;
      const RuntimeResult r = run_and_check_ledger(
          path.filename().string() + " " + e.config, c.scenario, config);
      fired.port_slowed_loads += r.faults.port_slowed_loads;
      fired.sheds += r.faults.sheds;
      fired.fabric_reloads += r.faults.fabric_reloads;
    }
  }
  // The fault corpus must reach the fault counters, or the check is vacuous.
  EXPECT_GT(fired.port_slowed_loads, 0u);
  EXPECT_GT(fired.sheds, 0u);
  EXPECT_GT(fired.fabric_reloads, 0u);
}

}  // namespace
}  // namespace reconf::rt
