// Replays the committed NDJSON regression corpus (tests/corpus/*.ndjson)
// through the analysis engine: every entry runs through both the reference
// path (AnalysisEngine::run) and the SoA fast path (::decide), their
// verdicts must agree with each other and with the entry's recorded
// expectation, and entries carrying simulation expectations are re-checked
// against the oracle. A corpus entry is a frozen bug class: sets the paper
// places exactly on a theorem boundary, and shrunk witnesses the
// differential pipeline once reduced — sets a future analyzer change is
// most likely to get wrong.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/engine.hpp"
#include "oracle/oracle.hpp"
#include "oracle/repro.hpp"
#include "task/io.hpp"

#ifndef RECONF_CORPUS_DIR
#error "RECONF_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace reconf::oracle {
namespace {

std::vector<ReproCase> load_corpus() {
  std::vector<ReproCase> corpus;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(RECONF_CORPUS_DIR)) {
    if (entry.path().extension() == ".ndjson") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    try {
      auto cases = read_corpus(in);
      corpus.insert(corpus.end(), cases.begin(), cases.end());
    } catch (const std::exception& e) {
      ADD_FAILURE() << path << ": " << e.what();
    }
  }
  return corpus;
}

class CorpusReplay : public ::testing::Test {
 protected:
  static const std::vector<ReproCase>& corpus() {
    static const std::vector<ReproCase> cases = load_corpus();
    return cases;
  }
};

TEST_F(CorpusReplay, CorpusIsNonEmptyAndIdsAreUnique) {
  ASSERT_FALSE(corpus().empty());
  std::vector<std::string> ids;
  for (const ReproCase& repro : corpus()) ids.push_back(repro.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "duplicate corpus id";
}

TEST_F(CorpusReplay, AnalyzeAndDecideMatchEveryRecordedExpectation) {
  for (const ReproCase& repro : corpus()) {
    analysis::AnalysisRequest request;
    if (!repro.tests.empty()) request.tests = repro.tests;
    const analysis::AnalysisEngine engine(request);

    const analysis::AnalysisReport report =
        engine.run(repro.taskset, repro.device);
    const analysis::Decision decision =
        engine.decide(repro.taskset, repro.device);

    // Fast and reference paths must agree on every frozen witness.
    EXPECT_EQ(report.verdict, decision.verdict)
        << repro.id << ": run() and decide() diverge\n"
        << io::to_string(repro.taskset, repro.device);
    EXPECT_EQ(report.accepted_by(), std::string(decision.accepted_by))
        << repro.id;

    if (repro.expect_accept.has_value()) {
      EXPECT_EQ(report.accepted(), *repro.expect_accept)
          << repro.id << " (" << repro.note << ")\n"
          << io::to_string(repro.taskset, repro.device);
    }
  }
}

TEST_F(CorpusReplay, SimulationExpectationsStillHold) {
  for (const ReproCase& repro : corpus()) {
    if (!repro.expect_sync_miss.has_value()) continue;
    const SchedulerEvidence evidence =
        probe_scheduler(repro.taskset, repro.device,
                        sim::SchedulerKind::kEdfNf, OracleConfig{});
    EXPECT_EQ(evidence.sync_miss, *repro.expect_sync_miss)
        << repro.id << "\n"
        << io::to_string(repro.taskset, repro.device);
    EXPECT_TRUE(evidence.invariant_violations.empty())
        << repro.id << ": " << evidence.invariant_violations.front();
  }
}

TEST_F(CorpusReplay, NoAnalyzerAcceptsASimulationRefutedWitness) {
  // The soundness pin on the shrunk sufficiency-violation witnesses: the
  // simulation misses a deadline, so an acceptance by any analyzer sound
  // for EDF-NF would be a real bug resurfacing.
  for (const ReproCase& repro : corpus()) {
    if (repro.expect_sync_miss != true) continue;
    analysis::AnalysisRequest request;
    request.scheduler = analysis::Scheduler::kEdfNf;
    const analysis::AnalysisEngine engine(request);
    const analysis::AnalysisReport report =
        engine.run(repro.taskset, repro.device);
    EXPECT_FALSE(report.accepted())
        << repro.id << ": '" << report.accepted_by()
        << "' accepted a set whose EDF-NF simulation misses\n"
        << io::to_string(repro.taskset, repro.device);
  }
}

}  // namespace
}  // namespace reconf::oracle
