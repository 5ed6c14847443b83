// Online admission control — the embedded-systems scenario the paper's
// introduction motivates: hardware tasks (accelerator requests) arrive one
// at a time, and the runtime must decide instantly whether the new task can
// be admitted without endangering deadlines already guaranteed.
//
// This example drives the runtime's admission gate (src/svc/): an
// svc::AdmissionSession holding the admitted set. The admission criterion
// is the paper's Section 6 recommendation — the session resolves the
// dp/gn1/gn2 analyzers from the registry and admits if ANY accepts the
// extended set.
// Every admitted configuration is validated by simulation and re-run with
// full diagnostics to see which tests pulled their weight, and a second
// pass replays the identical stream to show the decisions are
// deterministic.
//
//   $ ./admission_control [seed]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "reconf/reconf.hpp"

int main(int argc, char** argv) {
  using namespace reconf;

  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2007;
  const Device fpga{100};

  // A stream of 40 candidate tasks drawn from the paper's unconstrained
  // distribution (area 1..100 columns, period 5..20, u in (0,1)).
  gen::GenRequest req;
  req.profile = gen::GenProfile::unconstrained(40);
  req.seed = seed;
  const auto stream = gen::generate(req);
  if (!stream) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }

  svc::AdmissionSession session(fpga);
  // The default request runs every analyzer with full diagnostics, so the
  // report says which tests accept the admitted set.
  const analysis::AnalysisEngine diagnostics{analysis::AnalysisRequest{}};

  std::uint64_t dp_only = 0;
  std::uint64_t gn1_only = 0;
  std::uint64_t gn2_only = 0;
  std::vector<bool> decisions;

  std::printf("%-5s %-28s %9s %9s  %s\n", "#", "task (C,D,T,A)", "U_S(cur)",
              "U_S(new)", "decision");
  for (std::size_t i = 0; i < stream->size(); ++i) {
    const Task& t = (*stream)[i];
    const double us_before = session.admitted().system_utilization();

    const auto decision = session.try_admit(t);
    decisions.push_back(decision.admitted);

    char desc[64];
    std::snprintf(desc, sizeof desc, "(%.2f, %lld, %lld, %d)",
                  units_from_ticks(t.wcet),
                  static_cast<long long>(units_from_ticks(t.deadline)),
                  static_cast<long long>(units_from_ticks(t.period)), t.area);
    // U_S(new) is the candidate set's utilization either way: on rejection
    // the admitted set is unchanged, but the column shows how far over
    // capacity the trial was.
    const TaskSet& now = session.admitted();
    const double us_trial = decision.admitted
                                ? now.system_utilization()
                                : us_before + t.system_utilization();
    std::printf("%-5zu %-28s %9.2f %9.2f  ", i + 1, desc, us_before,
                us_trial);

    if (decision.admitted) {
      std::printf("ADMIT via %s\n", decision.accepted_by.c_str());
      // Track which tests are pulling their weight: the admitted set is the
      // candidate the session just accepted.
      const auto report = diagnostics.run(now, fpga);
      const auto accepted_by_id = [&](const char* id) {
        const auto* r = report.report_for(id);
        return r != nullptr && r->accepted();
      };
      const bool dp = accepted_by_id("dp");
      const bool gn1 = accepted_by_id("gn1");
      const bool gn2 = accepted_by_id("gn2");
      dp_only += dp && !gn1 && !gn2;
      gn1_only += gn1 && !dp && !gn2;
      gn2_only += gn2 && !dp && !gn1;

      // Safety net: every admitted configuration must simulate cleanly.
      const auto run = sim::simulate(now, fpga);
      if (!run.schedulable) {
        std::fprintf(stderr, "BUG: admitted set missed a deadline in sim\n");
        return 1;
      }
    } else {
      std::printf("reject\n");
    }
  }

  const TaskSet& final_set = session.admitted();
  std::printf("\nadmitted %zu of %zu tasks (rejected %zu)\n",
              final_set.size(), stream->size(),
              stream->size() - final_set.size());
  std::printf("final utilization: U_S = %.2f of A(H) = %d  (U_T = %.2f)\n",
              final_set.system_utilization(), fpga.width,
              final_set.time_utilization());
  std::printf("admissions uniquely enabled by: DP %llu, GN1 %llu, GN2 %llu\n",
              static_cast<unsigned long long>(dp_only),
              static_cast<unsigned long long>(gn1_only),
              static_cast<unsigned long long>(gn2_only));

  // Replay: a second controller sees the same stream and must decide every
  // arrival the same way.
  svc::AdmissionSession replay(fpga);
  std::size_t same = 0;
  for (std::size_t i = 0; i < stream->size(); ++i) {
    same += replay.try_admit((*stream)[i]).admitted == decisions[i] ? 1 : 0;
  }
  const bool identical = same == stream->size();
  std::printf("\nreplay of the same stream: %zu/%zu decisions identical, "
              "admitted %zu (identical to pass 1: %s)\n",
              same, stream->size(), replay.admitted().size(),
              identical ? "yes" : "NO — BUG");
  return identical ? 0 : 1;
}
