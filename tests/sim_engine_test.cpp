#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "task/fixtures.hpp"
#include "task/task.hpp"

namespace reconf::sim {
namespace {

SimConfig nf_config() {
  SimConfig c;
  c.scheduler = SchedulerKind::kEdfNf;
  return c;
}

SimConfig fkf_config() {
  SimConfig c;
  c.scheduler = SchedulerKind::kEdfFkF;
  return c;
}

// ----------------------------------------------------------- basic cases --
TEST(SimEngine, EmptyTaskSetIsSchedulable) {
  const SimResult r = simulate(TaskSet{}, Device{10});
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.jobs_released, 0u);
}

TEST(SimEngine, SingleTaskRunsToCompletion) {
  // One task alone: C=2, D=T=5, A=4 on a width-10 device; 1 job per period.
  const TaskSet ts({make_task(2, 5, 5, 4)});
  SimConfig cfg = nf_config();
  cfg.horizon = 1500;  // 3 periods
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.jobs_released, 3u);
  EXPECT_EQ(r.jobs_completed, 3u);
  EXPECT_EQ(r.deadline_misses, 0u);
  // busy_area_time = 3 jobs × 200 ticks × 4 columns.
  EXPECT_EQ(r.busy_area_time, 3 * 200 * 4);
}

TEST(SimEngine, TaskUsingWholePeriodStillMeets) {
  const TaskSet ts({make_task(5, 5, 5, 10)});
  SimConfig cfg = nf_config();
  cfg.horizon = 1000;
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.jobs_completed, 2u);
}

TEST(SimEngine, OverloadedSingleTaskMisses) {
  // C > D: infeasible in isolation.
  const TaskSet ts({make_task(6, 5, 5, 4)});
  const SimResult r = simulate(ts, Device{10}, nf_config());
  EXPECT_FALSE(r.schedulable);
  ASSERT_TRUE(r.first_miss.has_value());
  EXPECT_EQ(r.first_miss->task_index, 0u);
}

TEST(SimEngine, OversizedTaskMissesImmediately) {
  const TaskSet ts({make_task(1, 5, 5, 11)});
  const SimResult r = simulate(ts, Device{10}, nf_config());
  EXPECT_FALSE(r.schedulable);
}

TEST(SimEngine, OversizedTaskDoesNotHideAContinueModeRun) {
  // Continue mode counts every miss within the horizon: task 1 can never
  // fit, so all 7 of its jobs miss, while task 0 still runs its 10 jobs.
  const TaskSet ts({make_task(2, 7, 7, 4), make_task(2, 10, 10, 12)});
  SimConfig cfg = nf_config();
  cfg.stop_on_first_miss = false;
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_FALSE(r.schedulable);
  EXPECT_EQ(r.horizon, 7000);
  EXPECT_EQ(r.jobs_released, 17u);
  EXPECT_EQ(r.jobs_completed, 10u);
  EXPECT_EQ(r.deadline_misses, 7u);
  ASSERT_TRUE(r.first_miss.has_value());
  EXPECT_EQ(r.first_miss->task_index, 1u);
  EXPECT_EQ(r.first_miss->deadline, 1000);
  EXPECT_EQ(r.busy_area_time, 10 * 200 * 4);
}

TEST(SimEngine, TwoIndependentTasksRunConcurrently) {
  // Areas 4+6 = 10 fit together: both execute in parallel from t=0.
  const TaskSet ts({make_task(3, 5, 5, 4), make_task(3, 5, 5, 6)});
  SimConfig cfg = nf_config();
  cfg.horizon = 500;
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_TRUE(r.schedulable);
  // Both run [0,300): occupancy 10 for 300 ticks.
  EXPECT_EQ(r.busy_area_time, 300 * 10);
  EXPECT_EQ(r.preemptions, 0u);
}

TEST(SimEngine, AreaContentionSerializesExecution) {
  // Two area-6 tasks cannot share a width-10 device: EDF serializes them.
  // C=2,T=D=5 each: τ1 runs [0,200), τ2 [200,400) — both meet deadlines.
  const TaskSet ts({make_task(2, 5, 5, 6), make_task(2, 5, 5, 6)});
  SimConfig cfg = nf_config();
  cfg.horizon = 500;
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.busy_area_time, 400 * 6);
}

TEST(SimEngine, ContentionBeyondCapacityMisses) {
  // Two tasks each needing the full width and 60% of the period: the second
  // cannot finish by its deadline.
  const TaskSet ts({make_task(3, 5, 5, 10), make_task(3, 5, 5, 10)});
  const SimResult r = simulate(ts, Device{10}, nf_config());
  EXPECT_FALSE(r.schedulable);
  ASSERT_TRUE(r.first_miss.has_value());
  EXPECT_EQ(r.first_miss->task_index, 1u);
  EXPECT_EQ(r.first_miss->deadline, 500);
}

// -------------------------------------------------- EDF-NF vs EDF-FkF gap --
TEST(SimEngine, NfExploitsIdleAreaThatBlocksFkF) {
  // Classic Danne scenario: a wide job at the queue head blocks FkF.
  //   τ1: C=4, D=T=10, A=6  (EDF order: first)
  //   τ2: C=4, D=T=10, A=6  (second, same deadline, later index)
  //   τ3: C=9, D=T=10, A=4  (longest deadline? same D; order by index)
  // At t=0 queue = τ1, τ2, τ3 (release ties broken by index).
  // FkF: runs τ1 (area 6); τ2 does not fit (12 > 10) → stops; τ3 blocked
  //      even though its area-4 would fit → τ3 accumulates only 6 ticks of
  //      service per 10-tick window → misses.
  // NF: runs τ1 + τ3 concurrently (6+4=10), then τ2 + τ3 → all meet.
  const TaskSet ts({
      make_task(4, 10, 10, 6),
      make_task(4, 10, 10, 6),
      make_task(9, 10, 10, 4),
  });
  const Device dev{10};

  const SimResult nf = simulate(ts, dev, nf_config());
  EXPECT_TRUE(nf.schedulable);

  const SimResult fkf = simulate(ts, dev, fkf_config());
  EXPECT_FALSE(fkf.schedulable);
  ASSERT_TRUE(fkf.first_miss.has_value());
  EXPECT_EQ(fkf.first_miss->task_index, 2u);
}

TEST(SimEngine, FkFandNfAgreeWithoutBlocking) {
  // When every pair fits, the two schedulers produce identical schedules.
  const TaskSet ts({make_task(2, 5, 5, 3), make_task(3, 7, 7, 4)});
  SimConfig nf = nf_config();
  SimConfig fkf = fkf_config();
  nf.horizon = fkf.horizon = 3500;
  const SimResult a = simulate(ts, Device{10}, nf);
  const SimResult b = simulate(ts, Device{10}, fkf);
  EXPECT_TRUE(a.schedulable);
  EXPECT_TRUE(b.schedulable);
  EXPECT_EQ(a.busy_area_time, b.busy_area_time);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
}

// ----------------------------------------------------------- preemption --
TEST(SimEngine, ShorterDeadlinePreemptsWiderJob) {
  // τ1: C=8, D=T=20, A=8 starts at 0. τ2: C=2, D=T=5, A=8 released at t=0
  // too — same instant, shorter deadline: τ2 runs first, τ1 waits (areas
  // cannot share). τ1 then runs and is preempted by τ2's next releases.
  const TaskSet ts({make_task(8, 20, 20, 8), make_task(2, 5, 5, 8)});
  SimConfig cfg = nf_config();
  cfg.horizon = 2000;
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_TRUE(r.schedulable);
  EXPECT_GT(r.preemptions, 0u);
}

TEST(SimEngine, PreemptedWorkIsConserved) {
  const TaskSet ts({make_task(8, 20, 20, 8), make_task(2, 5, 5, 8)});
  SimConfig cfg = nf_config();
  cfg.horizon = 2000;  // exactly one hyperperiod
  cfg.record_trace = true;
  const SimResult r = simulate(ts, Device{10}, cfg);
  ASSERT_TRUE(r.schedulable);
  // One τ1 job (800 ticks) + four τ2 jobs (4×200).
  EXPECT_EQ(r.trace.time_work(0), 800);
  EXPECT_EQ(r.trace.time_work(1), 800);
  EXPECT_EQ(r.trace.system_work(0), 800 * 8);
}

// -------------------------------------------------------------- horizons --
TEST(SimEngine, DefaultHorizonIsHyperperiodWhenSmall) {
  const TaskSet ts = fixtures::paper_table1();  // periods 700/500, hp 3500
  SimConfig cfg = nf_config();
  EXPECT_EQ(default_horizon(ts, cfg), 3500);
}

TEST(SimEngine, DefaultHorizonIsCappedForLongHyperperiods) {
  // Coprime-ish periods: hyperperiod far exceeds the cap.
  const TaskSet ts({make_task(1, 9.97, 9.97, 1), make_task(1, 13.01, 13.01, 1),
                    make_task(1, 17.93, 17.93, 1)});
  SimConfig cfg = nf_config();
  cfg.horizon_periods = 50;
  EXPECT_EQ(default_horizon(ts, cfg), 50 * 1793);
}

TEST(SimEngine, ExplicitHorizonWins) {
  SimConfig cfg = nf_config();
  cfg.horizon = 12345;
  EXPECT_EQ(default_horizon(fixtures::paper_table1(), cfg), 12345);
}

// ------------------------------------------------------------- offsets --
TEST(SimEngine, OffsetsShiftReleases) {
  // τ2 offset past τ1's burst avoids all contention.
  const TaskSet ts({make_task(3, 5, 5, 10), make_task(3, 5, 5, 10)});
  SimConfig cfg = nf_config();
  cfg.offsets = {0, 300};
  cfg.horizon = 1000;
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_TRUE(r.schedulable);
}

// --------------------------------------------------- continue-on-miss --
TEST(SimEngine, ContinueModeCountsAllMisses) {
  const TaskSet ts({make_task(3, 5, 5, 10), make_task(3, 5, 5, 10)});
  SimConfig cfg = nf_config();
  cfg.stop_on_first_miss = false;
  cfg.horizon = 2000;  // 4 periods; τ2 misses each time
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_FALSE(r.schedulable);
  EXPECT_GE(r.deadline_misses, 3u);
  EXPECT_GT(r.jobs_completed, 0u);
}

// ----------------------------------------------------------- EDF-US mode --
TEST(SimEngine, EdfUsPrioritizesHeavyTask) {
  // System utilizations: τ1 = 8·10/20 = 4.0, τ2 = 8·2/5 = 3.2. With
  // ζ = 0.38 (threshold 3.8) only τ1 is heavy and always wins the device
  // despite its longer deadline.
  const TaskSet ts({make_task(10, 20, 20, 8), make_task(2, 5, 5, 8)});
  SimConfig cfg;
  cfg.scheduler = SchedulerKind::kEdfUs;
  cfg.edf_us_threshold = 0.38;
  cfg.horizon = 2000;
  const SimResult r = simulate(ts, Device{10}, cfg);
  // τ2 starves while τ1 runs [0,1000): τ2's t=500 deadline is missed.
  EXPECT_FALSE(r.schedulable);
  ASSERT_TRUE(r.first_miss.has_value());
  EXPECT_EQ(r.first_miss->task_index, 1u);
}

TEST(SimEngine, EdfUsFallsBackToEdfWhenNoTaskIsHeavy) {
  const TaskSet ts({make_task(2, 5, 5, 3), make_task(3, 7, 7, 4)});
  SimConfig us;
  us.scheduler = SchedulerKind::kEdfUs;
  us.edf_us_threshold = 0.9;  // nobody qualifies
  us.horizon = 3500;
  SimConfig nf = nf_config();
  nf.horizon = 3500;
  const SimResult a = simulate(ts, Device{10}, us);
  const SimResult b = simulate(ts, Device{10}, nf);
  EXPECT_EQ(a.schedulable, b.schedulable);
  EXPECT_EQ(a.busy_area_time, b.busy_area_time);
}

// ------------------------------------------------------------ overheads --
TEST(SimEngine, ReconfigOverheadDelaysExecution) {
  // C=2 (200 ticks), A=4, ρ=10 ticks/column → 40 ticks stall per placement.
  const TaskSet ts({make_task(2, 5, 5, 4)});
  SimConfig cfg = nf_config();
  cfg.reconf.per_column = 10;
  cfg.horizon = 500;
  cfg.record_trace = true;
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.trace.time_work(0), 200);        // pure execution unchanged
  EXPECT_EQ(r.busy_area_time, (200 + 40) * 4);  // occupancy includes stall
}

TEST(SimEngine, ReconfigOverheadCanCauseMisses) {
  // C=4.5 of a 5-unit deadline: a 60-tick stall (ρ=15 × A=4) overruns.
  const TaskSet ts({make_task(4.5, 5, 5, 4)});
  SimConfig cfg = nf_config();
  cfg.reconf.per_column = 15;
  const SimResult r = simulate(ts, Device{10}, cfg);
  EXPECT_FALSE(r.schedulable);
}

TEST(SimEngine, ZeroOverheadMatchesPaperAssumption) {
  const TaskSet ts = fixtures::paper_table3();
  SimConfig cfg = nf_config();
  const SimResult r = simulate(ts, fixtures::paper_device_small(), cfg);
  EXPECT_TRUE(r.schedulable);  // GN2 accepts it; simulation must agree
}

// ------------------------------------------------------------- counters --
TEST(SimEngine, CountersAreConsistent) {
  const TaskSet ts = fixtures::paper_table1();
  SimConfig cfg = nf_config();
  const SimResult r = simulate(ts, fixtures::paper_device_small(), cfg);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.horizon, 3500);
  EXPECT_TRUE(r.horizon_was_hyperperiod);
  // 3500/700 = 5 jobs of τ1, 3500/500 = 7 jobs of τ2.
  EXPECT_EQ(r.jobs_released, 12u);
  EXPECT_EQ(r.jobs_completed, 12u);
  EXPECT_GT(r.dispatches, 0u);
  EXPECT_GE(r.placements, 12u);  // every job placed at least once
}

}  // namespace
}  // namespace reconf::sim
