#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "task/fixtures.hpp"
#include "task/io.hpp"
#include "task/job.hpp"
#include "task/task.hpp"
#include "task/taskset.hpp"

namespace reconf {
namespace {

TEST(Task, UtilizationsMatchPaperTable1) {
  const Task t1 = make_task(1.26, 7, 7, 9);
  EXPECT_DOUBLE_EQ(t1.time_utilization(), 0.18);
  EXPECT_DOUBLE_EQ(t1.system_utilization(), 1.62);
  EXPECT_EQ(t1.time_utilization_exact(), math::Rational(9, 50));
  EXPECT_TRUE(t1.implicit_deadline());
  EXPECT_TRUE(t1.constrained_deadline());
}

TEST(Task, DensityDiffersForConstrainedDeadline) {
  const Task t = make_task(2.0, 4, 8, 5);
  EXPECT_DOUBLE_EQ(t.time_utilization(), 0.25);
  EXPECT_DOUBLE_EQ(t.density(), 0.5);
  EXPECT_FALSE(t.implicit_deadline());
  EXPECT_TRUE(t.constrained_deadline());
}

TEST(Task, WellFormedRejectsNonPositive) {
  Task t = make_task(1, 2, 2, 3);
  EXPECT_TRUE(t.well_formed());
  t.area = 0;
  EXPECT_FALSE(t.well_formed());
  t.area = 3;
  t.wcet = 0;
  EXPECT_FALSE(t.well_formed());
}

TEST(TaskSet, AggregatesMatchPaperTable1) {
  const TaskSet ts = fixtures::paper_table1();
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_NEAR(ts.time_utilization(), 0.37, 1e-12);
  EXPECT_NEAR(ts.system_utilization(), 2.76, 1e-12);
  EXPECT_EQ(ts.max_area(), 9);
  EXPECT_EQ(ts.min_area(), 6);
  EXPECT_EQ(ts.total_area(), 15);
  EXPECT_EQ(ts.max_period(), 700);
  EXPECT_TRUE(ts.all_implicit_deadline());
  EXPECT_EQ(ts.system_utilization_exact(), math::BigRational(69, 25));
}

// A set grown by append() holds what constructing it from the same tasks
// gives: every aggregate, the sums bit for bit, and the first task's area as
// A_max/A_min's start even when that task is malformed.
TEST(TaskSet, AppendFoldsLikeTheConstructor) {
  std::vector<Task> tasks = {
      make_task(1, 4, 4, 3, "t0"),    make_task(1.26, 7, 7, 9, "t1"),
      make_task(2.1, 5, 5, 6, "t2"),  make_task(1, 3, 6, 12, "t3"),
      make_task(0.7, 9, 4, 1, "t4"),  make_task(3, 3, 8, 2, "t5"),
      make_task(0.1, 11, 13, 2, "t6"),
  };
  tasks[0].wcet = 0;  // malformed, and the first task
  tasks[5].area = 0;  // malformed
  TaskSet grown;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    grown.append(tasks[i]);
    const TaskSet want(
        std::vector<Task>(tasks.begin(), tasks.begin() + i + 1));
    ASSERT_EQ(grown.size(), want.size());
    EXPECT_EQ(grown[i].name, want[i].name) << i;
    EXPECT_EQ(grown.time_utilization(), want.time_utilization()) << i;
    EXPECT_EQ(grown.system_utilization(), want.system_utilization()) << i;
    EXPECT_EQ(grown.max_area(), want.max_area()) << i;
    EXPECT_EQ(grown.min_area(), want.min_area()) << i;
    EXPECT_EQ(grown.total_area(), want.total_area()) << i;
    EXPECT_EQ(grown.max_period(), want.max_period()) << i;
    EXPECT_EQ(grown.max_deadline(), want.max_deadline()) << i;
    EXPECT_EQ(grown.all_implicit_deadline(), want.all_implicit_deadline())
        << i;
    EXPECT_EQ(grown.all_constrained_deadline(),
              want.all_constrained_deadline())
        << i;
    EXPECT_EQ(grown.all_well_formed(), want.all_well_formed()) << i;
  }
  EXPECT_EQ(grown.min_area(), 1);
  EXPECT_EQ(grown.max_area(), 12);
  EXPECT_FALSE(grown.all_well_formed());
}

TEST(TaskSet, HyperperiodIsLcmOfPeriods) {
  const TaskSet ts = fixtures::paper_table1();  // periods 700, 500
  ASSERT_TRUE(ts.hyperperiod().has_value());
  EXPECT_EQ(*ts.hyperperiod(), 3500);
}

TEST(TaskSet, HyperperiodOverflowReturnsNullopt) {
  std::vector<Task> tasks;
  // Large pairwise-coprime periods overflow the LCM.
  for (const Ticks p : {999999937LL, 999999893LL, 999999883LL, 999999797LL}) {
    Task t;
    t.wcet = 1;
    t.deadline = p;
    t.period = p;
    t.area = 1;
    tasks.push_back(t);
  }
  EXPECT_FALSE(TaskSet(std::move(tasks)).hyperperiod().has_value());
}

TEST(TaskSet, WithUniformAreaRewritesAreasOnly) {
  const TaskSet ts = fixtures::paper_table1().with_uniform_area(1);
  EXPECT_EQ(ts.max_area(), 1);
  EXPECT_EQ(ts.min_area(), 1);
  EXPECT_NEAR(ts.system_utilization(), ts.time_utilization(), 1e-12);
  EXPECT_EQ(ts[0].wcet, 126);
}

TEST(TaskSet, WithWcetIncreasedAddsPerTaskExtra) {
  const TaskSet ts = fixtures::paper_table1();
  const TaskSet inflated = ts.with_wcet_increased({10, 0});
  EXPECT_EQ(inflated[0].wcet, 136);
  EXPECT_EQ(inflated[1].wcet, 95);
  EXPECT_GT(inflated.system_utilization(), ts.system_utilization());
}

TEST(TaskSet, EmptySetIsSane) {
  const TaskSet ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.time_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(ts.system_utilization(), 0.0);
}

TEST(Feasibility, AcceptsPaperFixtures) {
  EXPECT_FALSE(basic_feasibility_issue(fixtures::paper_table1(),
                                       fixtures::paper_device_small()));
  EXPECT_FALSE(basic_feasibility_issue(fixtures::paper_table2(),
                                       fixtures::paper_device_small()));
  EXPECT_FALSE(basic_feasibility_issue(fixtures::paper_table3(),
                                       fixtures::paper_device_small()));
}

TEST(Feasibility, FlagsExecutionExceedingDeadline) {
  const TaskSet ts({make_task(5, 4, 6, 2)});
  const auto issue = basic_feasibility_issue(ts, Device{10});
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->task_index, 0u);
  EXPECT_NE(issue->reason.find("C > D"), std::string::npos);
}

TEST(Feasibility, FlagsOversizedTask) {
  const TaskSet ts({make_task(1, 5, 5, 12)});
  const auto issue = basic_feasibility_issue(ts, Device{10});
  ASSERT_TRUE(issue.has_value());
  EXPECT_NE(issue->reason.find("A > A(H)"), std::string::npos);
}

TEST(Feasibility, FlagsInvalidDevice) {
  EXPECT_TRUE(basic_feasibility_issue(fixtures::paper_table1(), Device{0}));
}

TEST(Job, EdfOrderIsDeadlineThenReleaseThenIndex) {
  Job a{.task_index = 1, .sequence = 0, .release = 0, .abs_deadline = 500};
  Job b{.task_index = 0, .sequence = 0, .release = 0, .abs_deadline = 700};
  EXPECT_TRUE(edf_before(a, b));
  EXPECT_FALSE(edf_before(b, a));

  Job c = b;
  c.abs_deadline = 500;
  c.release = 100;
  EXPECT_TRUE(edf_before(a, c));  // earlier release wins the tie

  Job d = a;
  d.task_index = 2;
  EXPECT_TRUE(edf_before(a, d));  // lower task index wins the tie
}

TEST(TaskSetIo, RoundTripsExactly) {
  const TaskSet ts = fixtures::paper_table2();
  const Device dev = fixtures::paper_device_small();
  const std::string text = io::to_string(ts, dev);
  const io::ParsedTaskSet parsed = io::from_string(text);
  EXPECT_EQ(parsed.device.width, dev.width);
  ASSERT_EQ(parsed.taskset.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(parsed.taskset[i].wcet, ts[i].wcet);
    EXPECT_EQ(parsed.taskset[i].deadline, ts[i].deadline);
    EXPECT_EQ(parsed.taskset[i].period, ts[i].period);
    EXPECT_EQ(parsed.taskset[i].area, ts[i].area);
    EXPECT_EQ(parsed.taskset[i].name, ts[i].name);
  }
}

TEST(TaskSetIo, SkipsCommentsAndBlankLines) {
  const std::string text =
      "# generated\n\ntaskset v1\n# device next\ndevice 10\n"
      "task - 126 700 700 9\n";
  const io::ParsedTaskSet parsed = io::from_string(text);
  EXPECT_EQ(parsed.taskset.size(), 1u);
  EXPECT_TRUE(parsed.taskset[0].name.empty());
}

TEST(TaskSetIo, RejectsMalformedInput) {
  EXPECT_THROW(io::from_string("nonsense\n"), std::runtime_error);
  EXPECT_THROW(io::from_string("taskset v2\ndevice 10\n"),
               std::runtime_error);
  EXPECT_THROW(io::from_string("taskset v1\ndevice -1\n"),
               std::runtime_error);
  EXPECT_THROW(io::from_string("taskset v1\ndevice 10\ntask x 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(io::from_string("taskset v1\ndevice 10\ntask x 0 2 2 1\n"),
               std::runtime_error);
  // Missing device line.
  EXPECT_THROW(io::from_string("taskset v1\ntask x 1 2 2 1\n"),
               std::runtime_error);
}

TEST(TaskSetIo, HoldsTasksAndDeviceToTheInputDomain) {
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      (void)io::from_string(text);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  // At the bounds: accepted as written.
  const io::ParsedTaskSet at_bound = io::from_string(
      "taskset v1\ndevice 536870911\n"
      "task x 2147483647 2147483647 2147483647 536870911\n");
  EXPECT_EQ(at_bound.device.width, kMaxWidth);
  EXPECT_EQ(at_bound.taskset[0].period, kMaxTicks);
  EXPECT_EQ(at_bound.taskset[0].area, kMaxWidth);
  // One past a bound: refused with a message naming it, never truncated.
  EXPECT_EQ(error_of("taskset v1\ndevice 10\n"
                     "task x 1 2147483648 2147483648 1\n"),
            "taskset parse error at line 3: C, D or T out of range "
            "(max 2147483647)");
  EXPECT_EQ(error_of("taskset v1\ndevice 10\ntask x 1 2 2 536870912\n"),
            "taskset parse error at line 3: area out of range "
            "(max 536870911)");
  EXPECT_EQ(error_of("taskset v1\ndevice 4294967306\n"),
            "taskset parse error at line 2: device width out of range "
            "(max 536870911)");
  EXPECT_THROW((void)io::make_task_checked("-", 200000000000000000LL, 1, 1,
                                           1, "here"),
               std::runtime_error);
}

TEST(TaskSetIo, FormatTableMentionsAggregates) {
  const std::string table = io::format_table(fixtures::paper_table3(),
                                             fixtures::paper_device_small());
  EXPECT_NE(table.find("A_max = 7"), std::string::npos);
  EXPECT_NE(table.find("U_S"), std::string::npos);
}

}  // namespace
}  // namespace reconf
