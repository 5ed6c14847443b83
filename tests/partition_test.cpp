#include <gtest/gtest.h>

#include "partition/partitioned.hpp"
#include "task/fixtures.hpp"
#include "task/task.hpp"

namespace reconf::partition {
namespace {

TEST(Partitioned, SingleTaskGetsOnePartition) {
  const TaskSet ts({make_task(2, 5, 5, 4)});
  const auto r = partition_tasks(ts, Device{10});
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.partitions.size(), 1u);
  EXPECT_EQ(r.partitions[0].width, 4);
  EXPECT_EQ(r.total_width, 4);
  EXPECT_EQ(r.slack_width(Device{10}), 6);
}

TEST(Partitioned, LowDensityTasksShareAPartition) {
  // Two tasks with density 0.2 each fit in one serialized partition; the
  // partition is as wide as the wider member.
  const TaskSet ts({make_task(1, 5, 5, 4), make_task(1, 5, 5, 6)});
  const auto r = partition_tasks(ts, Device{10});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.partitions.size(), 1u);
  EXPECT_EQ(r.partitions[0].width, 6);
  EXPECT_NEAR(r.partitions[0].density, 0.4, 1e-12);
}

TEST(Partitioned, HighDensityTasksSplit) {
  const TaskSet ts({make_task(4, 5, 5, 4), make_task(4, 5, 5, 4)});
  const auto r = partition_tasks(ts, Device{10});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.partitions.size(), 2u);
  EXPECT_EQ(r.total_width, 8);
}

TEST(Partitioned, WidthBudgetLimitsPartitions) {
  // Three dense tasks of width 4 need 12 columns of partitions: infeasible
  // on a width-10 device even though U_S = 3*0.8*4 = 9.6 < 10.
  const TaskSet ts({make_task(4, 5, 5, 4), make_task(4, 5, 5, 4),
                    make_task(4, 5, 5, 4)});
  const auto r = partition_tasks(ts, Device{10});
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.note.empty());
}

TEST(Partitioned, GlobalWinsWhereSerializationWastesWidth) {
  // Four density-0.6 tasks of width 3: no two share a partition (densities
  // sum over 1), so partitioning needs 4x3 = 12 > 10 columns — infeasible.
  // Globally, three run concurrently (9 <= 10) and the staggered periods
  // let EDF-NF meet every deadline (integration_test simulates this set).
  const TaskSet ts({make_task(3, 5, 5, 3), make_task(3.6, 6, 6, 3),
                    make_task(4.8, 8, 8, 3), make_task(6, 10, 10, 3)});
  const Device dev{10};
  EXPECT_FALSE(partitioned_schedulable(ts, dev));
  EXPECT_TRUE(partitioned_schedulable(ts, Device{12}));
}

TEST(Partitioned, PartitionedWinsOnDenseNarrowSets) {
  // Paper Table 2: global bounds mostly fail, but partitioning places
  // τ1 (A=3, density 0.5625) and τ2 (A=5, density 0.889) in separate
  // partitions of total width 8 <= 10.
  const auto r =
      partition_tasks(fixtures::paper_table2(), fixtures::paper_device_small());
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.partitions.size(), 2u);
  EXPECT_LE(r.total_width, 10);
}

TEST(Partitioned, DensityAboveOneIsInfeasible) {
  const TaskSet ts({make_task(5, 5, 5, 4), make_task(1, 5, 5, 8)});
  // τ1 has density 1.0 (own partition), τ2 density 0.2; widths 4+8 = 12.
  EXPECT_FALSE(partitioned_schedulable(ts, Device{10}));
  EXPECT_TRUE(partitioned_schedulable(ts, Device{12}));
}

TEST(Partitioned, HeuristicsProduceFeasibleAllocations) {
  const TaskSet ts({make_task(2, 8, 8, 3), make_task(3, 9, 9, 5),
                    make_task(1, 4, 4, 2), make_task(2, 12, 12, 7)});
  for (const auto h : {AllocHeuristic::kFirstFit, AllocHeuristic::kBestFit,
                       AllocHeuristic::kWorstFit}) {
    PartitionConfig cfg;
    cfg.heuristic = h;
    const auto r = partition_tasks(ts, Device{20}, cfg);
    EXPECT_TRUE(r.feasible) << to_string(h);
    // Every task appears exactly once.
    std::size_t members = 0;
    for (const auto& p : r.partitions) {
      members += p.task_indices.size();
      EXPECT_LE(p.density, 1.0 + 1e-9);
      EXPECT_GT(p.width, 0);
    }
    EXPECT_EQ(members, ts.size());
    EXPECT_LE(r.total_width, 20);
  }
}

TEST(Partitioned, RejectsInfeasibleInput) {
  EXPECT_FALSE(partitioned_schedulable(TaskSet({make_task(6, 5, 5, 2)}),
                                       Device{10}));  // C > D
  EXPECT_FALSE(partitioned_schedulable(TaskSet({make_task(1, 5, 5, 12)}),
                                       Device{10}));  // A > A(H)
}

TEST(Partitioned, EmptyTasksetIsFeasible) {
  const auto r = partition_tasks(TaskSet{}, Device{10});
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.partitions.empty());
}

TEST(Partitioned, ConstrainedDeadlinesUseDensity) {
  // D < T: density C/D = 0.5 each; two still share one partition.
  const TaskSet ts({make_task(1, 2, 8, 4), make_task(1, 2, 10, 4)});
  const auto r = partition_tasks(ts, Device{10});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.partitions.size(), 1u);
}

}  // namespace
}  // namespace reconf::partition
