#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::partition {

/// Partitioned EDF scheduling for reconfigurable devices — the contrast
/// baseline from Danne & Platzner (RAW'06) that the paper cites against its
/// global approach: the device is split into fixed column partitions, every
/// task is bound to one partition, and execution inside a partition is
/// serialized under uniprocessor EDF.
///
/// A partition's width is the largest area of any task assigned to it, and a
/// partition is EDF-feasible when its task densities sum to at most 1
/// (exact for implicit deadlines, sufficient otherwise).

/// Task-to-partition allocation heuristic.
enum class AllocHeuristic {
  kFirstFit,   ///< first partition that stays feasible and within width
  kBestFit,    ///< feasible partition with least remaining density
  kWorstFit,   ///< feasible partition with most remaining density
};

[[nodiscard]] const char* to_string(AllocHeuristic h) noexcept;

/// Tasks are allocated in decreasing density order (a decreasing order
/// tends to pack better).
struct PartitionConfig {
  AllocHeuristic heuristic = AllocHeuristic::kFirstFit;
};

struct Partition {
  Area width = 0;                        ///< columns reserved
  double density = 0.0;                  ///< Σ C_i/min(D_i,T_i)
  std::vector<std::size_t> task_indices; ///< members (original indices)
};

struct PartitionResult {
  bool feasible = false;
  std::vector<Partition> partitions;
  Area total_width = 0;  ///< Σ partition widths (must be ≤ A(H))
  std::string note;      ///< why allocation failed, when infeasible

  /// Columns left unreserved (exploitable headroom vs global scheduling).
  [[nodiscard]] Area slack_width(Device device) const {
    return device.width - total_width;
  }
};

/// Allocates tasks to partitions. Returns feasible == false when the
/// heuristic cannot place every task within A(H) total columns.
[[nodiscard]] PartitionResult partition_tasks(const TaskSet& ts, Device device,
                                              const PartitionConfig& config = {});

/// Convenience: true iff `partition_tasks` finds a feasible allocation.
/// This is the acceptance criterion of bench_paper's PART-* series, which
/// the Fig. 3 sweeps compare against the global tests.
[[nodiscard]] bool partitioned_schedulable(const TaskSet& ts, Device device,
                                           const PartitionConfig& config = {});

}  // namespace reconf::partition
