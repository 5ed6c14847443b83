#include "partition/partitioned.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/contracts.hpp"

namespace reconf::partition {

namespace {

/// Density used for uniprocessor EDF feasibility: C/min(D, T). With implicit
/// deadlines this is C/T and the bound Σ ≤ 1 is exact for preemptive EDF.
double edf_density(const Task& t) {
  return static_cast<double>(t.wcet) /
         static_cast<double>(std::min(t.deadline, t.period));
}

/// Width the partition would need after adding task `t`.
Area width_with(const Partition& p, const Task& t) {
  return std::max(p.width, t.area);
}

}  // namespace

const char* to_string(AllocHeuristic h) noexcept {
  switch (h) {
    case AllocHeuristic::kFirstFit:
      return "first-fit";
    case AllocHeuristic::kBestFit:
      return "best-fit";
    case AllocHeuristic::kWorstFit:
      return "worst-fit";
  }
  return "?";
}

PartitionResult partition_tasks(const TaskSet& ts, Device device,
                                const PartitionConfig& config) {
  PartitionResult out;
  if (!device.valid()) {
    out.note = "invalid device";
    return out;
  }
  if (basic_feasibility_issue(ts, device)) {
    out.note = "taskset fails basic feasibility";
    return out;
  }

  std::vector<std::size_t> order(ts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return edf_density(ts[a]) > edf_density(ts[b]);
  });

  constexpr double kDensityEps = 1e-9;

  for (const std::size_t idx : order) {
    const Task& t = ts[idx];
    const double d = edf_density(t);

    // Candidate existing partitions that stay EDF-feasible and within the
    // total width budget after adding t.
    std::size_t chosen = out.partitions.size();
    double chosen_key = 0.0;
    for (std::size_t p = 0; p < out.partitions.size(); ++p) {
      Partition& part = out.partitions[p];
      if (part.density + d > 1.0 + kDensityEps) continue;
      const Area new_total =
          out.total_width - part.width + width_with(part, t);
      if (new_total > device.width) continue;

      const double remaining = 1.0 - part.density;
      switch (config.heuristic) {
        case AllocHeuristic::kFirstFit:
          chosen = p;
          break;
        case AllocHeuristic::kBestFit:
          if (chosen == out.partitions.size() || remaining < chosen_key) {
            chosen = p;
            chosen_key = remaining;
          }
          continue;
        case AllocHeuristic::kWorstFit:
          if (chosen == out.partitions.size() || remaining > chosen_key) {
            chosen = p;
            chosen_key = remaining;
          }
          continue;
      }
      if (config.heuristic == AllocHeuristic::kFirstFit) break;
    }

    if (chosen < out.partitions.size()) {
      Partition& part = out.partitions[chosen];
      out.total_width += width_with(part, t) - part.width;
      part.width = width_with(part, t);
      part.density += d;
      part.task_indices.push_back(idx);
      continue;
    }

    // Open a new partition if the width budget allows.
    if (out.total_width + t.area > device.width) {
      out.feasible = false;
      out.note = "no partition can host task " + std::to_string(idx) +
                 " within A(H)";
      return out;
    }
    Partition fresh;
    fresh.width = t.area;
    fresh.density = d;
    fresh.task_indices.push_back(idx);
    out.total_width += t.area;
    out.partitions.push_back(std::move(fresh));
  }

  RECONF_ENSURES(out.total_width <= device.width);
  out.feasible = true;
  return out;
}

bool partitioned_schedulable(const TaskSet& ts, Device device,
                             const PartitionConfig& config) {
  return partition_tasks(ts, device, config).feasible;
}

}  // namespace reconf::partition
