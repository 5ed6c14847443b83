#pragma once

#include "common/types.hpp"
#include "sim/config.hpp"
#include "sim/result.hpp"
#include "task/taskset.hpp"

namespace reconf::sim {

/// Event-driven simulation of global EDF hardware-task scheduling on a 1D
/// reconfigurable device (paper Definitions 1-2; see sim/config.hpp for the
/// scheduler and placement-mode semantics).
///
/// Determinism: the result is a pure function of (ts, device, config).
/// The paper's simulation setting is the default: synchronous release at
/// t = 0, unrestricted migration, zero reconfiguration overhead, stop at the
/// first deadline miss.
[[nodiscard]] SimResult simulate(const TaskSet& ts, Device device,
                                 const SimConfig& config = {});

/// The horizon `simulate` uses when SimConfig::horizon == 0:
/// min(hyperperiod, horizon_periods · max period), at least 1 tick.
[[nodiscard]] Ticks default_horizon(const TaskSet& ts,
                                    const SimConfig& config);

}  // namespace reconf::sim
