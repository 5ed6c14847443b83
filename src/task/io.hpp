#pragma once

#include <iosfwd>
#include <string>

#include "common/types.hpp"
#include "task/taskset.hpp"

namespace reconf::io {

/// Serializes a taskset to a small line-oriented text format:
///
///   # comment
///   taskset v1
///   device <width>
///   task <name> <wcet_ticks> <deadline_ticks> <period_ticks> <area>
///
/// Whitespace-separated, one task per line; names must not contain spaces
/// (empty names serialize as "-"). Round-trips exactly (ticks, not units).
void write_taskset(std::ostream& os, const TaskSet& ts, Device device);

[[nodiscard]] std::string to_string(const TaskSet& ts, Device device);

struct ParsedTaskSet {
  TaskSet taskset;
  Device device;
};

/// Parses the format written by `write_taskset`. Throws std::runtime_error
/// with a line-numbered message on malformed input.
[[nodiscard]] ParsedTaskSet read_taskset(std::istream& is);

/// Builds a task from raw tick/area values with the validation every ingest
/// path must apply (all parameters positive, inside the input domain of
/// task/task.hpp).
/// Throws std::runtime_error naming `context` on violation. Shared by the v1
/// text parser above and the svc NDJSON codec. A `name` of "-" means unnamed,
/// matching the v1 serialization.
[[nodiscard]] Task make_task_checked(const std::string& name, long long wcet,
                                     long long deadline, long long period,
                                     long long area,
                                     const std::string& context);

[[nodiscard]] ParsedTaskSet from_string(const std::string& text);

/// Human-readable table (paper units) for logs and examples.
[[nodiscard]] std::string format_table(const TaskSet& ts, Device device,
                                       Ticks scale = kTicksPerUnit);

}  // namespace reconf::io
