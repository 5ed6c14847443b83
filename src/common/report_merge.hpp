#pragma once

#include <string>

namespace reconf {

/// Splices `value_json` into the JSON report at `path` as the top-level
/// member `key`: replaces the existing value of that key (an object, an
/// array, a string or a number) or appends the member before the file's
/// final '}'. A missing file is created as `{ "<key>": <value> }`, so the
/// first tool to report starts the file and later tools extend it — the
/// idiom behind BENCH_perf.json, whose sections bench_report and
/// bench_runtime each own, so neither tool rewrites the other's keys.
///
/// Only top-level members are matched, so a nested key of the same name is
/// never replaced. Indentation inside `value_json` is the caller's business.
/// Returns false with `error` set (when non-null) on I/O failure or when
/// the existing file is not a JSON object this scanner can walk.
bool merge_report_section(const std::string& path, const std::string& key,
                          const std::string& value_json,
                          std::string* error = nullptr);

}  // namespace reconf
