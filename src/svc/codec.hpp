#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "svc/batch.hpp"
#include "task/taskset.hpp"

namespace reconf::svc {

/// Hard cap on one NDJSON request line (1 MiB). Far above any legitimate
/// request; a longer line is rejected before parsing so a newline-less
/// stream cannot grow server memory without bound.
inline constexpr std::size_t kMaxRequestLine = 1u << 20;

/// A framed line: complete (or final, unterminated), or one that blew the
/// cap (its first max_len bytes are kept so the id stays recoverable, the
/// rest is discarded unbuffered).
enum class LineStatus {
  kLine,
  kOversized,
};

/// Incremental NDJSON line framing over byte chunks — the one line framer,
/// for sockets, pipes and files alike. A line of exactly max_len bytes is
/// still kLine; one byte more flips it to kOversized, keeping the first
/// max_len bytes (so the id stays recoverable) and discarding the rest of
/// the line unbuffered. Memory is bounded by max_len regardless of what the
/// peer sends.
///
///   framer.feed(buf, n);              // after every read()
///   while (framer.next(line, status)) // complete lines, in order
///     ...
///   if (eof && framer.finish(line, status))  // final unterminated line
///     ...
class StreamFramer {
 public:
  explicit StreamFramer(std::size_t max_len = kMaxRequestLine)
      : max_len_(max_len) {}

  /// Appends `n` bytes from the stream.
  void feed(const char* data, std::size_t n);

  /// Pops the next complete line (kLine or kOversized). Returns false when
  /// no complete line is buffered.
  bool next(std::string& line, LineStatus& status);

  /// At end of stream: flushes a final line without a trailing newline —
  /// a client that exits after its last request must not have that request
  /// dropped. Returns false when nothing was pending.
  bool finish(std::string& line, LineStatus& status);

 private:
  std::size_t max_len_;
  std::string partial_;               ///< bytes of the in-progress line
  std::string oversized_prefix_;      ///< kept prefix while discarding
  bool discarding_ = false;           ///< inside an over-cap line
  std::vector<std::pair<std::string, LineStatus>> ready_;
  std::size_t ready_head_ = 0;        ///< pop cursor into ready_
};

/// Thrown by `parse_request_line` on malformed input. The message names the
/// offending field or byte offset; the server turns it into an error
/// response instead of dropping the connection. `id()` carries the
/// request's id whenever the line was valid JSON with a readable id, so
/// error responses stay correlatable for pipelining clients.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what, std::string id = {})
      : std::runtime_error(what), id_(std::move(id)) {}

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

 private:
  std::string id_;
};

/// NDJSON request format — one JSON object per line:
///
///   {"id":"r1","device":100,"tasks":[{"c":126,"d":700,"t":700,"a":9},...]}
///   {"id":"r2","taskset":"taskset v1\ndevice 100\ntask - 126 700 700 9\n"}
///   {"id":"r3","device":100,"tasks":[...],"tests":["dp","gn2"]}
///   {"id":"r4","stats":true}
///
/// Fields:
///   id       optional string (or integer, stringified); echoed in responses
///   device   positive integer column count A(H); required with "tasks"
///   tasks    array of objects with required positive-integer keys
///            c (WCET ticks), d (deadline ticks), t (period ticks),
///            a (area columns) and an optional string "name"
///   taskset  alternative to device+tasks: the task/io.hpp v1 text format
///            embedded as one JSON string (layered on io::from_string)
///   tests    optional non-empty array of analyzer ids for this request
///            (resolved via analysis::AnalyzerRegistry; an unknown id is
///            rejected here, with the registered ids listed, so it never
///            reaches the batch pipeline). Absent = the serving default.
///   stats    the literal true: an introspection request answered with a
///            live metrics snapshot (svc/stats_surface.hpp) instead of a
///            verdict. Excludes every field but "id"; "stats":false is
///            rejected.
///
/// Unknown top-level or per-task keys are rejected — a typo'd "perid" must
/// not silently analyze a default, for the same reason the analysis refuses
/// unsound configurations instead of guessing.
[[nodiscard]] BatchRequest parse_request_line(const std::string& line);

/// Response line for one verdict:
///
///   {"id":"r1","verdict":"schedulable","accepted_by":"dp","cache":"hit",
///    "hash":"59a0e6...","n":3,"ut":0.91,"us":27.4,
///    "sub":[{"test":"dp","verdict":"schedulable","micros":1.9},
///           {"test":"gn1","skipped":true},{"test":"gn2","skipped":true}]}
///
/// `accepted_by` is the accepting analyzer's registry id. `sub` carries the
/// per-analyzer sub-verdicts and timings of a fresh analysis in engine
/// execution order ("skipped" = early-exit never ran it); cache hits store
/// only the summary, so `sub` is omitted. `taskset` supplies the n/ut/us
/// diagnostics; pass nullptr to omit them (e.g. when echoing a cached
/// verdict without rebuilding the set).
[[nodiscard]] std::string format_verdict_line(const BatchVerdict& verdict,
                                              const TaskSet* taskset);

/// Error response line: {"id":"r1","error":"<message>"}.
[[nodiscard]] std::string format_error_line(const std::string& id,
                                            const std::string& message);

/// Overload-shedding response line: {"id":"r1","shed":"queue"}. Distinct
/// from "error" — the request was well-formed but the server chose not to
/// evaluate it (bounded queue overflow, expired deadline); clients may
/// retry, which they must not do for errors.
[[nodiscard]] std::string format_shed_line(const std::string& id,
                                           const std::string& reason);

/// JSON string-body escaping (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(const std::string& raw);

/// Best-effort id extraction from a line that will not (or cannot) be fully
/// parsed — an oversized line's kept prefix, or a request shed before
/// parsing. Only scans for a leading `"id":"..."` / `"id":123` member;
/// anything else yields "" and the response goes out uncorrelated.
[[nodiscard]] std::string recover_request_id(const std::string& text);

}  // namespace reconf::svc
