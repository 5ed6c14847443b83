#include "svc/codec.hpp"

#include <charconv>
#include <cstring>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/registry.hpp"
#include "common/json_escape.hpp"
#include "svc/json.hpp"
#include "task/io.hpp"

namespace reconf::svc {

// The request schema, read in one pass over json::Lexer straight into a
// BatchRequest, and the response writer. The JSON grammar itself (and every
// "json error at byte N" message) lives in svc/json.hpp.

namespace {

// ------------------------------------------------------------- request ----

/// Per-thread staging for the tasks of the request being read: a request
/// then costs one allocation for its tasks, the exactly-sized copy handed
/// to its TaskSet. Released after a huge request.
std::vector<Task>& staged_tasks() {
  thread_local std::vector<Task> tasks;
  return tasks;
}
constexpr std::size_t kStagedTasksKept = 4096;

/// Walks one request line in a single pass. Schema errors do not throw on
/// the spot: the line must first turn out to be valid JSON (a syntax error
/// anywhere wins, with no id), and the error reported is the one a reader
/// validating members in this order would meet first:
///
///   1. the first "id" that is neither a string nor an integer (no id);
///   2. in member order: an unknown key, a bad "tests", a bad "stats";
///   3. "stats" mixed with anything; "taskset" mixed with "tasks"/"device",
///      then the last "taskset" itself;
///   4. a missing "device" or "tasks", then the last "device", then the
///      last "tasks" — its items in index order, each item's members in
///      order, then its missing keys and area range.
///
/// Once an error of rank 1 or 2 is known, nothing is built any more: the
/// rest of the line is only syntax-checked (and searched for a first id).
class RequestReader {
 public:
  explicit RequestReader(std::string_view line)
      : lex_(line), tasks_(staged_tasks()) {
    tasks_.clear();
  }

  ~RequestReader() {
    if (tasks_.capacity() > kStagedTasksKept) std::vector<Task>().swap(tasks_);
  }

  RequestReader(const RequestReader&) = delete;
  RequestReader& operator=(const RequestReader&) = delete;

  BatchRequest read() {
    if (lex_.peek() != '{') {
      lex_.skip_value();
      lex_.finish();
      throw CodecError("bad request: request line must be a JSON object");
    }
    if (lex_.open('{')) {
      do {
        const std::string_view key = lex_.string(key_scratch_);
        lex_.expect(':');
        member(key);
      } while (lex_.next('}'));
    }
    lex_.finish();
    return result();
  }

 private:
  /// An error of rank 1 or 2 decides the answer.
  [[nodiscard]] bool decided() const noexcept {
    return id_bad_ || !member_error_.empty();
  }

  void member(std::string_view key) {
    if (key == "id") {
      read_id();
    } else if (decided()) {
      lex_.skip_value();
    } else if (key == "device") {
      read_device();
    } else if (key == "tasks") {
      read_tasks();
    } else if (key == "taskset") {
      has_taskset_ = true;
      taskset_is_string_ = lex_.peek() == '"';
      if (taskset_is_string_) {
        taskset_text_ = lex_.string(value_scratch_);
      } else {
        lex_.skip_value();
      }
    } else if (key == "tests") {
      read_tests();
    } else if (key == "stats") {
      // Introspection request: only {"id":...,"stats":true} is valid.
      // stats:false is rejected rather than treated as a no-op analysis
      // request — the caller clearly meant something, and guessing which
      // half is the same trap as a typo'd task key.
      const char c = lex_.peek();
      if (c == 't' || c == 'f') {
        if (lex_.boolean()) {
          out_.stats = true;
          return;
        }
      } else {
        lex_.skip_value();
      }
      member_error_ = "stats must be the literal true";
    } else {
      member_error_ = "unknown key '" + std::string(key) + "'";
      lex_.skip_value();
    }
  }

  /// The first id wins; later ones are only syntax-checked.
  void read_id() {
    if (id_seen_) {
      lex_.skip_value();
      return;
    }
    id_seen_ = true;
    if (lex_.peek() == '"') {
      out_.id = lex_.string(value_scratch_);
    } else if (const auto v = integer()) {
      out_.id = std::to_string(*v);
    } else {
      id_bad_ = true;
    }
  }

  /// The next value as an integral number, else nullopt (value skipped).
  std::optional<long long> integer() {
    if (!lex_.at_number()) {
      lex_.skip_value();
      return std::nullopt;
    }
    const json::Number n = lex_.number();
    if (!n.integral) return std::nullopt;
    return n.integer;
  }

  void read_device() {
    has_device_ = true;
    device_error_ = nullptr;
    const auto v = integer();
    if (!v) {
      device_error_ = "device must be an integer";
    } else if (*v <= 0) {
      device_error_ = "device must be positive";
    } else if (const char* why = width_domain_error(*v)) {
      device_error_ = why;
    } else {
      out_.device = Device{static_cast<Area>(*v)};
    }
  }

  /// Validates a "tests" array: non-empty, strings only, every id
  /// registered. Unknown ids are rejected here — with the registered ids
  /// listed — so a typo'd lineup turns into a correlatable error response
  /// instead of an exception inside the batch pipeline.
  void read_tests() {
    static constexpr const char* kShape =
        "tests must be a non-empty array of analyzer ids";
    if (lex_.peek() != '[') {
      lex_.skip_value();
      member_error_ = kShape;
      return;
    }
    if (!lex_.open('[')) {
      member_error_ = kShape;
      return;
    }
    const auto& registry = analysis::AnalyzerRegistry::instance();
    std::vector<std::string> tests;
    std::size_t i = 0;
    do {
      if (decided()) {
        lex_.skip_value();
      } else if (lex_.peek() != '"') {
        lex_.skip_value();
        member_error_ = "tests[" + std::to_string(i) + "] must be a string";
      } else {
        const std::string_view id = lex_.string(value_scratch_);
        if (registry.find(id) == nullptr) {
          member_error_ = "unknown analyzer '" + std::string(id) +
                          "'; registered analyzers: " + registry.id_list();
        } else {
          tests.emplace_back(id);
        }
      }
      ++i;
    } while (lex_.next(']'));
    if (!decided()) out_.tests = std::move(tests);
  }

  /// The last "tasks" wins: each one restarts the staging.
  void read_tasks() {
    has_tasks_ = true;
    tasks_error_.clear();
    tasks_.clear();
    if (lex_.peek() != '[') {
      lex_.skip_value();
      tasks_error_ = "tasks must be an array";
      return;
    }
    if (!lex_.open('[')) return;
    std::size_t index = 0;
    do {
      if (tasks_error_.empty()) {
        read_task(index++);
      } else {
        lex_.skip_value();
      }
    } while (lex_.next(']'));
  }

  void task_error(std::size_t index, std::string_view what) {
    tasks_error_ = "tasks[" + std::to_string(index) + "]";
    tasks_error_ += what;
  }

  void read_task(std::size_t index) {
    if (lex_.peek() != '{') {
      lex_.skip_value();
      task_error(index, " must be an object");
      return;
    }
    long long fields[4] = {};  // c, d, t, a
    bool seen[4] = {};
    name_.clear();
    if (lex_.open('{')) {
      do {
        const std::string_view key = lex_.string(key_scratch_);
        lex_.expect(':');
        if (!tasks_error_.empty()) {
          lex_.skip_value();
          continue;
        }
        const int slot = key.size() != 1 ? -1
                         : key[0] == 'c'  ? 0
                         : key[0] == 'd'  ? 1
                         : key[0] == 't'  ? 2
                         : key[0] == 'a'  ? 3
                                          : -1;
        if (slot >= 0) {
          const auto v = integer();
          if (!v) {
            task_error(index, "." + std::string(key) + " must be an integer");
          } else if (*v <= 0) {
            task_error(index, "." + std::string(key) + " must be positive");
          } else {
            fields[slot] = *v;
            seen[slot] = true;
          }
        } else if (key == "name") {
          if (lex_.peek() == '"') {
            name_ = lex_.string(value_scratch_);
          } else {
            lex_.skip_value();
            task_error(index, ".name must be a string");
          }
        } else {
          task_error(index, " has unknown key '" + std::string(key) + "'");
          lex_.skip_value();
        }
      } while (lex_.next('}'));
    }
    if (!tasks_error_.empty()) return;
    if (!seen[0] || !seen[1] || !seen[2] || !seen[3]) {
      task_error(index, " requires keys c, d, t, a");
      return;
    }
    // io::make_task_checked's domain rule and message, without building its
    // context string for every task.
    if (const char* why =
            task_domain_error(fields[0], fields[1], fields[2], fields[3])) {
      task_error(index, std::string(": ") + why);
      return;
    }
    Task& t = tasks_.emplace_back();
    t.wcet = fields[0];
    t.deadline = fields[1];
    t.period = fields[2];
    t.area = static_cast<Area>(fields[3]);
    if (name_ != "-") t.name = name_;  // "" and "-" both mean unnamed
  }

  [[noreturn]] void reject(std::string_view what) const {
    std::string msg = "bad request: ";
    msg += what;
    throw CodecError(msg, out_.id);
  }

  BatchRequest result() {
    if (id_bad_) {
      throw CodecError("bad request: id must be a string or integer");
    }
    if (!member_error_.empty()) reject(member_error_);
    if (out_.stats) {
      if (has_device_ || has_tasks_ || has_taskset_ || !out_.tests.empty()) {
        reject("'stats' excludes 'tasks'/'device'/'taskset'/'tests'");
      }
      return std::move(out_);
    }
    if (has_taskset_) {
      if (has_tasks_ || has_device_) {
        reject("'taskset' excludes 'tasks'/'device'");
      }
      if (!taskset_is_string_) {
        reject("taskset must be a string in the task/io.hpp v1 format");
      }
      try {
        io::ParsedTaskSet parsed = io::from_string(taskset_text_);
        out_.taskset = std::move(parsed.taskset);
        out_.device = parsed.device;
      } catch (const std::exception& e) {
        reject(e.what());
      }
      return std::move(out_);
    }
    if (!has_device_ || !has_tasks_) {
      reject("requires either 'taskset' or both 'device' and 'tasks'");
    }
    if (device_error_ != nullptr) reject(device_error_);
    if (!tasks_error_.empty()) reject(tasks_error_);
    out_.taskset = TaskSet(std::vector<Task>(
        std::make_move_iterator(tasks_.begin()),
        std::make_move_iterator(tasks_.end())));
    return std::move(out_);
  }

  json::Lexer lex_;
  std::vector<Task>& tasks_;   ///< the last "tasks", staged
  BatchRequest out_;
  std::string key_scratch_;    ///< a key with escapes, decoded
  std::string value_scratch_;  ///< a string value with escapes, decoded
  std::string name_;           ///< the current task's last "name"

  bool id_seen_ = false;
  bool id_bad_ = false;
  std::string member_error_;  ///< rank 2, first in member order

  bool has_device_ = false;
  const char* device_error_ = nullptr;  ///< of the last "device"
  bool has_tasks_ = false;
  std::string tasks_error_;  ///< first error of the last "tasks"
  bool has_taskset_ = false;
  bool taskset_is_string_ = false;
  std::string taskset_text_;  ///< of the last "taskset"
};

}  // namespace

void StreamFramer::feed(const char* data, std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    const auto* nl = static_cast<const char*>(
        std::memchr(data + i, '\n', n - i));
    if (discarding_) {
      // Over-cap line: drop bytes unbuffered until its newline.
      if (nl == nullptr) return;
      i = static_cast<std::size_t>(nl - data) + 1;
      ready_.emplace_back(std::move(oversized_prefix_),
                          LineStatus::kOversized);
      oversized_prefix_.clear();
      discarding_ = false;
      continue;
    }
    const std::size_t end =
        nl != nullptr ? static_cast<std::size_t>(nl - data) : n;
    const std::size_t len = end - i;
    if (partial_.size() + len > max_len_) {
      // Keep exactly the cap's worth of prefix (id recovery), discard the
      // rest of this line.
      partial_.append(data + i, max_len_ - partial_.size());
      oversized_prefix_ = std::move(partial_);
      partial_.clear();
      if (nl != nullptr) {
        ready_.emplace_back(std::move(oversized_prefix_),
                            LineStatus::kOversized);
        oversized_prefix_.clear();
        i = end + 1;
      } else {
        discarding_ = true;
        i = n;
      }
      continue;
    }
    partial_.append(data + i, len);
    if (nl != nullptr) {
      ready_.emplace_back(std::move(partial_), LineStatus::kLine);
      partial_.clear();
      i = end + 1;
    } else {
      i = n;
    }
  }
}

bool StreamFramer::next(std::string& line, LineStatus& status) {
  if (ready_head_ >= ready_.size()) {
    if (!ready_.empty()) {
      ready_.clear();
      ready_head_ = 0;
    }
    return false;
  }
  line = std::move(ready_[ready_head_].first);
  status = ready_[ready_head_].second;
  ++ready_head_;
  return true;
}

bool StreamFramer::finish(std::string& line, LineStatus& status) {
  if (next(line, status)) return true;
  if (discarding_) {
    line = std::move(oversized_prefix_);
    oversized_prefix_.clear();
    discarding_ = false;
    status = LineStatus::kOversized;
    return true;
  }
  if (!partial_.empty()) {
    line = std::move(partial_);
    partial_.clear();
    status = LineStatus::kLine;
    return true;
  }
  return false;
}

BatchRequest parse_request_line(const std::string& line) {
  if (line.size() > kMaxRequestLine) {
    throw CodecError("bad request: line exceeds " +
                     std::to_string(kMaxRequestLine) + " bytes");
  }
  try {
    return RequestReader(line).read();
  } catch (const json::JsonError& e) {
    throw CodecError(e.what());
  }
}

// ------------------------------------------------------------ response ----

namespace {

/// Appends `value` as printf's "%.<precision>g" would print it — which is
/// how the standard defines this to_chars overload.
void append_general(std::string& out, double value, int precision) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, value,
                               std::chars_format::general, precision);
  out.append(buf, r.ptr);
}

/// "{"id":"<id>","<key>":"<text>"}", the error and shed line shape.
std::string id_and_text_line(const std::string& id, std::string_view key,
                             const std::string& text) {
  std::string out;
  out.reserve(16 + key.size() + id.size() + text.size());
  out += "{\"id\":\"";
  append_json_escaped(out, id);
  out += "\",\"";
  out += key;
  out += "\":\"";
  append_json_escaped(out, text);
  out += "\"}";
  return out;
}

}  // namespace

std::string format_verdict_line(const BatchVerdict& verdict,
                                const TaskSet* taskset) {
  std::string out;
  out.reserve(160 + verdict.id.size() + 64 * verdict.sub.size());
  out += "{\"id\":\"";
  append_json_escaped(out, verdict.id);
  out += verdict.accepted ? "\",\"verdict\":\"schedulable\""
                          : "\",\"verdict\":\"inconclusive\"";
  if (!verdict.accepted_by.empty()) {
    out += ",\"accepted_by\":\"";
    append_json_escaped(out, verdict.accepted_by);
    out += '"';
  }
  out += verdict.cache_hit ? ",\"cache\":\"hit\",\"hash\":\""
                           : ",\"cache\":\"miss\",\"hash\":\"";
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHex[(verdict.hash >> shift) & 0xF]);
  }
  out += '"';
  if (taskset != nullptr) {
    char buf[24];
    out += ",\"n\":";
    out.append(buf, std::to_chars(buf, buf + sizeof buf, taskset->size()).ptr);
    out += ",\"ut\":";
    append_general(out, taskset->time_utilization(), 6);
    out += ",\"us\":";
    append_general(out, taskset->system_utilization(), 6);
  }
  if (!verdict.sub.empty()) {
    out += ",\"sub\":[";
    for (std::size_t i = 0; i < verdict.sub.size(); ++i) {
      const SubVerdict& s = verdict.sub[i];
      if (i != 0) out += ',';
      out += "{\"test\":\"";
      append_json_escaped(out, s.test);
      if (!s.ran) {
        out += "\",\"skipped\":true}";
        continue;
      }
      out += s.accepted ? "\",\"verdict\":\"schedulable\",\"micros\":"
                        : "\",\"verdict\":\"inconclusive\",\"micros\":";
      append_general(out, s.micros, 3);
      out += '}';
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string format_error_line(const std::string& id,
                              const std::string& message) {
  return id_and_text_line(id, "error", message);
}

std::string format_shed_line(const std::string& id,
                             const std::string& reason) {
  return id_and_text_line(id, "shed", reason);
}

std::string recover_request_id(const std::string& text) {
  const std::size_t key = text.find("\"id\"");
  if (key == std::string::npos) return {};
  std::size_t i = key + 4;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i >= text.size() || text[i] != ':') return {};
  ++i;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i >= text.size()) return {};
  if (text[i] == '"') {
    std::string id;
    for (++i; i < text.size() && text[i] != '"'; ++i) {
      if (text[i] == '\\') return {};  // escaped ids: not worth guessing
      id.push_back(text[i]);
    }
    return i < text.size() ? id : std::string{};
  }
  std::string digits;
  if (text[i] == '-') digits.push_back(text[i++]);
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    digits.push_back(text[i++]);
  }
  return digits == "-" ? std::string{} : digits;
}

}  // namespace reconf::svc
