#include "svc/codec.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/registry.hpp"
#include "svc/json.hpp"
#include "task/io.hpp"

namespace reconf::svc {

namespace {

// The JSON value grammar lives in svc/json.hpp (shared with the oracle's
// NDJSON repro reader); this file owns only the request/response schema.
using JsonValue = json::Value;

// ------------------------------------------------------------- request ----

[[noreturn]] void bad_request(const std::string& what) {
  throw CodecError("bad request: " + what);
}

long long require_positive_int(const JsonValue& v, const std::string& what) {
  if (v.kind != JsonValue::Kind::kNumber || !v.integral) {
    bad_request(what + " must be an integer");
  }
  if (v.integer <= 0) bad_request(what + " must be positive");
  return v.integer;
}

Task parse_task_object(const JsonValue& v, std::size_t index) {
  const std::string where = "tasks[" + std::to_string(index) + "]";
  if (v.kind != JsonValue::Kind::kObject) bad_request(where + " must be an object");
  long long c = 0;
  long long d = 0;
  long long t = 0;
  long long a = 0;
  bool has_c = false;
  bool has_d = false;
  bool has_t = false;
  bool has_a = false;
  std::string name;
  for (const auto& [key, val] : v.members) {
    if (key == "c") {
      c = require_positive_int(val, where + ".c");
      has_c = true;
    } else if (key == "d") {
      d = require_positive_int(val, where + ".d");
      has_d = true;
    } else if (key == "t") {
      t = require_positive_int(val, where + ".t");
      has_t = true;
    } else if (key == "a") {
      a = require_positive_int(val, where + ".a");
      has_a = true;
    } else if (key == "name") {
      if (val.kind != JsonValue::Kind::kString) {
        bad_request(where + ".name must be a string");
      }
      name = val.text;
    } else {
      bad_request(where + " has unknown key '" + key + "'");
    }
  }
  if (!has_c || !has_d || !has_t || !has_a) {
    bad_request(where + " requires keys c, d, t, a");
  }
  try {
    return io::make_task_checked(name.empty() ? "-" : name, c, d, t, a, where);
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
}

}  // namespace

namespace {

/// Validates a "tests" array: non-empty, strings only, every id registered.
/// Unknown ids are rejected here — with the registered ids listed — so a
/// typo'd lineup turns into a correlatable error response instead of an
/// exception inside the batch pipeline.
std::vector<std::string> parse_tests_array(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kArray || v.items.empty()) {
    bad_request("tests must be a non-empty array of analyzer ids");
  }
  const auto& registry = analysis::AnalyzerRegistry::instance();
  std::vector<std::string> out;
  out.reserve(v.items.size());
  for (std::size_t i = 0; i < v.items.size(); ++i) {
    const JsonValue& item = v.items[i];
    if (item.kind != JsonValue::Kind::kString) {
      bad_request("tests[" + std::to_string(i) + "] must be a string");
    }
    if (registry.find(item.text) == nullptr) {
      bad_request("unknown analyzer '" + item.text +
                  "'; registered analyzers: " + registry.id_list());
    }
    out.push_back(item.text);
  }
  return out;
}

/// Body of parse_request_line once the id is known; split out so every
/// validation failure can be rethrown with the id attached.
BatchRequest parse_request_members(const JsonValue& doc, std::string id) {
  BatchRequest out;
  out.id = std::move(id);
  const JsonValue* device = nullptr;
  const JsonValue* tasks = nullptr;
  const JsonValue* taskset_text = nullptr;
  for (const auto& [key, val] : doc.members) {
    if (key == "id") {
      // already extracted
    } else if (key == "device") {
      device = &val;
    } else if (key == "tasks") {
      tasks = &val;
    } else if (key == "taskset") {
      taskset_text = &val;
    } else if (key == "tests") {
      out.tests = parse_tests_array(val);
    } else if (key == "stats") {
      // Introspection request: only {"id":...,"stats":true} is valid.
      // stats:false is rejected rather than treated as a no-op analysis
      // request — the caller clearly meant something, and guessing which
      // half is the same trap as a typo'd task key.
      if (val.kind != JsonValue::Kind::kBool || !val.boolean) {
        bad_request("stats must be the literal true");
      }
      out.stats = true;
    } else {
      bad_request("unknown key '" + key + "'");
    }
  }

  if (out.stats) {
    if (device != nullptr || tasks != nullptr || taskset_text != nullptr ||
        !out.tests.empty()) {
      bad_request("'stats' excludes 'tasks'/'device'/'taskset'/'tests'");
    }
    return out;
  }

  if (taskset_text != nullptr) {
    if (tasks != nullptr || device != nullptr) {
      bad_request("'taskset' excludes 'tasks'/'device'");
    }
    if (taskset_text->kind != JsonValue::Kind::kString) {
      bad_request("taskset must be a string in the task/io.hpp v1 format");
    }
    try {
      io::ParsedTaskSet parsed = io::from_string(taskset_text->text);
      out.taskset = std::move(parsed.taskset);
      out.device = parsed.device;
    } catch (const std::exception& e) {
      bad_request(e.what());
    }
    return out;
  }

  if (device == nullptr || tasks == nullptr) {
    bad_request("requires either 'taskset' or both 'device' and 'tasks'");
  }
  const long long width = require_positive_int(*device, "device");
  if (width > std::numeric_limits<Area>::max()) {
    bad_request("device width out of range");
  }
  out.device = Device{static_cast<Area>(width)};
  if (tasks->kind != JsonValue::Kind::kArray) {
    bad_request("tasks must be an array");
  }
  std::vector<Task> parsed;
  parsed.reserve(tasks->items.size());
  for (std::size_t i = 0; i < tasks->items.size(); ++i) {
    parsed.push_back(parse_task_object(tasks->items[i], i));
  }
  out.taskset = TaskSet(std::move(parsed));
  return out;
}

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

std::size_t StreamFramer::buffered() const noexcept {
  std::size_t total = partial_.size() + oversized_prefix_.size();
  for (std::size_t i = ready_head_; i < ready_.size(); ++i) {
    total += ready_[i].first.size();
  }
  return total;
}

BatchRequest parse_request_line(const std::string& line) {
  if (line.size() > kMaxRequestLine) {
    throw CodecError("bad request: line exceeds " +
                     std::to_string(kMaxRequestLine) + " bytes");
  }
  JsonValue doc;
  try {
    doc = json::parse(line);
  } catch (const json::JsonError& e) {
    throw CodecError(e.what());
  }
  if (doc.kind != JsonValue::Kind::kObject) {
    bad_request("request line must be a JSON object");
  }

  // Extract the id before any other validation, so every later failure can
  // still be answered with a correlatable error response.
  std::string id;
  for (const auto& [key, val] : doc.members) {
    if (key != "id") continue;
    if (val.kind == JsonValue::Kind::kString) {
      id = val.text;
    } else if (val.kind == JsonValue::Kind::kNumber && val.integral) {
      id = std::to_string(val.integer);
    } else {
      bad_request("id must be a string or integer");
    }
    break;
  }

  try {
    return parse_request_members(doc, id);
  } catch (const CodecError& e) {
    throw CodecError(e.what(), id);
  }
}

// ------------------------------------------------------------ response ----

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string format_verdict_line(const BatchVerdict& verdict,
                                const TaskSet* taskset) {
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                static_cast<unsigned long long>(verdict.hash));

  std::string out = "{\"id\":\"" + json_escape(verdict.id) + "\"";
  out += ",\"verdict\":\"";
  out += verdict.accepted ? "schedulable" : "inconclusive";
  out += "\"";
  if (!verdict.accepted_by.empty()) {
    out += ",\"accepted_by\":\"" + json_escape(verdict.accepted_by) + "\"";
  }
  out += ",\"cache\":\"";
  out += verdict.cache_hit ? "hit" : "miss";
  out += "\",\"hash\":\"";
  out += hash_hex;
  out += "\"";
  if (taskset != nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof buf, ",\"n\":%zu,\"ut\":%.6g,\"us\":%.6g",
                  taskset->size(), taskset->time_utilization(),
                  taskset->system_utilization());
    out += buf;
  }
  if (!verdict.sub.empty()) {
    out += ",\"sub\":[";
    for (std::size_t i = 0; i < verdict.sub.size(); ++i) {
      const SubVerdict& s = verdict.sub[i];
      if (i != 0) out += ",";
      out += "{\"test\":\"" + json_escape(s.test) + "\"";
      if (!s.ran) {
        out += ",\"skipped\":true}";
        continue;
      }
      out += ",\"verdict\":\"";
      out += s.accepted ? "schedulable" : "inconclusive";
      char buf[48];
      std::snprintf(buf, sizeof buf, "\",\"micros\":%.3g}", s.micros);
      out += buf;
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string format_error_line(const std::string& id,
                              const std::string& message) {
  return "{\"id\":\"" + json_escape(id) + "\",\"error\":\"" +
         json_escape(message) + "\"}";
}

std::string format_shed_line(const std::string& id,
                             const std::string& reason) {
  return "{\"id\":\"" + json_escape(id) + "\",\"shed\":\"" +
         json_escape(reason) + "\"}";
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
