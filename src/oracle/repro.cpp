#include "oracle/repro.hpp"

#include <charconv>
#include <cstdio>
#include <istream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/json_escape.hpp"
#include "svc/json.hpp"
#include "task/io.hpp"

namespace reconf::oracle {

namespace {

using svc::json::Value;

[[noreturn]] void bad_repro(const std::string& what) {
  throw std::runtime_error("bad repro: " + what);
}

long long require_positive_int(const Value& v, const std::string& what) {
  if (v.kind != Value::Kind::kNumber || !v.integral) {
    bad_repro(what + " must be an integer");
  }
  if (v.integer <= 0) bad_repro(what + " must be positive");
  return v.integer;
}

std::string require_string(const Value& v, const std::string& what) {
  if (v.kind != Value::Kind::kString) bad_repro(what + " must be a string");
  return v.text;
}

Task parse_task(const Value& v, std::size_t index) {
  const std::string where = "tasks[" + std::to_string(index) + "]";
  if (v.kind != Value::Kind::kObject) bad_repro(where + " must be an object");
  long long c = 0, d = 0, t = 0, a = 0;
  bool has_c = false, has_d = false, has_t = false, has_a = false;
  std::string name;
  for (const auto& [key, val] : v.members) {
    if (key == "c") { c = require_positive_int(val, where + ".c"); has_c = true; }
    else if (key == "d") { d = require_positive_int(val, where + ".d"); has_d = true; }
    else if (key == "t") { t = require_positive_int(val, where + ".t"); has_t = true; }
    else if (key == "a") { a = require_positive_int(val, where + ".a"); has_a = true; }
    else if (key == "name") { name = require_string(val, where + ".name"); }
    else bad_repro(where + " has unknown key '" + key + "'");
  }
  if (!has_c || !has_d || !has_t || !has_a) {
    bad_repro(where + " requires keys c, d, t, a");
  }
  return io::make_task_checked(name.empty() ? "-" : name, c, d, t, a, where);
}

/// The whole of `text` as one unsigned decimal or 0x-prefixed hex number.
/// (std::stoull would wrap "-1" and stop at the first stray byte.)
std::uint64_t parse_seed(const std::string& text) {
  std::string_view digits = text;
  int base = 10;
  if (digits.starts_with("0x") || digits.starts_with("0X")) {
    digits.remove_prefix(2);
    base = 16;
  }
  std::uint64_t seed = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, seed, base);
  if (ec != std::errc{} || ptr != end) {
    bad_repro("unparsable seed '" + text + "'");
  }
  return seed;
}

}  // namespace

std::string format_repro_line(const ReproCase& repro) {
  std::string out = "{\"schema\":\"reconf-repro/1\"";
  out += ",\"id\":\"" + json_escape(repro.id) + "\"";
  out += ",\"kind\":\"" + json_escape(repro.kind) + "\"";
  out += ",\"device\":" + std::to_string(repro.device.width);
  out += ",\"tasks\":[";
  for (std::size_t i = 0; i < repro.taskset.size(); ++i) {
    const Task& t = repro.taskset[i];
    if (i != 0) out += ",";
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "{\"c\":%lld,\"d\":%lld,\"t\":%lld,\"a\":%d}",
                  static_cast<long long>(t.wcet),
                  static_cast<long long>(t.deadline),
                  static_cast<long long>(t.period), t.area);
    out += buf;
  }
  out += "]";
  if (!repro.tests.empty()) {
    out += ",\"tests\":[";
    for (std::size_t i = 0; i < repro.tests.size(); ++i) {
      if (i != 0) out += ",";
      out += "\"" + json_escape(repro.tests[i]) + "\"";
    }
    out += "]";
  }
  if (repro.expect_accept.has_value()) {
    out += std::string(",\"expect\":\"") +
           (*repro.expect_accept ? "schedulable" : "inconclusive") + "\"";
  }
  if (repro.expect_sync_miss.has_value()) {
    out += std::string(",\"sim\":\"") +
           (*repro.expect_sync_miss ? "miss" : "meets") + "\"";
  }
  if (!repro.analyzer.empty()) {
    out += ",\"analyzer\":\"" + json_escape(repro.analyzer) + "\"";
  }
  if (!repro.scheduler.empty()) {
    out += ",\"scheduler\":\"" + json_escape(repro.scheduler) + "\"";
  }
  if (!repro.family.empty()) {
    out += ",\"family\":\"" + json_escape(repro.family) + "\"";
  }
  if (repro.seed != 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, ",\"seed\":\"0x%llx\"",
                  static_cast<unsigned long long>(repro.seed));
    out += buf;
  }
  if (!repro.note.empty()) {
    out += ",\"note\":\"" + json_escape(repro.note) + "\"";
  }
  out += "}";
  return out;
}

ReproCase parse_repro_line(const std::string& line) {
  Value doc;
  try {
    doc = svc::json::parse(line);
  } catch (const svc::json::JsonError& e) {
    bad_repro(e.what());
  }
  if (doc.kind != Value::Kind::kObject) {
    bad_repro("repro line must be a JSON object");
  }

  ReproCase out;
  const Value* tasks = nullptr;
  bool has_schema = false, has_device = false;
  for (const auto& [key, val] : doc.members) {
    if (key == "schema") {
      if (require_string(val, "schema") != "reconf-repro/1") {
        bad_repro("unsupported schema '" + val.text + "'");
      }
      has_schema = true;
    } else if (key == "id") {
      out.id = require_string(val, "id");
    } else if (key == "kind") {
      out.kind = require_string(val, "kind");
    } else if (key == "device") {
      const long long width = require_positive_int(val, "device");
      if (const char* why = width_domain_error(width)) bad_repro(why);
      out.device = Device{static_cast<Area>(width)};
      has_device = true;
    } else if (key == "tasks") {
      tasks = &val;
    } else if (key == "tests") {
      if (val.kind != Value::Kind::kArray || val.items.empty()) {
        bad_repro("tests must be a non-empty array");
      }
      for (std::size_t i = 0; i < val.items.size(); ++i) {
        out.tests.push_back(
            require_string(val.items[i], "tests[" + std::to_string(i) + "]"));
      }
    } else if (key == "expect") {
      const std::string v = require_string(val, "expect");
      if (v == "schedulable") out.expect_accept = true;
      else if (v == "inconclusive") out.expect_accept = false;
      else bad_repro("expect must be 'schedulable' or 'inconclusive'");
    } else if (key == "sim") {
      const std::string v = require_string(val, "sim");
      if (v == "miss") out.expect_sync_miss = true;
      else if (v == "meets") out.expect_sync_miss = false;
      else bad_repro("sim must be 'miss' or 'meets'");
    } else if (key == "analyzer") {
      out.analyzer = require_string(val, "analyzer");
    } else if (key == "scheduler") {
      out.scheduler = require_string(val, "scheduler");
    } else if (key == "family") {
      out.family = require_string(val, "family");
    } else if (key == "seed") {
      out.seed = parse_seed(require_string(val, "seed"));
    } else if (key == "note") {
      out.note = require_string(val, "note");
    } else {
      bad_repro("unknown key '" + key + "'");
    }
  }

  if (!has_schema) bad_repro("missing schema");
  if (out.id.empty()) bad_repro("missing id");
  if (out.kind.empty()) bad_repro("missing kind");
  if (!has_device) bad_repro("missing device");
  if (tasks == nullptr || tasks->kind != Value::Kind::kArray ||
      tasks->items.empty()) {
    bad_repro("missing or empty tasks array");
  }
  std::vector<Task> parsed;
  parsed.reserve(tasks->items.size());
  for (std::size_t i = 0; i < tasks->items.size(); ++i) {
    parsed.push_back(parse_task(tasks->items[i], i));
  }
  out.taskset = TaskSet(std::move(parsed));
  return out;
}

std::vector<ReproCase> read_corpus(std::istream& in) {
  std::vector<ReproCase> out;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    try {
      out.push_back(parse_repro_line(line));
    } catch (const std::exception& e) {
      throw std::runtime_error("corpus line " + std::to_string(line_number) +
                               ": " + e.what());
    }
  }
  return out;
}

}  // namespace reconf::oracle
