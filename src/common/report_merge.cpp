#include "common/report_merge.hpp"

#include <fstream>
#include <sstream>

namespace reconf {

namespace {

constexpr const char* kSpace = " \t\r\n";

/// One past the end of the JSON value starting at text[i], or npos when
/// the text ends first. Strings are skipped with their escapes, so
/// brackets inside them never count; a bare number or literal ends at the
/// ',' or closing bracket that follows it (trailing whitespace included).
std::size_t value_end(const std::string& text, std::size_t i) {
  int depth = 0;
  bool in_string = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return i;
      if (--depth == 0) return i + 1;
    } else if (c == ',' && depth == 0) {
      return i;
    }
  }
  return std::string::npos;
}

/// The top-level object of a report: where the member `quoted` starts and
/// its value ends (member == npos when absent), and the closing '}'.
struct TopLevel {
  bool ok = false;
  std::size_t member = std::string::npos;
  std::size_t member_end = 0;
  std::size_t close = 0;
};

TopLevel scan_top_level(const std::string& text, const std::string& quoted) {
  TopLevel top;
  std::size_t i = text.find_first_not_of(kSpace);
  if (i == std::string::npos || text[i] != '{') return top;
  ++i;
  for (;;) {
    i = text.find_first_not_of(" \t\r\n,", i);
    if (i == std::string::npos) return top;
    if (text[i] == '}') {
      top.close = i;
      top.ok = true;
      return top;
    }
    if (text[i] != '"') return top;
    const std::size_t key_end = value_end(text, i);
    const std::size_t colon = text.find_first_not_of(kSpace, key_end);
    if (colon == std::string::npos || text[colon] != ':') return top;
    const std::size_t value = text.find_first_not_of(kSpace, colon + 1);
    std::size_t end = value == std::string::npos
                          ? std::string::npos
                          : value_end(text, value);
    if (end == std::string::npos) return top;
    end = text.find_last_not_of(kSpace, end - 1) + 1;  // value is non-space
    if (text.compare(i, key_end - i, quoted) == 0) {
      top.member = i;
      top.member_end = end;
    }
    i = end;
  }
}

}  // namespace

bool merge_report_section(const std::string& path, const std::string& key,
                          const std::string& value_json,
                          std::string* error) {
  const std::string quoted = "\"" + key + "\"";
  const std::string entry = quoted + ": " + value_json;

  std::string text;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }
  }
  if (text.empty()) {
    text = "{\n  " + entry + "\n}\n";
  } else {
    const TopLevel top = scan_top_level(text, quoted);
    if (!top.ok) {
      if (error != nullptr) *error = path + ": not a JSON object";
      return false;
    }
    if (top.member != std::string::npos) {
      text.replace(top.member, top.member_end - top.member, entry);
    } else {
      // The object's '{' at the latest stops the backward scan.
      const std::size_t tail = text.find_last_not_of(kSpace, top.close - 1) + 1;
      const char* sep = text[tail - 1] == '{' ? "\n  " : ",\n  ";
      text.replace(tail, top.close - tail, sep + entry + "\n");
    }
  }

  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  out << text;
  return true;
}

}  // namespace reconf
