#pragma once

#include <string>
#include <string_view>

namespace reconf {

/// Appends `raw` as the body of a JSON string: quotes and backslashes are
/// backslash-escaped, \b \f \n \r \t get their short forms, other control
/// bytes become \u00XX, and everything else (UTF-8 included) is copied as
/// is, in whole runs. The one JSON string escaper: the wire codec, the
/// metrics and trace exporters and every NDJSON writer use it.
inline void append_json_escaped(std::string& out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xF]);
    }
  }
  out.append(raw.data() + run, raw.size() - run);
}

/// `raw` as the body of a JSON string (see append_json_escaped).
[[nodiscard]] inline std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_json_escaped(out, raw);
  return out;
}

}  // namespace reconf
