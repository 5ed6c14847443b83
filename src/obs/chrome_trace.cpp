#include "obs/chrome_trace.hpp"

#include <cstdio>

#include "common/json_escape.hpp"

namespace reconf::obs {

void ChromeTraceWriter::complete_event(std::string_view name,
                                       std::string_view cat, double ts_us,
                                       double dur_us, std::uint32_t tid,
                                       std::string_view args_json) {
  if (events_ > 0) out_ += ",";
  ++events_;
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                "\"tid\":%u",
                ts_us, dur_us, tid);
  out_ += "{\"name\":\"" + json_escape(name) + "\",\"cat\":\"" +
          json_escape(cat) + buf;
  if (!args_json.empty()) {
    out_ += ",\"args\":";
    out_.append(args_json.data(), args_json.size());
  }
  out_ += "}";
}

}  // namespace reconf::obs
