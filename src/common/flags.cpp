#include "common/flags.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace reconf {

std::optional<long long> parse_int(std::string_view text) {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
    if (text.front() == '-') return std::nullopt;
  }
  long long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

bool is_known_flag(std::string_view arg, std::span<const char* const> known) {
  for (const std::string_view flag : known) {
    if (flag.back() == '=' ? arg.starts_with(flag) : arg == flag) return true;
  }
  return false;
}

std::optional<std::string> flag_value(const std::vector<std::string>& args,
                                      std::string_view name) {
  const std::string prefix = "--" + std::string(name) + "=";
  for (const std::string& a : args) {
    if (a.starts_with(prefix)) return a.substr(prefix.size());
  }
  return std::nullopt;
}

std::string flag_str(const std::vector<std::string>& args,
                     std::string_view name) {
  return flag_value(args, name).value_or("");
}

std::optional<long long> flag_int(const std::vector<std::string>& args,
                                  std::string_view name) {
  const std::optional<std::string> text = flag_value(args, name);
  if (!text) return std::nullopt;
  if (const std::optional<long long> value = parse_int(*text)) return value;
  std::fprintf(stderr, "invalid value for --%.*s: '%s'\n",
               static_cast<int>(name.size()), name.data(), text->c_str());
  std::exit(2);
}

long long int_flag(const std::vector<std::string>& args, std::string_view name,
                   long long fallback, long long lo, long long hi) {
  const long long value = flag_int(args, name).value_or(fallback);
  if (value < lo || value > hi) {
    std::fprintf(stderr, "--%.*s must be in [%lld, %lld], got %lld\n",
                 static_cast<int>(name.size()), name.data(), lo, hi, value);
    std::exit(2);
  }
  return value;
}

bool has_flag(const std::vector<std::string>& args, std::string_view name) {
  const std::string bare = "--" + std::string(name);
  for (const std::string& a : args) {
    if (a == bare) return true;
  }
  return false;
}

void write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  if (path == "-") {
    std::fputs(text.c_str(), stderr);
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return;
  }
  out << text;
}

}  // namespace reconf
