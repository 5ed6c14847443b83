#pragma once

#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// Command-line flags for every tool: `--name=VALUE` and bare `--name`,
/// looked up in the argument list (first match wins). One strict copy, so
/// a bad value fails the same way in every tool — a message on stderr and
/// exit status 2, never a silent default or an uncaught exception.
namespace reconf {

/// The whole of `text` as an integer: decimal, or hexadecimal after a
/// 0x/0X prefix (how seeds are usually written). Empty text, a sign on a
/// hex value, trailing bytes or overflow yield nullopt.
[[nodiscard]] std::optional<long long> parse_int(std::string_view text);

/// Whether `arg` is one of `known`: entries ending in '=' take a value
/// (`--name=`), the others are bare flags matched exactly.
[[nodiscard]] bool is_known_flag(std::string_view arg,
                                 std::span<const char* const> known);

/// The value of `--name=V`, nullopt when absent.
[[nodiscard]] std::optional<std::string> flag_value(
    const std::vector<std::string>& args, std::string_view name);

/// The value of `--name=V`, empty when absent.
[[nodiscard]] std::string flag_str(const std::vector<std::string>& args,
                                   std::string_view name);

/// `--name=V` through parse_int, nullopt when absent. Exits with status 2
/// and a message when V is not an integer.
[[nodiscard]] std::optional<long long> flag_int(
    const std::vector<std::string>& args, std::string_view name);

/// `--name=V` through flag_int, `fallback` when absent. Exits with status 2
/// and a message when V is not an integer or lies outside [lo, hi] — the
/// one ranged reader, so no tool clamps a value or trips a precondition on
/// it.
[[nodiscard]] long long int_flag(const std::vector<std::string>& args,
                                 std::string_view name, long long fallback,
                                 long long lo, long long hi);

/// Upper ends for int_flag ranges: a value that must fit an int, and one
/// that may take any non-negative long long.
inline constexpr long long kMaxInt = std::numeric_limits<int>::max();
inline constexpr long long kMaxLong = std::numeric_limits<long long>::max();

/// Whether the bare flag `--name` is present.
[[nodiscard]] bool has_flag(const std::vector<std::string>& args,
                            std::string_view name);

/// Writes `text` to the file an output flag names (`--metrics-out=PATH`,
/// `--trace-out=PATH`); "-" writes it to stderr. A failed open is reported
/// as "cannot write WHAT to PATH" and otherwise ignored: the tool's own
/// output already went out, so its exit status does not change.
void write_text_file(const std::string& path, const std::string& text,
                     const char* what);

}  // namespace reconf
