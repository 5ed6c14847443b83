#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reconf::svc::json {

/// Thrown on malformed JSON; the message carries the byte offset of the
/// failure ("json error at byte N: ..."). Callers with their own error
/// taxonomy (the NDJSON codec's CodecError, the oracle repro reader) catch
/// and rewrap it.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Nesting cap: recursive descent would otherwise turn "[[[[..." into a
/// stack overflow — a one-line denial of service against the serving tier.
/// Far above anything the request schema needs.
inline constexpr int kMaxDepth = 64;

/// One scanned JSON number.
struct Number {
  double value = 0.0;
  long long integer = 0;  ///< meaningful when `integral`
  bool integral = false;  ///< written without '.', 'e', 'E' and fits i64
};

/// The one JSON scanner: whitespace, punctuation, strings, numbers,
/// literals and whole-value skipping, with every "json error at byte N"
/// message of the grammar. Callers drive it with the grammar's own shape —
///
///   if (lex.open('{')) {            // false: "{}" (already consumed)
///     do {
///       std::string_view key = lex.string(scratch);
///       lex.expect(':');
///       ... read or lex.skip_value() ...
///     } while (lex.next('}'));      // false: the closer was consumed
///   }
///   lex.finish();                   // trailing bytes are an error
///
/// so a reader that walks a fixed schema (the NDJSON request reader) and
/// the DOM builder below fail at the same byte with the same message.
///
/// Numbers are a lenient superset of JSON's: an optional '-', then any run
/// of digits and ".eE+-" holding at least one digit, converted by
/// strtod/strtoll rules ("+5", "007" and "-0" are integers; "1e2" is not; a
/// 19-digit overflow is a non-integral number; "1e999" is unparsable).
class Lexer {
 public:
  explicit Lexer(std::string_view src) noexcept : src_(src) {}

  /// Skips whitespace and returns the next byte without consuming it.
  char peek();

  /// Consumes `c` after whitespace.
  void expect(char c);

  /// True when the next value is a number — every byte but `{["tfn` starts
  /// one, so stray bytes fail as "invalid number", as the grammar has it.
  bool at_number();

  /// Opens a container (`open_char` '{' or '[') under the depth cap.
  /// Returns false for an empty container, whose closer is consumed too.
  bool open(char open_char);

  /// After a container item: consumes ',' (true: another item follows) or
  /// the container's closer `close_char` (false).
  bool next(char close_char);

  /// Reads a string. The result views the source when the string holds no
  /// escape, else `scratch`, which receives the decoded UTF-8 text.
  std::string_view string(std::string& scratch);

  /// Reads a number (see the class comment for the accepted set).
  Number number();

  /// Reads `true` or `false`.
  bool boolean();

  /// Reads `null`.
  void null_literal();

  /// Syntax-checks one value of any kind and skips it.
  void skip_value();

  /// Fails unless only whitespace is left.
  void finish();

 private:
  /// Throws JsonError at the current byte.
  [[noreturn]] void fail(std::string_view what) const;
  void skip_ws() noexcept;
  void decode_escape(std::string& out);

  std::string_view src_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// One parsed JSON value. A tagged struct rather than a variant so consumers
/// can pattern-match with plain field access; only the fields implied by
/// `kind` are meaningful.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  long long integer = 0;
  bool integral = false;  ///< number was written without '.', 'e', fits i64
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// The member named `key`, or nullptr (objects only; first match wins).
  [[nodiscard]] const Value* find(const std::string& key) const noexcept;
};

/// Parses exactly one JSON document (trailing garbage is an error) into a
/// Value tree, for the formats that want one: scenarios, fault plans,
/// oracle repros, metrics snapshots. Hand-rolled on Lexer because the
/// container bakes no JSON dependency. Throws JsonError on malformed input.
[[nodiscard]] Value parse(const std::string& src);

/// Reports a malformed line of an NDJSON file by throwing: each file format
/// names itself and the line number in its own error type.
using LineFail = void (*)(int line, const std::string& what);

/// Reads an NDJSON file of objects (the scenario and fault-plan formats):
/// a trailing CR is dropped, so CRLF files read like LF ones; lines of only
/// spaces, tabs and CR and lines whose first other byte is '#' are skipped,
/// the lines oracle::read_corpus skips; every other line must parse as one
/// JSON object, handed to `on_object` with its 1-based line number. A line
/// that does not parse goes to `fail` with the parser's message, one that
/// holds some other value with "expected a JSON object".
void for_each_object_line(
    const std::string& text, LineFail fail,
    const std::function<void(const Value& obj, int line)>& on_object);

/// Fails the line through `fail` on the first member of `obj` whose key is
/// not in `known`, naming that key.
void reject_unknown_keys(const Value& obj, std::span<const char* const> known,
                         int line, LineFail fail);

}  // namespace reconf::svc::json
