#include "svc/json.hpp"

#include <cmath>
#include <sstream>

namespace reconf::svc::json {

// ---------------------------------------------------------------- Lexer ----

void Lexer::fail(std::string_view what) const {
  std::string msg = "json error at byte " + std::to_string(pos_) + ": ";
  msg += what;
  throw JsonError(msg);
}

void Lexer::skip_ws() noexcept {
  while (pos_ < src_.size() &&
         (src_[pos_] == ' ' || src_[pos_] == '\t' || src_[pos_] == '\n' ||
          src_[pos_] == '\r')) {
    ++pos_;
  }
}

char Lexer::peek() {
  skip_ws();
  if (pos_ >= src_.size()) fail("unexpected end of input");
  return src_[pos_];
}

void Lexer::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool Lexer::at_number() {
  switch (peek()) {
    case '{':
    case '[':
    case '"':
    case 't':
    case 'f':
    case 'n': return false;
    default: return true;
  }
}

bool Lexer::open(char open_char) {
  expect(open_char);
  if (++depth_ > kMaxDepth) fail("nesting too deep");
  if (peek() == (open_char == '{' ? '}' : ']')) {
    ++pos_;
    --depth_;
    return false;
  }
  return true;
}

bool Lexer::next(char close_char) {
  const char c = peek();
  ++pos_;
  if (c == close_char) {
    --depth_;
    return false;
  }
  if (c != ',') {
    fail(close_char == '}' ? "expected ',' or '}' in object"
                           : "expected ',' or ']' in array");
  }
  return true;
}

std::string_view Lexer::string(std::string& scratch) {
  if (peek() != '"') fail("expected string");
  const std::size_t start = ++pos_;
  // An escape-free string (every key of a request, most ids and names) is
  // a view of the source; the first backslash switches to decoding.
  while (pos_ < src_.size()) {
    const char c = src_[pos_++];
    if (c == '"') return src_.substr(start, pos_ - 1 - start);
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("raw control character in string");
    }
    if (c == '\\') {
      --pos_;
      break;
    }
  }
  scratch.assign(src_.data() + start, pos_ - start);
  while (pos_ < src_.size()) {
    const char c = src_[pos_++];
    if (c == '"') return scratch;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("raw control character in string");
    }
    if (c != '\\') {
      scratch.push_back(c);
      continue;
    }
    if (pos_ >= src_.size()) break;
    decode_escape(scratch);
  }
  fail("unterminated string");
}

void Lexer::decode_escape(std::string& out) {
  const char esc = src_[pos_++];
  switch (esc) {
    case '"': out.push_back('"'); return;
    case '\\': out.push_back('\\'); return;
    case '/': out.push_back('/'); return;
    case 'b': out.push_back('\b'); return;
    case 'f': out.push_back('\f'); return;
    case 'n': out.push_back('\n'); return;
    case 'r': out.push_back('\r'); return;
    case 't': out.push_back('\t'); return;
    case 'u': break;
    default: fail("invalid escape sequence");
  }
  if (pos_ + 4 > src_.size()) fail("truncated \\u escape");
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = src_[pos_++];
    code <<= 4;
    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
    else fail("invalid hex digit in \\u escape");
  }
  if (code >= 0xD800 && code <= 0xDFFF) {
    fail("surrogate \\u escapes are not supported");
  }
  // UTF-8 encode the BMP code point.
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

Number Lexer::number() {
  skip_ws();
  const std::size_t start = pos_;
  const bool negative = pos_ < src_.size() && src_[pos_] == '-';
  if (negative) ++pos_;
  bool real = false;
  bool plain = true;  ///< digits only after the optional '-'
  std::size_t digits = 0;
  unsigned long long magnitude = 0;  ///< wraps past 19 digits; unused then
  while (pos_ < src_.size()) {
    const char c = src_[pos_];
    if (c >= '0' && c <= '9') {
      magnitude = magnitude * 10 + static_cast<unsigned>(c - '0');
      ++digits;
      ++pos_;
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      plain = false;
      real = real || c == '.' || c == 'e' || c == 'E';
      ++pos_;
    } else {
      break;
    }
  }
  if (digits == 0) fail("invalid number");
  Number out;
  if (plain && digits <= 18) {
    // Exact in i64, and the int-to-double conversion rounds to nearest
    // just as strtod does: the same value and integer as the path below.
    const auto m = static_cast<long long>(magnitude);
    out.integer = negative ? -m : m;
    out.value = negative ? -static_cast<double>(m) : static_cast<double>(m);
    out.integral = true;
    return out;
  }
  const std::string token(src_.substr(start, pos_ - start));
  try {
    std::size_t used = 0;
    out.value = std::stod(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    fail("unparsable number '" + token + "'");
  }
  if (!std::isfinite(out.value)) fail("non-finite number '" + token + "'");
  if (!real) {
    try {
      std::size_t used = 0;
      out.integer = std::stoll(token, &used);
      out.integral = used == token.size();
    } catch (const std::exception&) {
      out.integral = false;  // integer-looking but overflows i64
    }
  }
  return out;
}

bool Lexer::boolean() {
  skip_ws();
  if (src_.substr(pos_, 4) == "true") {
    pos_ += 4;
    return true;
  }
  if (src_.substr(pos_, 5) == "false") {
    pos_ += 5;
    return false;
  }
  fail("invalid literal");
}

void Lexer::null_literal() {
  skip_ws();
  if (src_.substr(pos_, 4) != "null") fail("invalid literal");
  pos_ += 4;
}

void Lexer::skip_value() {
  switch (peek()) {
    case '{':
      if (open('{')) {
        std::string scratch;
        do {
          (void)string(scratch);
          expect(':');
          skip_value();
        } while (next('}'));
      }
      return;
    case '[':
      if (open('[')) {
        do {
          skip_value();
        } while (next(']'));
      }
      return;
    case '"': {
      std::string scratch;
      (void)string(scratch);
      return;
    }
    case 't':
    case 'f': (void)boolean(); return;
    case 'n': null_literal(); return;
    default: (void)number(); return;
  }
}

void Lexer::finish() {
  skip_ws();
  if (pos_ != src_.size()) fail("trailing characters after JSON value");
}

// ------------------------------------------------------------------ DOM ----

namespace {

Value read_value(Lexer& lex, std::string& scratch) {
  Value v;
  switch (lex.peek()) {
    case '{':
      v.kind = Value::Kind::kObject;
      if (lex.open('{')) {
        do {
          std::string key(lex.string(scratch));
          lex.expect(':');
          Value item = read_value(lex, scratch);
          v.members.emplace_back(std::move(key), std::move(item));
        } while (lex.next('}'));
      }
      return v;
    case '[':
      v.kind = Value::Kind::kArray;
      if (lex.open('[')) {
        do {
          v.items.push_back(read_value(lex, scratch));
        } while (lex.next(']'));
      }
      return v;
    case '"':
      v.kind = Value::Kind::kString;
      v.text = lex.string(scratch);
      return v;
    case 't':
    case 'f':
      v.kind = Value::Kind::kBool;
      v.boolean = lex.boolean();
      return v;
    case 'n':
      lex.null_literal();
      return v;
    default: {
      const Number n = lex.number();
      v.kind = Value::Kind::kNumber;
      v.number = n.value;
      v.integer = n.integer;
      v.integral = n.integral;
      return v;
    }
  }
}

}  // namespace

const Value* Value::find(const std::string& key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value parse(const std::string& src) {
  Lexer lex(src);
  std::string scratch;
  Value v = read_value(lex, scratch);
  lex.finish();
  return v;
}

void for_each_object_line(
    const std::string& text, LineFail fail,
    const std::function<void(const Value& obj, int line)>& on_object) {
  std::istringstream in(text);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();  // CRLF files
    const std::size_t start = raw.find_first_not_of(" \t\r");
    if (start == std::string::npos || raw[start] == '#') continue;
    Value obj;
    try {
      obj = parse(raw);
    } catch (const JsonError& e) {
      fail(line, e.what());
    }
    if (obj.kind != Value::Kind::kObject) fail(line, "expected a JSON object");
    on_object(obj, line);
  }
}

void reject_unknown_keys(const Value& obj, std::span<const char* const> known,
                         int line, LineFail fail) {
  for (const auto& [key, value] : obj.members) {
    (void)value;
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok) fail(line, "unknown key \"" + key + "\"");
  }
}

}  // namespace reconf::svc::json
