#include "core/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace bsmp::core::json {

const Value& Value::operator[](std::string_view key) const {
  static const Value kNull;
  if (is_object() && obj_) {
    for (const auto& [k, v] : *obj_)
      if (k == key) return v;
  }
  return kNull;
}

bool Value::has(std::string_view key) const {
  if (!is_object() || !obj_) return false;
  for (const auto& [k, v] : *obj_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Parsed run() {
    Parsed out;
    Value v;
    if (!value(v)) {
      out.error = error_;
      return out;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing characters after the JSON document");
      out.error = error_;
      return out;
    }
    out.ok = true;
    out.value = std::move(v);
    return out;
  }

 private:
  bool fail(const std::string& what) {
    if (error_.empty()) {
      std::size_t line = 1, col = 1;
      for (std::size_t i = 0; i < pos_ && i < s_.size(); ++i) {
        if (s_[i] == '\n') {
          ++line;
          col = 1;
        } else {
          ++col;
        }
      }
      std::ostringstream os;
      os << what << " at " << line << ":" << col;
      error_ = os.str();
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return fail("invalid literal");
  }

  bool string_body(std::string& out) {
    // pos_ sits just past the opening quote.
    while (true) {
      if (pos_ >= s_.size()) return fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: expect \uDC00..\uDFFF next.
            if (pos_ + 1 < s_.size() && s_[pos_] == '\\' &&
                s_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              if (!hex4(lo)) return false;
              if (lo >= 0xDC00 && lo <= 0xDFFF)
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              else
                return fail("invalid low surrogate");
            } else {
              return fail("lone high surrogate");
            }
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("invalid escape");
      }
    }
  }

  bool hex4(unsigned& out) {
    if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = s_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else
        return fail("bad hex digit in \\u escape");
    }
    out = v;
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  /// — no leading '+', no leading zeros, no bare '.' on either side.
  bool number(Value& out) {
    const std::size_t start = pos_;
    auto digit = [this] {
      return pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]));
    };
    auto digits = [&] {
      if (!digit()) return false;
      while (digit()) ++pos_;
      return true;
    };
    auto invalid = [&] {
      pos_ = start;
      return fail("invalid number");
    };
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0')
      ++pos_;
    else if (!digits())
      return invalid();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) return invalid();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return invalid();
    }
    if (digit()) return invalid();  // a leading zero followed by digits
    std::string tok(s_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || errno == ERANGE) return invalid();
    out = Value(v);
    return true;
  }

  bool value(Value& out) {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end of document");
    const char c = s_[pos_];
    if (c != '{' && c != '[') return scalar(out);
    // Containers recurse; cap the depth so a hostile document fails
    // cleanly instead of overflowing the stack.
    if (depth_ == kMaxDepth) return fail("nesting too deep");
    ++depth_;
    const bool ok = c == '{' ? object(out) : array(out);
    --depth_;
    return ok;
  }

  bool object(Value& out) {
    ++pos_;  // past '{'
    Members m;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      out = Value(std::move(m));
      return true;
    }
    while (true) {
      if (!eat('"')) return false;
      std::string key;
      if (!string_body(key)) return false;
      if (!eat(':')) return false;
      Value v;
      if (!value(v)) return false;
      m.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!eat('}')) return false;
      out = Value(std::move(m));
      return true;
    }
  }

  bool array(Value& out) {
    ++pos_;  // past '['
    Array a;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      out = Value(std::move(a));
      return true;
    }
    while (true) {
      Value v;
      if (!value(v)) return false;
      a.push_back(std::move(v));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!eat(']')) return false;
      out = Value(std::move(a));
      return true;
    }
  }

  bool scalar(Value& out) {
    switch (s_[pos_]) {
      case '"': {
        ++pos_;
        std::string str;
        if (!string_body(str)) return false;
        out = Value(std::move(str));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out = Value(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = Value(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        out = Value();
        return true;
      default: return number(out);
    }
  }

  /// Deepest container nesting accepted; far beyond any artifact the
  /// repo writes, far below what the recursion's stack can take.
  static constexpr int kMaxDepth = 512;

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

Parsed parse(std::string_view text) { return Parser(text).run(); }

Parsed parse_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    Parsed out;
    out.error = "cannot open " + path;
    return out;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  Parsed out = parse(buf.str());
  if (!out.ok) out.error = path + ": " + out.error;
  return out;
}

}  // namespace bsmp::core::json
