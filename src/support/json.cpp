#include "support/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace concert {
namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* err) : s_(text), err_(err) {}

  bool run(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters after value");
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    if (err_ != nullptr) {
      std::ostringstream os;
      os << "json: " << msg << " at offset " << pos_;
      *err_ = os.str();
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (s_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  bool value(JsonValue& out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{':
      case '[': {
        // Containers recurse; the cap keeps hostile nesting off the stack.
        if (depth_ == kJsonMaxDepth) {
          return fail(std::string("nesting deeper than ")
                          .append(std::to_string(kJsonMaxDepth))
                          .append(" levels"));
        }
        ++depth_;
        const bool ok = s_[pos_] == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.type = JsonValue::Type::String;
        return string(out.str);
      case 't':
        out.type = JsonValue::Type::Bool;
        out.boolean = true;
        return literal("true", 4);
      case 'f':
        out.type = JsonValue::Type::Bool;
        out.boolean = false;
        return literal("false", 5);
      case 'n':
        out.type = JsonValue::Type::Null;
        return literal("null", 4);
      default: return number(out);
    }
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0)) ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0)) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0)) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) return fail("bad number");
    out.type = JsonValue::Type::Number;
    out.number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
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
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // BMP-only UTF-8 encode; surrogate pairs are not produced by any
          // in-tree writer and decode as two replacement-ish code points.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default: return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool array(JsonValue& out) {
    ++pos_;  // '['
    out.type = JsonValue::Type::Array;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out.arr.emplace_back();
      skip_ws();
      if (!value(out.arr.back())) return false;
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(JsonValue& out) {
    ++pos_;  // '{'
    out.type = JsonValue::Type::Object;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected member name");
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      out.obj.emplace_back(std::move(key), JsonValue{});
      if (!value(out.obj.back().second)) return false;
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string& s_;
  std::string* err_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< Containers open around pos_.
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

bool json_parse(const std::string& text, JsonValue& out, std::string* err) {
  out = JsonValue{};
  return Parser(text, err).run(out);
}

}  // namespace concert
