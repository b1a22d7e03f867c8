#include "obs/json_check.hpp"

#include <cctype>
#include <cstdlib>

namespace ncc::obs {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

// The repo's traces, records and goldens nest fewer than 10 levels; the cap
// keeps a hostile input from exhausting the stack through parse_value's
// recursion (and JsonValue's recursive destructor).
constexpr int kMaxDepth = 256;

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const std::string& why) {
    if (error_) *error_ = why + " at byte " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (eat(c)) return true;
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth)
          return fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        ++depth_;
        bool ok = c == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out->kind = JsonValue::Kind::String;
        return parse_string(&out->string);
      case 't':
        return parse_literal("true", out, JsonValue::Kind::Bool, true);
      case 'f':
        return parse_literal("false", out, JsonValue::Kind::Bool, false);
      case 'n':
        return parse_literal("null", out, JsonValue::Kind::Null, false);
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(std::string_view word, JsonValue* out, JsonValue::Kind kind,
                     bool boolean) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("invalid literal");
    pos_ += word.size();
    out->kind = kind;
    out->boolean = boolean;
    return true;
  }

  bool parse_number(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("invalid value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      pos_ = start;
      return fail("invalid number");
    }
    out->kind = JsonValue::Kind::Number;
    out->number = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<uint32_t>(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // UTF-8 encode (surrogate pairs are not emitted by JsonWriter;
          // lone surrogates pass through as-is for checker purposes).
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_object(JsonValue* out) {
    if (!expect('{')) return false;
    out->kind = JsonValue::Kind::Object;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eat(',')) continue;
      return expect('}');
    }
  }

  bool parse_array(JsonValue* out) {
    if (!expect('[')) return false;
    out->kind = JsonValue::Kind::Array;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->array.push_back(std::move(value));
      skip_ws();
      if (eat(',')) continue;
      return expect(']');
    }
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  return Parser(text, error).parse(out);
}

}  // namespace ncc::obs
