#include "json/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace appx::json {

Value::Type Value::type() const {
  return static_cast<Type>(data_.index());
}

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  throw InvalidStateError("json: not a bool");
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  throw InvalidStateError("json: not an int");
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return static_cast<double>(*i);
  throw InvalidStateError("json: not a number");
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  throw InvalidStateError("json: not a string");
}

const Array& Value::as_array() const {
  if (const auto* a = std::get_if<Array>(&data_)) return *a;
  throw InvalidStateError("json: not an array");
}

Array& Value::as_array() {
  if (auto* a = std::get_if<Array>(&data_)) return *a;
  throw InvalidStateError("json: not an array");
}

const Object& Value::as_object() const {
  if (const auto* o = std::get_if<Object>(&data_)) return *o;
  throw InvalidStateError("json: not an object");
}

Object& Value::as_object() {
  if (auto* o = std::get_if<Object>(&data_)) return *o;
  throw InvalidStateError("json: not an object");
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw NotFoundError("json: no member '" + key + "'");
  return it->second;
}

const Value* Value::find(const std::string& key) const {
  const auto* obj = std::get_if<Object>(&data_);
  if (obj == nullptr) return nullptr;
  const auto it = obj->find(key);
  return it == obj->end() ? nullptr : &it->second;
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = Object{};
  return as_object()[key];
}

const Value& Value::at(std::size_t index) const {
  const Array& arr = as_array();
  if (index >= arr.size()) throw NotFoundError("json: array index out of range");
  return arr[index];
}

std::size_t Value::size() const {
  if (const auto* a = std::get_if<Array>(&data_)) return a->size();
  if (const auto* o = std::get_if<Object>(&data_)) return o->size();
  return 0;
}

std::string Value::scalar_to_string() const {
  switch (type()) {
    case Type::kNull: return "null";
    case Type::kBool: return as_bool() ? "true" : "false";
    case Type::kInt: return std::to_string(as_int());
    case Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", as_double());
      return buf;
    }
    case Type::kString: return as_string();
    case Type::kArray:
    case Type::kObject:
      throw InvalidStateError("json: scalar_to_string on a container");
  }
  throw InvalidStateError("json: bad type");
}

// --- serialisation ----------------------------------------------------------

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void dump_value(const Value& v, int indent, int depth, std::string& out) {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case Value::Type::kNull: out += "null"; return;
    case Value::Type::kBool: out += v.as_bool() ? "true" : "false"; return;
    case Value::Type::kInt: out += std::to_string(v.as_int()); return;
    case Value::Type::kDouble: {
      const double d = v.as_double();
      if (std::isfinite(d)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        out += buf;
      } else {
        out += "null";  // JSON has no Inf/NaN
      }
      return;
    }
    case Value::Type::kString: dump_string(v.as_string(), out); return;
    case Value::Type::kArray: {
      const Array& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        dump_value(arr[i], indent, depth + 1, out);
      }
      newline(depth);
      out += ']';
      return;
    }
    case Value::Type::kObject: {
      const Object& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        dump_string(key, out);
        out += pretty ? ": " : ":";
        dump_value(value, indent, depth + 1, out);
      }
      newline(depth);
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(*this, indent, 0, out);
  return out;
}

// --- parsing ----------------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("json at offset " + std::to_string(pos_) + ": " + message);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) throw ParseError("json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_keyword(std::string_view kw) {
    if (text_.substr(pos_, kw.size()) != kw) return false;
    pos_ += kw.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_keyword("true")) return Value(true);
        fail("bad keyword");
      case 'f':
        if (consume_keyword("false")) return Value(false);
        fail("bad keyword");
      case 'n':
        if (consume_keyword("null")) return Value(nullptr);
        fail("bad keyword");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value(std::move(obj));
      }
      fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value(std::move(arr));
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode BMP code point as UTF-8 (surrogate pairs unsupported —
          // sufficient for the synthetic workloads).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // '-'/'+' only valid inside exponents, but from_chars re-validates.
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");
    if (!is_double) {
      std::int64_t value = 0;
      const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc{} && ptr == token.data() + token.size()) return Value(value);
    }
    double value = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size()) fail("bad number");
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return JsonParser(text).parse_document(); }

// --- paths ------------------------------------------------------------------

Path::Path(std::string_view text) : text_(text) { parse(text, &steps_); }

void Path::validate(std::string_view text) { parse(text, nullptr); }

void Path::parse(std::string_view text, std::vector<PathStep>* steps) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    PathStep step;
    // Member name up to '.', '[' or end.
    const std::size_t name_end = text.find_first_of(".[", pos);
    const std::string_view key = text.substr(pos, name_end - pos);
    pos = (name_end == std::string_view::npos) ? text.size() : name_end;
    if (pos < text.size() && text[pos] == '[') {
      const std::size_t close = text.find(']', pos);
      if (close == std::string_view::npos) throw ParseError("json path: missing ']'");
      const std::string_view inner = text.substr(pos + 1, close - pos - 1);
      step.indexed = true;
      if (inner == "*") {
        step.wildcard = true;
      } else {
        std::size_t idx = 0;
        for (char c : inner) {
          if (!std::isdigit(static_cast<unsigned char>(c))) {
            throw ParseError("json path: bad index '" + std::string(inner) + "'");
          }
          idx = idx * 10 + static_cast<std::size_t>(c - '0');
        }
        if (inner.empty()) throw ParseError("json path: empty index");
        step.index = idx;
      }
      pos = close + 1;
    }
    if (key.empty() && !step.indexed) {
      throw ParseError("json path '" + std::string(text) + "': empty step");
    }
    if (steps != nullptr) {
      step.key = std::string(key);
      steps->push_back(std::move(step));
    }
    if (pos < text.size()) {
      if (text[pos] != '.') throw ParseError("json path: expected '.'");
      ++pos;
      if (pos == text.size()) throw ParseError("json path: trailing '.'");
    }
  }
  if (text.empty()) throw ParseError("json path: empty path");
}

std::vector<const Value*> Path::resolve(const Value& root) const {
  std::vector<const Value*> frontier{&root};
  for (const PathStep& step : steps_) {
    std::vector<const Value*> next;
    for (const Value* v : frontier) {
      const Value* target = v;
      if (!step.key.empty()) {
        target = v->find(step.key);
        if (target == nullptr) continue;
      }
      if (!step.indexed) {
        next.push_back(target);
        continue;
      }
      if (!target->is_array()) continue;
      const Array& arr = target->as_array();
      if (step.wildcard) {
        for (const Value& elem : arr) next.push_back(&elem);
      } else if (step.index < arr.size()) {
        next.push_back(&arr[step.index]);
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

const Value* Path::resolve_first(const Value& root) const {
  const auto all = resolve(root);
  return all.empty() ? nullptr : all.front();
}

bool Path::is_multi() const {
  for (const PathStep& step : steps_) {
    if (step.wildcard) return true;
  }
  return false;
}

void set_at(Value& root, const Path& path, Value value) {
  Value* node = &root;
  const auto& steps = path.steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const PathStep& step = steps[i];
    if (step.wildcard) throw InvalidArgumentError("json set_at: wildcard not allowed");
    const bool last = (i + 1 == steps.size());
    if (!step.key.empty()) {
      if (node->is_null()) *node = Value(Object{});
      node = &(*node)[step.key];
    }
    if (step.indexed) {
      if (node->is_null()) *node = Value(Array{});
      Array& arr = node->as_array();
      if (arr.size() <= step.index) arr.resize(step.index + 1);
      node = &arr[step.index];
    }
    if (last) *node = std::move(value);
  }
}

}  // namespace appx::json
