#include "pattern/template.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace appx::pattern {

FieldTemplate FieldTemplate::literal(std::string_view text) {
  FieldTemplate t;
  t.append_literal(text);
  return t;
}

FieldTemplate FieldTemplate::hole(std::string name, std::string shape) {
  FieldTemplate t;
  t.append_hole(std::move(name), std::move(shape));
  return t;
}

FieldTemplate FieldTemplate::parse(std::string_view spec) {
  FieldTemplate t;
  std::string literal;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c == '{') {
      if (i + 1 < spec.size() && spec[i + 1] == '{') {
        literal += '{';
        ++i;
        continue;
      }
      const std::size_t close = spec.find('}', i);
      if (close == std::string_view::npos) {
        throw ParseError("FieldTemplate::parse: unterminated '{' in '" + std::string(spec) + "'");
      }
      if (!literal.empty()) {
        t.append_literal(literal);
        literal.clear();
      }
      std::string_view inner = spec.substr(i + 1, close - i - 1);
      const std::size_t colon = inner.find(':');
      if (colon == std::string_view::npos) {
        if (inner.empty()) throw ParseError("FieldTemplate::parse: empty hole name");
        t.append_hole(std::string(inner));
      } else {
        std::string_view name = inner.substr(0, colon);
        std::string_view shape = inner.substr(colon + 1);
        if (name.empty()) throw ParseError("FieldTemplate::parse: empty hole name");
        if (shape.empty()) throw ParseError("FieldTemplate::parse: empty hole shape");
        t.append_hole(std::string(name), std::string(shape));
      }
      i = close;
    } else if (c == '}') {
      if (i + 1 < spec.size() && spec[i + 1] == '}') {
        literal += '}';
        ++i;
        continue;
      }
      throw ParseError("FieldTemplate::parse: stray '}' in '" + std::string(spec) + "'");
    } else {
      literal += c;
    }
  }
  if (!literal.empty()) t.append_literal(literal);
  return t;
}

FieldTemplate& FieldTemplate::append_literal(std::string_view text) {
  if (text.empty()) return *this;
  if (!segments_.empty() && !segments_.back().is_hole) {
    segments_.back().text += text;
  } else {
    segments_.push_back(Segment{false, std::string(text), ""});
  }
  return *this;
}

FieldTemplate& FieldTemplate::append_hole(std::string name, std::string shape) {
  if (name.empty()) throw InvalidArgumentError("FieldTemplate: hole name must be non-empty");
  if (shape.empty()) throw InvalidArgumentError("FieldTemplate: hole shape must be non-empty");
  std::shared_ptr<const Regex> compiled;
  if (shape != ".*") compiled = std::make_shared<const Regex>(shape);
  push_hole(std::move(name), std::move(shape), std::move(compiled));
  return *this;
}

void FieldTemplate::push_hole(std::string name, std::string shape,
                              std::shared_ptr<const Regex> compiled) {
  segments_.push_back(Segment{true, std::move(name), std::move(shape)});
  if (compiled) {
    compiled_.resize(segments_.size());
    compiled_.back() = std::move(compiled);
  }
}

FieldTemplate& FieldTemplate::append(const FieldTemplate& other) {
  for (std::size_t i = 0; i < other.segments_.size(); ++i) {
    const Segment& seg = other.segments_[i];
    if (seg.is_hole) {
      push_hole(seg.text, seg.shape, other.shape_regex_ptr(i));
    } else {
      append_literal(seg.text);
    }
  }
  return *this;
}

bool FieldTemplate::is_concrete() const { return hole_count() == 0; }

std::size_t FieldTemplate::hole_count() const {
  return static_cast<std::size_t>(
      std::count_if(segments_.begin(), segments_.end(), [](const Segment& s) { return s.is_hole; }));
}

std::vector<std::string> FieldTemplate::hole_names() const {
  std::vector<std::string> names;
  for (const Segment& s : segments_) {
    if (s.is_hole) names.push_back(s.text);
  }
  return names;
}

bool FieldTemplate::has_hole(std::string_view name) const {
  return std::any_of(segments_.begin(), segments_.end(),
                     [&](const Segment& s) { return s.is_hole && s.text == name; });
}

bool FieldTemplate::matches(std::string_view value) const {
  Bindings scratch;
  return match_from(value, 0, 0, scratch);
}

std::optional<Bindings> FieldTemplate::extract(std::string_view value) const {
  Bindings bindings;
  if (!match_from(value, 0, 0, bindings)) return std::nullopt;
  return bindings;
}

bool FieldTemplate::match_from(std::string_view value, std::size_t value_pos,
                               std::size_t seg_index, Bindings& bindings) const {
  if (seg_index == segments_.size()) return value_pos == value.size();
  const Segment& seg = segments_[seg_index];
  if (!seg.is_hole) {
    if (value.compare(value_pos, seg.text.size(), seg.text) != 0) return false;
    return match_from(value, value_pos + seg.text.size(), seg_index + 1, bindings);
  }
  // Hole: try every candidate length (shortest first) and backtrack. If a
  // binding for this hole name already exists (repeated hole), it must agree.
  const Regex* shape = shape_regex(seg_index);
  const auto existing = bindings.find(seg.text);
  for (std::size_t len = 0; value_pos + len <= value.size(); ++len) {
    const std::string_view candidate = value.substr(value_pos, len);
    if (existing != bindings.end() && candidate != existing->second) continue;
    if (shape != nullptr && !shape->full_match(candidate)) continue;
    const bool fresh = (existing == bindings.end());
    if (fresh) bindings[seg.text] = std::string(candidate);
    if (match_from(value, value_pos + len, seg_index + 1, bindings)) return true;
    if (fresh) bindings.erase(seg.text);
  }
  return false;
}

std::optional<std::string> FieldTemplate::fill(const Bindings& bindings) const {
  std::string out;
  for (const Segment& seg : segments_) {
    if (!seg.is_hole) {
      out += seg.text;
      continue;
    }
    const auto it = bindings.find(seg.text);
    if (it == bindings.end()) return std::nullopt;
    out += it->second;
  }
  return out;
}

FieldTemplate FieldTemplate::partial_fill(const Bindings& bindings) const {
  FieldTemplate out;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    if (!seg.is_hole) {
      out.append_literal(seg.text);
      continue;
    }
    const auto it = bindings.find(seg.text);
    if (it == bindings.end()) {
      out.push_hole(seg.text, seg.shape, shape_regex_ptr(i));
    } else {
      out.append_literal(it->second);
    }
  }
  return out;
}

std::optional<std::string> FieldTemplate::concrete_value() const {
  return fill(Bindings{});
}

std::string FieldTemplate::to_regex_string() const {
  std::string out;
  for (const Segment& seg : segments_) {
    if (seg.is_hole) {
      out += seg.shape;
    } else {
      out += Regex::escape(seg.text);
    }
  }
  return out;
}

std::string FieldTemplate::to_display_string() const {
  std::string out;
  append_display_string(out);
  return out;
}

void FieldTemplate::append_display_string(std::string& out) const {
  for (const Segment& seg : segments_) {
    if (seg.is_hole) {
      out += '{';
      out += seg.text;
      if (seg.shape != ".*") {
        out += ':';
        out += seg.shape;
      }
      out += '}';
    } else {
      for (char c : seg.text) {
        if (c == '{' || c == '}') out += c;  // double for escaping
        out += c;
      }
    }
  }
}

void FieldTemplate::serialize(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(segments_.size()));
  for (const Segment& seg : segments_) {
    out.u8(seg.is_hole ? 1 : 0);
    out.str(seg.text);
    out.str(seg.shape);
  }
}

FieldTemplate FieldTemplate::deserialize(ByteReader& in) {
  FieldTemplate t;
  const std::uint32_t n = in.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const bool is_hole = in.u8() != 0;
    std::string text = in.str();
    std::string shape = in.str();
    if (is_hole) {
      t.append_hole(std::move(text), std::move(shape));
    } else {
      t.append_literal(text);
    }
  }
  return t;
}

bool FieldTemplate::operator==(const FieldTemplate& other) const {
  if (segments_.size() != other.segments_.size()) return false;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& a = segments_[i];
    const Segment& b = other.segments_[i];
    if (a.is_hole != b.is_hole || a.text != b.text || a.shape != b.shape) return false;
  }
  return true;
}

}  // namespace appx::pattern
