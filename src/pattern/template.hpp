// Field templates: the core data type of signature fields.
//
// A signature field (URI, header value, query parameter, body field) is a
// mixed sequence of literal text and named *holes*. A hole is a value the
// static analysis could not resolve: either a run-time value (device id,
// host), or a value that flows in from another transaction's response (a
// dependency, e.g. the 'cid' of /product/get coming from the 'id' in the
// /api/get-feed response).
//
// The template supports the three operations dynamic learning needs:
//   - matches / extract : recognise an observed concrete value and recover
//     the hole bindings (learning from predecessors and successors),
//   - fill / bind       : substitute learned values to reconstruct the exact
//     prefetch request (paper R2),
//   - to_regex_string   : render the paper's display form where every hole
//     is its shape regex (".*" by default), used for signature matching.
//
// Hole shapes are compiled when the hole is appended (an invalid shape
// throws ParseError there), so a built template is immutable and any number
// of threads may match against it at once. The universal ".*" compiles to
// nothing; copies of a template share its compiled shapes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pattern/regex.hpp"
#include "util/byte_io.hpp"

namespace appx::pattern {

// Bindings map hole names to concrete learned values.
using Bindings = std::map<std::string, std::string>;

class FieldTemplate {
 public:
  struct Segment {
    bool is_hole = false;
    std::string text;   // literal text, or hole name
    std::string shape;  // hole shape regex source ("" for literals; ".*" default)
  };

  // Empty template; matches only the empty string.
  FieldTemplate() = default;

  // A template that is exactly `text`.
  static FieldTemplate literal(std::string_view text);
  // A template that is a single hole.
  static FieldTemplate hole(std::string name, std::string shape = ".*");
  // Parse "{name}" / "{name:regex}" spec syntax, e.g. "/image?cid={pred.id}".
  // "{{" and "}}" escape literal braces.
  static FieldTemplate parse(std::string_view spec);

  FieldTemplate& append_literal(std::string_view text);
  FieldTemplate& append_hole(std::string name, std::string shape = ".*");
  FieldTemplate& append(const FieldTemplate& other);

  bool is_concrete() const;
  std::size_t hole_count() const;
  std::vector<std::string> hole_names() const;
  bool has_hole(std::string_view name) const;
  const std::vector<Segment>& segments() const { return segments_; }

  // The compiled shape of segment `i`; null for literals and for ".*"
  // holes, which accept anything.
  const Regex* shape_regex(std::size_t i) const {
    return i < compiled_.size() ? compiled_[i].get() : nullptr;
  }

  // Whole-string match of a concrete value against the template.
  bool matches(std::string_view value) const;

  // Match and recover hole values. Returns nullopt when the value does not
  // fit. With adjacent holes the shortest-leftmost split is chosen.
  std::optional<Bindings> extract(std::string_view value) const;

  // Substitute every hole; nullopt if any hole is unbound.
  std::optional<std::string> fill(const Bindings& bindings) const;

  // Substitute the bound holes, keep the rest as holes. Adjacent literals
  // are merged. This is how a prefetch request instance "becomes more
  // specific with each step of learning" (paper §4.2).
  FieldTemplate partial_fill(const Bindings& bindings) const;

  // Concrete value if the template has no holes.
  std::optional<std::string> concrete_value() const;

  // Display forms.
  std::string to_regex_string() const;    // holes rendered as their shape
  std::string to_display_string() const;  // holes rendered as "{name}"
  void append_display_string(std::string& out) const;

  void serialize(ByteWriter& out) const;
  static FieldTemplate deserialize(ByteReader& in);

  bool operator==(const FieldTemplate& other) const;

 private:
  bool match_from(std::string_view value, std::size_t value_pos, std::size_t seg_index,
                  Bindings& bindings) const;
  void push_hole(std::string name, std::string shape, std::shared_ptr<const Regex> compiled);
  std::shared_ptr<const Regex> shape_regex_ptr(std::size_t i) const {
    return i < compiled_.size() ? compiled_[i] : nullptr;
  }

  std::vector<Segment> segments_;
  // Compiled shape regexes by segment index, null for literals and for the
  // universal ".*" shape which always matches. Holds no more entries than up
  // to the last compiled shape, so an all-".*" template allocates nothing.
  std::vector<std::shared_ptr<const Regex>> compiled_;
};

}  // namespace appx::pattern
