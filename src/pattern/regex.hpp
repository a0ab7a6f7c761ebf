// A small regular-expression engine.
//
// Transaction signatures extracted by the static analysis are regular
// expressions over URIs, header values and body fields (paper Fig. 5:
// ".*/api/get-feed", "cid: .*", "offset: (0|-1)"). Matching them is on the
// proxy's per-message fast path, so we implement the needed subset directly
// rather than going through std::regex:
//
//   literals, '.', character classes [a-z0-9_] (with ranges and '^'
//   negation), grouping (...), alternation '|', postfix '*', '+', '?',
//   and '\' escapes.
//
// Matches are whole-string (anchored at both ends), which is how the paper's
// signatures are written; use ".*" affixes for substring behaviour.
//
// Execution is two-tier:
//   1. a DFA built whole by the constructor (subset construction over byte
//      equivalence classes), so a match is one table lookup per input byte;
//   2. the Thompson NFA simulation, used when the DFA would exceed
//      kMaxDfaStates, and as the reference implementation for property
//      tests.
// Both tiers produce identical results by construction. A built Regex is
// immutable: matching writes only per-thread NFA scratch, so any number of
// threads may match against one Regex (or copies sharing its DFA) at once.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace appx::pattern {

class Regex {
 public:
  // Compiles the expression; throws appx::ParseError on invalid syntax.
  explicit Regex(std::string_view expression);


  // True if the entire input matches.
  bool full_match(std::string_view input) const;

  // Length of the longest prefix of `input` that the expression matches, or
  // -1 if no prefix (not even the empty one) matches. Used by template
  // extraction.
  std::ptrdiff_t longest_prefix_match(std::string_view input) const;

  // Reference Thompson-NFA simulation. Semantics are identical to
  // longest_prefix_match (which runs the DFA); exposed for property tests
  // and benchmarks of the pre-DFA path.
  std::ptrdiff_t longest_prefix_match_nfa(std::string_view input) const;

  // The longest literal string every match must start with (the run of
  // single-character states reachable without choice from the start). Feeds
  // the signature dispatch index's prefilter.
  std::string required_prefix() const;

  // Number of DFA states; 0 when the expression needs more than
  // kMaxDfaStates and matches on the NFA.
  std::size_t dfa_state_count() const;

  const std::string& source() const { return source_; }

  // Escapes all metacharacters so the result matches `literal` exactly.
  static std::string escape(std::string_view literal);

 private:
  struct State {
    // Transition kinds: epsilon edges in eps[], plus at most one consuming
    // edge described by (kind, lo/hi or class bitmap index).
    enum class Kind : std::uint8_t { kNone, kChar, kAny, kClass };
    Kind kind = Kind::kNone;
    char ch = 0;             // for kChar
    std::uint32_t cls = 0;   // index into class_sets_ for kClass
    std::int32_t next = -1;  // target of the consuming edge
    std::vector<std::int32_t> eps;
  };

  struct Fragment {
    std::int32_t start;
    std::vector<std::int32_t> dangling;  // states whose `next`/eps needs patching
  };

  // --- DFA -------------------------------------------------------------------
  // Transition values: >= 0 is a DFA state id; kTransDead means "no NFA
  // state survives this byte".
  static constexpr std::int32_t kTransDead = -1;
  // Cap on DFA states; an expression that needs more matches on the NFA.
  // Signature patterns compile to a handful of states; the cap only guards
  // pathological inputs.
  static constexpr std::size_t kMaxDfaStates = 512;

  struct DfaState {
    std::array<std::int32_t, 256> next{};
    bool accepting = false;
  };
  struct Dfa {
    std::vector<DfaState> states;  // state 0 is the start
  };

  // Subset construction of the whole DFA; null past kMaxDfaStates.
  std::unique_ptr<const Dfa> build_dfa() const;

  // --- compilation ---
  struct Parser;
  std::int32_t add_state(State s);
  void patch(const std::vector<std::int32_t>& dangling, std::int32_t target);

  // --- simulation ---
  void add_closure(std::int32_t s, std::vector<std::int32_t>& set,
                   std::vector<std::uint32_t>& stamp, std::uint32_t generation) const;
  bool step_nfa(const std::vector<std::int32_t>& current, unsigned char c,
                std::vector<std::int32_t>& next, std::vector<std::uint32_t>& stamp,
                std::uint32_t generation) const;

  std::string source_;
  std::vector<State> states_;
  std::vector<std::vector<std::uint8_t>> class_sets_;  // 256-bit bitmaps
  std::int32_t start_ = -1;
  std::int32_t accept_ = -1;
  // Immutable once built, so copies of the Regex share it.
  std::shared_ptr<const Dfa> dfa_;
};

}  // namespace appx::pattern
