#include "pattern/regex.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"

namespace appx::pattern {

namespace {
constexpr std::string_view kMetaChars = ".*+?()[]|\\^$";
}

// ---------------------------------------------------------------------------
// Parsing: recursive descent over
//   alt    := concat ('|' concat)*
//   concat := repeat*
//   repeat := atom ('*' | '+' | '?')*
//   atom   := char | '.' | class | '(' alt ')'
// Each production returns an NFA fragment (start state + dangling exits).
// ---------------------------------------------------------------------------

struct Regex::Parser {
  Regex& re;
  std::string_view src;
  std::size_t pos = 0;

  bool at_end() const { return pos >= src.size(); }
  char peek() const { return src[pos]; }
  char take() { return src[pos++]; }

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("regex '" + std::string(src) + "': " + message);
  }

  Fragment parse_alt() {
    Fragment left = parse_concat();
    while (!at_end() && peek() == '|') {
      take();
      Fragment right = parse_concat();
      // New split state with epsilon edges to both branches.
      State split;
      const std::int32_t s = re.add_state(split);
      re.states_[static_cast<std::size_t>(s)].eps.push_back(left.start);
      re.states_[static_cast<std::size_t>(s)].eps.push_back(right.start);
      Fragment merged;
      merged.start = s;
      merged.dangling = left.dangling;
      merged.dangling.insert(merged.dangling.end(), right.dangling.begin(),
                             right.dangling.end());
      left = std::move(merged);
    }
    return left;
  }

  Fragment parse_concat() {
    // An empty concat (e.g. "(|a)" branch or whole-empty regex) is a single
    // epsilon state.
    if (at_end() || peek() == '|' || peek() == ')') {
      State s;
      const std::int32_t id = re.add_state(s);
      return Fragment{id, {id}};
    }
    Fragment frag = parse_repeat();
    while (!at_end() && peek() != '|' && peek() != ')') {
      Fragment next = parse_repeat();
      re.patch(frag.dangling, next.start);
      frag.dangling = std::move(next.dangling);
    }
    return frag;
  }

  Fragment parse_repeat() {
    Fragment frag = parse_atom();
    while (!at_end() && (peek() == '*' || peek() == '+' || peek() == '?')) {
      const char op = take();
      State split;
      const std::int32_t s = re.add_state(split);
      if (op == '*') {
        re.states_[static_cast<std::size_t>(s)].eps.push_back(frag.start);
        re.patch(frag.dangling, s);
        frag = Fragment{s, {s}};
      } else if (op == '+') {
        re.states_[static_cast<std::size_t>(s)].eps.push_back(frag.start);
        re.patch(frag.dangling, s);
        frag = Fragment{frag.start, {s}};
      } else {  // '?'
        re.states_[static_cast<std::size_t>(s)].eps.push_back(frag.start);
        Fragment out{s, {s}};
        out.dangling.insert(out.dangling.end(), frag.dangling.begin(), frag.dangling.end());
        frag = std::move(out);
      }
    }
    return frag;
  }

  Fragment parse_atom() {
    if (at_end()) fail("unexpected end of expression");
    const char c = take();
    switch (c) {
      case '(': {
        Fragment inner = parse_alt();
        if (at_end() || take() != ')') fail("missing ')'");
        return inner;
      }
      case '[':
        return parse_class();
      case '.': {
        State s;
        s.kind = State::Kind::kAny;
        const std::int32_t id = re.add_state(s);
        return Fragment{id, {id}};
      }
      case '\\': {
        if (at_end()) fail("dangling escape");
        return literal_atom(unescape(take()));
      }
      case '*':
      case '+':
      case '?':
        fail("quantifier with nothing to repeat");
      case ')':
        fail("unbalanced ')'");
      case '|':
        fail("internal: '|' reached parse_atom");
      default:
        return literal_atom(c);
    }
  }

  static char unescape(char c) {
    switch (c) {
      case 'n': return '\n';
      case 'r': return '\r';
      case 't': return '\t';
      default: return c;  // escaped metachar or literal
    }
  }

  Fragment literal_atom(char c) {
    State s;
    s.kind = State::Kind::kChar;
    s.ch = c;
    const std::int32_t id = re.add_state(s);
    return Fragment{id, {id}};
  }

  Fragment parse_class() {
    std::vector<std::uint8_t> bitmap(256, 0);
    bool negate = false;
    if (!at_end() && peek() == '^') {
      negate = true;
      take();
    }
    bool first = true;
    while (true) {
      if (at_end()) fail("unterminated character class");
      char c = take();
      if (c == ']' && !first) break;
      first = false;
      if (c == '\\') {
        if (at_end()) fail("dangling escape in class");
        c = unescape(take());
      }
      if (!at_end() && peek() == '-' && pos + 1 < src.size() && src[pos + 1] != ']') {
        take();  // '-'
        char hi = take();
        if (hi == '\\') {
          if (at_end()) fail("dangling escape in class");
          hi = unescape(take());
        }
        if (static_cast<unsigned char>(hi) < static_cast<unsigned char>(c)) {
          fail("inverted range in character class");
        }
        for (int b = static_cast<unsigned char>(c); b <= static_cast<unsigned char>(hi); ++b) {
          bitmap[static_cast<std::size_t>(b)] = 1;
        }
      } else {
        bitmap[static_cast<unsigned char>(c)] = 1;
      }
    }
    if (negate) {
      for (auto& bit : bitmap) bit = !bit;
    }
    State s;
    s.kind = State::Kind::kClass;
    s.cls = static_cast<std::uint32_t>(re.class_sets_.size());
    re.class_sets_.push_back(std::move(bitmap));
    const std::int32_t id = re.add_state(s);
    return Fragment{id, {id}};
  }
};

Regex::Regex(std::string_view expression) : source_(expression) {
  Parser parser{*this, expression};
  Fragment frag = parser.parse_alt();
  if (!parser.at_end()) parser.fail("unbalanced ')'");
  State accept;
  accept_ = add_state(accept);
  patch(frag.dangling, accept_);
  start_ = frag.start;
  dfa_ = build_dfa();
}

std::int32_t Regex::add_state(State s) {
  states_.push_back(std::move(s));
  return static_cast<std::int32_t>(states_.size() - 1);
}

void Regex::patch(const std::vector<std::int32_t>& dangling, std::int32_t target) {
  for (std::int32_t id : dangling) {
    State& s = states_[static_cast<std::size_t>(id)];
    if (s.kind == State::Kind::kNone) {
      s.eps.push_back(target);
    } else {
      s.next = target;
    }
  }
}

// ---------------------------------------------------------------------------
// NFA simulation.
//
// Frontier sets and visited marks live in a thread-local scratch arena so the
// per-message fast path allocates nothing in steady state. Marks are
// generation-stamped: bumping the generation invalidates every mark in O(1)
// instead of refilling the vector.
// ---------------------------------------------------------------------------

namespace {

struct NfaScratch {
  std::vector<std::int32_t> current;
  std::vector<std::int32_t> next;
  std::vector<std::uint32_t> stamp;  // stamp[s] == generation  <=>  s marked
  std::uint32_t generation = 0;

  // Prepares the arena for a regex with `nstates` NFA states and returns a
  // fresh generation.
  std::uint32_t begin(std::size_t nstates) {
    if (stamp.size() < nstates) stamp.resize(nstates, 0);
    return bump();
  }
  std::uint32_t bump() {
    if (++generation == 0) {  // wrapped: stamps from older eras may collide
      std::fill(stamp.begin(), stamp.end(), 0);
      generation = 1;
    }
    return generation;
  }
};

NfaScratch& scratch_arena() {
  // One arena per thread, so threads match against a shared Regex without
  // synchronisation. Reclaimed at thread exit: threads that match and exit
  // (tests, tools) would otherwise leak one arena each, which trips
  // LeakSanitizer. Matching from a destructor that outlives this
  // thread_local is not a pattern this codebase has.
  thread_local NfaScratch arena;
  return arena;
}

}  // namespace

void Regex::add_closure(std::int32_t id, std::vector<std::int32_t>& set,
                        std::vector<std::uint32_t>& stamp, std::uint32_t generation) const {
  if (stamp[static_cast<std::size_t>(id)] == generation) return;
  stamp[static_cast<std::size_t>(id)] = generation;
  set.push_back(id);
  for (std::int32_t e : states_[static_cast<std::size_t>(id)].eps) {
    add_closure(e, set, stamp, generation);
  }
}

bool Regex::step_nfa(const std::vector<std::int32_t>& current, unsigned char c,
                     std::vector<std::int32_t>& next, std::vector<std::uint32_t>& stamp,
                     std::uint32_t generation) const {
  next.clear();
  for (std::int32_t id : current) {
    const State& s = states_[static_cast<std::size_t>(id)];
    bool consume = false;
    switch (s.kind) {
      case State::Kind::kChar: consume = (static_cast<unsigned char>(s.ch) == c); break;
      case State::Kind::kAny: consume = true; break;
      case State::Kind::kClass: consume = class_sets_[s.cls][c] != 0; break;
      case State::Kind::kNone: break;
    }
    if (consume && s.next >= 0) add_closure(s.next, next, stamp, generation);
  }
  return !next.empty();
}

std::ptrdiff_t Regex::longest_prefix_match_nfa(std::string_view input) const {
  NfaScratch& arena = scratch_arena();
  std::uint32_t generation = arena.begin(states_.size());
  // The frontier vectors are swapped locally but owned by the arena, so their
  // capacity survives across matches.
  std::vector<std::int32_t>& current = arena.current;
  std::vector<std::int32_t>& next = arena.next;
  current.clear();
  add_closure(start_, current, arena.stamp, generation);

  const auto accepting = [&](std::uint32_t gen) {
    return arena.stamp[static_cast<std::size_t>(accept_)] == gen;
  };
  std::ptrdiff_t best = accepting(generation) ? 0 : -1;

  for (std::size_t i = 0; i < input.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(input[i]);
    const std::uint32_t gen = arena.bump();
    if (!step_nfa(current, c, next, arena.stamp, gen)) return best;
    current.swap(next);
    if (accepting(gen)) best = static_cast<std::ptrdiff_t>(i + 1);
  }
  return best;
}

// ---------------------------------------------------------------------------
// DFA: subset construction, run once by the constructor. Each DFA state
// stands for a sorted NFA state set; its successors are one NFA step per byte
// class. A match is then one array lookup per input byte.
// ---------------------------------------------------------------------------

std::unique_ptr<const Regex::Dfa> Regex::build_dfa() const {
  // Byte equivalence classes: bytes that no consuming NFA state tells apart
  // lead every state set to the same successor, so the construction steps
  // once per class instead of once per byte.
  std::array<std::uint8_t, 256> byte_class{};
  std::size_t class_count = 1;
  for (const State& s : states_) {
    if (s.kind != State::Kind::kChar && s.kind != State::Kind::kClass) continue;
    std::array<std::int16_t, 512> renumber;  // (old class, in s) -> new class
    renumber.fill(-1);
    std::int16_t next_class = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      const bool in = s.kind == State::Kind::kChar ? static_cast<unsigned char>(s.ch) == b
                                                   : class_sets_[s.cls][b] != 0;
      std::int16_t& id = renumber[byte_class[b] * 2u + (in ? 1u : 0u)];
      if (id < 0) id = next_class++;
      byte_class[b] = static_cast<std::uint8_t>(id);
    }
    class_count = static_cast<std::size_t>(next_class);
  }
  std::array<unsigned char, 256> representative{};
  for (std::size_t b = 256; b-- > 0;) representative[byte_class[b]] = static_cast<unsigned char>(b);

  auto dfa = std::make_unique<Dfa>();
  std::vector<std::vector<std::int32_t>> sets;  // NFA state set per DFA state
  std::map<std::vector<std::int32_t>, std::int32_t> interned;
  const auto intern = [&](std::vector<std::int32_t> set) -> std::int32_t {
    if (set.empty()) return kTransDead;
    std::sort(set.begin(), set.end());
    const auto it = interned.find(set);
    if (it != interned.end()) return it->second;
    const auto id = static_cast<std::int32_t>(sets.size());
    DfaState state;
    state.accepting = std::binary_search(set.begin(), set.end(), accept_);
    dfa->states.push_back(state);
    interned.emplace(set, id);
    sets.push_back(std::move(set));
    return id;
  };

  NfaScratch& arena = scratch_arena();
  std::vector<std::int32_t> frontier;
  std::uint32_t generation = arena.begin(states_.size());
  add_closure(start_, frontier, arena.stamp, generation);
  intern(frontier);  // state 0; never empty (start exists)
  std::array<std::int32_t, 256> by_class{};
  for (std::size_t id = 0; id < sets.size(); ++id) {
    for (std::size_t c = 0; c < class_count; ++c) {
      generation = arena.bump();
      step_nfa(sets[id], representative[c], frontier, arena.stamp, generation);
      by_class[c] = intern(frontier);
      if (sets.size() > kMaxDfaStates) return nullptr;
    }
    for (std::size_t b = 0; b < 256; ++b) dfa->states[id].next[b] = by_class[byte_class[b]];
  }
  return dfa;
}

std::ptrdiff_t Regex::longest_prefix_match(std::string_view input) const {
  if (!dfa_) return longest_prefix_match_nfa(input);
  const DfaState* states = dfa_->states.data();
  std::int32_t current = 0;
  std::ptrdiff_t best = states[0].accepting ? 0 : -1;
  for (std::size_t i = 0; i < input.size(); ++i) {
    current = states[current].next[static_cast<unsigned char>(input[i])];
    if (current == kTransDead) return best;
    if (states[current].accepting) best = static_cast<std::ptrdiff_t>(i + 1);
  }
  return best;
}

bool Regex::full_match(std::string_view input) const {
  return longest_prefix_match(input) == static_cast<std::ptrdiff_t>(input.size());
}

std::size_t Regex::dfa_state_count() const { return dfa_ ? dfa_->states.size() : 0; }

std::string Regex::required_prefix() const {
  // Walk forward while every surviving NFA thread agrees on the next literal
  // byte: the closure must not accept yet, and its consuming states must all
  // be the same single character.
  NfaScratch& arena = scratch_arena();
  std::string prefix;
  std::vector<std::int32_t> closure;
  std::uint32_t generation = arena.begin(states_.size());
  add_closure(start_, closure, arena.stamp, generation);

  std::vector<std::int32_t> next;
  while (true) {
    if (arena.stamp[static_cast<std::size_t>(accept_)] == generation) return prefix;
    char required = 0;
    bool have_required = false;
    for (std::int32_t id : closure) {
      const State& s = states_[static_cast<std::size_t>(id)];
      if (s.kind == State::Kind::kNone) continue;
      if (s.kind != State::Kind::kChar) return prefix;  // '.'/class: not literal
      if (have_required && s.ch != required) return prefix;
      required = s.ch;
      have_required = true;
    }
    if (!have_required) return prefix;  // dead end (matches nothing further)
    generation = arena.bump();
    if (!step_nfa(closure, static_cast<unsigned char>(required), next, arena.stamp, generation)) {
      return prefix;
    }
    prefix += required;
    closure.swap(next);
  }
}

std::string Regex::escape(std::string_view literal) {
  std::string out;
  out.reserve(literal.size());
  for (char c : literal) {
    if (kMetaChars.find(c) != std::string_view::npos) out += '\\';
    out += c;
  }
  return out;
}

}  // namespace appx::pattern
