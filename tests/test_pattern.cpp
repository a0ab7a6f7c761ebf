// Unit and property tests for the regex engine and field templates.
#include <gtest/gtest.h>

#include <ostream>

#include "pattern/regex.hpp"
#include "pattern/template.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appx::pattern {
namespace {

// --- Regex ---------------------------------------------------------------------

TEST(Regex, LiteralMatch) {
  const Regex re("abc");
  EXPECT_TRUE(re.full_match("abc"));
  EXPECT_FALSE(re.full_match("ab"));
  EXPECT_FALSE(re.full_match("abcd"));
  EXPECT_FALSE(re.full_match(""));
}

TEST(Regex, EmptyPatternMatchesEmpty) {
  const Regex re("");
  EXPECT_TRUE(re.full_match(""));
  EXPECT_FALSE(re.full_match("a"));
}

TEST(Regex, DotMatchesAnySingleChar) {
  const Regex re("a.c");
  EXPECT_TRUE(re.full_match("abc"));
  EXPECT_TRUE(re.full_match("a/c"));
  EXPECT_FALSE(re.full_match("ac"));
  EXPECT_FALSE(re.full_match("abbc"));
}

TEST(Regex, StarQuantifier) {
  const Regex re("ab*c");
  EXPECT_TRUE(re.full_match("ac"));
  EXPECT_TRUE(re.full_match("abc"));
  EXPECT_TRUE(re.full_match("abbbbc"));
  EXPECT_FALSE(re.full_match("adc"));
}

TEST(Regex, PlusQuantifier) {
  const Regex re("ab+c");
  EXPECT_FALSE(re.full_match("ac"));
  EXPECT_TRUE(re.full_match("abc"));
  EXPECT_TRUE(re.full_match("abbc"));
}

TEST(Regex, OptionalQuantifier) {
  const Regex re("colou?r");
  EXPECT_TRUE(re.full_match("color"));
  EXPECT_TRUE(re.full_match("colour"));
  EXPECT_FALSE(re.full_match("colouur"));
}

TEST(Regex, DotStar) {
  const Regex re(".*");
  EXPECT_TRUE(re.full_match(""));
  EXPECT_TRUE(re.full_match("anything at all !@#"));
}

TEST(Regex, PaperStyleUriPattern) {
  // The paper's signatures: ".*/api/get-feed"
  const Regex re(".*/api/get-feed");
  EXPECT_TRUE(re.full_match("https://wish.com/api/get-feed"));
  EXPECT_TRUE(re.full_match("/api/get-feed"));
  EXPECT_FALSE(re.full_match("https://wish.com/api/get-feed2"));
}

TEST(Regex, Alternation) {
  const Regex re("(0|-1)");
  EXPECT_TRUE(re.full_match("0"));
  EXPECT_TRUE(re.full_match("-1"));
  EXPECT_FALSE(re.full_match("1"));
  EXPECT_FALSE(re.full_match("-0"));
}

TEST(Regex, AlternationTopLevel) {
  const Regex re("cat|dog|bird");
  EXPECT_TRUE(re.full_match("cat"));
  EXPECT_TRUE(re.full_match("dog"));
  EXPECT_TRUE(re.full_match("bird"));
  EXPECT_FALSE(re.full_match("catdog"));
}

TEST(Regex, EmptyAlternationBranch) {
  const Regex re("a(|b)c");
  EXPECT_TRUE(re.full_match("ac"));
  EXPECT_TRUE(re.full_match("abc"));
}

TEST(Regex, GroupedQuantifier) {
  const Regex re("(ab)+");
  EXPECT_TRUE(re.full_match("ab"));
  EXPECT_TRUE(re.full_match("ababab"));
  EXPECT_FALSE(re.full_match("aba"));
  EXPECT_FALSE(re.full_match(""));
}

TEST(Regex, CharacterClass) {
  const Regex re("[a-f0-9]+");
  EXPECT_TRUE(re.full_match("09cf"));
  EXPECT_TRUE(re.full_match("deadbeef"));
  EXPECT_FALSE(re.full_match("xyz"));
  EXPECT_FALSE(re.full_match(""));
}

TEST(Regex, NegatedClass) {
  const Regex re("[^/]+");
  EXPECT_TRUE(re.full_match("segment"));
  EXPECT_FALSE(re.full_match("a/b"));
}

TEST(Regex, ClassWithLiteralDashAndBracket) {
  const Regex re("[a\\-b]+");
  EXPECT_TRUE(re.full_match("a-b"));
  const Regex re2("[]a]+");  // ']' first means literal ']'
  EXPECT_TRUE(re2.full_match("]a"));
}

TEST(Regex, EscapedMetacharacters) {
  const Regex re("a\\.b\\*c");
  EXPECT_TRUE(re.full_match("a.b*c"));
  EXPECT_FALSE(re.full_match("axb*c"));
}

TEST(Regex, EscapeHelperProducesExactMatcher) {
  const std::string nasty = "/product/get?a=(1+2)*[3].|x";
  const Regex re(Regex::escape(nasty));
  EXPECT_TRUE(re.full_match(nasty));
  EXPECT_FALSE(re.full_match(nasty + "x"));
}

TEST(Regex, LongestPrefixMatch) {
  const Regex re("ab*");
  EXPECT_EQ(re.longest_prefix_match("abbbc"), 4);
  EXPECT_EQ(re.longest_prefix_match("x"), -1);
  EXPECT_EQ(re.longest_prefix_match("a"), 1);
  const Regex any(".*");
  EXPECT_EQ(any.longest_prefix_match("xyz"), 3);
}

TEST(Regex, ParseErrors) {
  EXPECT_THROW(Regex("("), ParseError);
  EXPECT_THROW(Regex(")"), ParseError);
  EXPECT_THROW(Regex("*a"), ParseError);
  EXPECT_THROW(Regex("[abc"), ParseError);
  EXPECT_THROW(Regex("a\\"), ParseError);
  EXPECT_THROW(Regex("[z-a]"), ParseError);
}

TEST(Regex, NestedGroups) {
  const Regex re("((a|b)c)*d");
  EXPECT_TRUE(re.full_match("d"));
  EXPECT_TRUE(re.full_match("acd"));
  EXPECT_TRUE(re.full_match("acbcd"));
  EXPECT_FALSE(re.full_match("abd"));
}

// Pathological backtracking case: NFA simulation must stay linear.
TEST(Regex, NoCatastrophicBacktracking) {
  const Regex re("(a*)*b");
  std::string input(2000, 'a');
  EXPECT_FALSE(re.full_match(input));  // returns quickly
  input += 'b';
  EXPECT_TRUE(re.full_match(input));
}

// --- DFA -------------------------------------------------------------------------

// Edge cases that historically diverge between DFAs and NFA references.

TEST(Regex, DfaEmptyAlternationBranches) {
  for (const char* pattern : {"(|a)b", "a(b|)", "(|)", "(a||b)c"}) {
    const Regex re(pattern);
    for (const char* input : {"", "a", "b", "ab", "ac", "bc", "c", "abc"}) {
      EXPECT_EQ(re.longest_prefix_match(input), re.longest_prefix_match_nfa(input))
          << "pattern '" << pattern << "' input '" << input << "'";
    }
  }
}

TEST(Regex, DfaNegatedClasses) {
  const Regex re("[^/?]+");
  EXPECT_TRUE(re.full_match("segment"));
  EXPECT_FALSE(re.full_match("seg/ment"));
  EXPECT_FALSE(re.full_match(""));
  EXPECT_EQ(re.longest_prefix_match("abc/def"), 3);
  EXPECT_EQ(re.longest_prefix_match_nfa("abc/def"), 3);
  // Negation covers the full byte range, including high bytes.
  EXPECT_TRUE(re.full_match("\xc3\xa9"));
}

TEST(Regex, DfaDotStarAffixes) {
  const Regex re(".*/api/get-feed");
  EXPECT_TRUE(re.full_match("https://api.wish.example/api/get-feed"));
  EXPECT_TRUE(re.full_match("/api/get-feed"));
  EXPECT_FALSE(re.full_match("/api/get-feed/extra"));
  const Regex suffix("cid=.*");
  EXPECT_EQ(suffix.longest_prefix_match("cid=0c99f"), 9);
  EXPECT_EQ(suffix.longest_prefix_match("cid"), -1);
  // ".*" both sides: any containing string matches whole.
  const Regex both(".*feed.*");
  EXPECT_TRUE(both.full_match("xxfeedyy"));
  EXPECT_FALSE(both.full_match("xxfeexy"));
}

TEST(Regex, DfaStatesAreCachedAcrossMatches) {
  const Regex re(".*/api/tab/[0-9]+/content");
  const std::size_t built = re.dfa_state_count();
  EXPECT_GT(built, 0u);  // complete before the first match
  // Matching adds nothing: a built Regex is immutable.
  EXPECT_TRUE(re.full_match("https://x/api/tab/7/content"));
  EXPECT_FALSE(re.full_match("https://x/api/tab/x/content"));
  EXPECT_EQ(re.longest_prefix_match("/api/tab/12/contentzz"), 19);
  EXPECT_EQ(re.dfa_state_count(), built);
  // Copies share the built DFA.
  const Regex copy = re;
  EXPECT_EQ(copy.dfa_state_count(), built);
  EXPECT_TRUE(copy.full_match("/api/tab/7/content"));
}

TEST(Regex, DfaCacheBlowupFallsBackToNfa) {
  // (a|b)*a(a|b)^13 needs 2^14 DFA states — far past the cap, so the
  // constructor builds no DFA. Results must still be exact via the NFA.
  std::string pattern = "(a|b)*a";
  for (int i = 0; i < 13; ++i) pattern += "(a|b)";
  const Regex re(pattern);
  Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    std::string input;
    const std::size_t n = 10 + rng.index(10);
    for (std::size_t i = 0; i < n; ++i) input += (rng.chance(0.5) ? 'a' : 'b');
    ASSERT_EQ(re.longest_prefix_match(input), re.longest_prefix_match_nfa(input)) << input;
  }
  EXPECT_EQ(re.dfa_state_count(), 0u);  // past the cap: NFA only
}

TEST(Regex, RequiredPrefix) {
  EXPECT_EQ(Regex("/product/get").required_prefix(), "/product/get");
  EXPECT_EQ(Regex("/api/v[0-9]+").required_prefix(), "/api/v");
  EXPECT_EQ(Regex("/img(/small)?").required_prefix(), "/img");
  EXPECT_EQ(Regex("(0|-1)").required_prefix(), "");
  EXPECT_EQ(Regex(".*").required_prefix(), "");
  EXPECT_EQ(Regex("").required_prefix(), "");
  EXPECT_EQ(Regex("a+b").required_prefix(), "a");  // 'a' required, count open
  EXPECT_EQ(Regex("\\.well-known").required_prefix(), ".well-known");
}

// --- FieldTemplate ---------------------------------------------------------------

TEST(FieldTemplate, LiteralOnly) {
  const auto t = FieldTemplate::literal("/product/get");
  EXPECT_TRUE(t.is_concrete());
  EXPECT_TRUE(t.matches("/product/get"));
  EXPECT_FALSE(t.matches("/product/get2"));
  EXPECT_EQ(t.concrete_value().value(), "/product/get");
}

TEST(FieldTemplate, EmptyTemplateMatchesEmptyOnly) {
  const FieldTemplate t;
  EXPECT_TRUE(t.matches(""));
  EXPECT_FALSE(t.matches("x"));
}

TEST(FieldTemplate, SingleHoleExtraction) {
  const auto t = FieldTemplate::parse("/image?cid={id}");
  EXPECT_FALSE(t.is_concrete());
  EXPECT_EQ(t.hole_count(), 1u);
  const auto b = t.extract("/image?cid=09cf");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->at("id"), "09cf");
}

TEST(FieldTemplate, FillReconstructsExactValue) {
  const auto t = FieldTemplate::parse("/image?cid={id}");
  Bindings b{{"id", "09cf"}};
  EXPECT_EQ(t.fill(b).value(), "/image?cid=09cf");
}

TEST(FieldTemplate, FillFailsOnMissingBinding) {
  const auto t = FieldTemplate::parse("{a}/{b}");
  EXPECT_FALSE(t.fill({{"a", "x"}}).has_value());
}

TEST(FieldTemplate, PartialFillKeepsUnboundHoles) {
  const auto t = FieldTemplate::parse("{scheme}://{host}/api");
  const auto partial = t.partial_fill({{"host", "wish.com"}});
  EXPECT_EQ(partial.hole_count(), 1u);
  EXPECT_EQ(partial.fill({{"scheme", "https"}}).value(), "https://wish.com/api");
}

TEST(FieldTemplate, MultiHoleExtraction) {
  const auto t = FieldTemplate::parse("{host}/product/{pid}/rating");
  const auto b = t.extract("wish.com/product/42/rating");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->at("host"), "wish.com");
  EXPECT_EQ(b->at("pid"), "42");
}

TEST(FieldTemplate, RepeatedHoleMustAgree) {
  const auto t = FieldTemplate::parse("{x}-{x}");
  EXPECT_TRUE(t.matches("a-a"));
  const auto b = t.extract("ab-ab");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->at("x"), "ab");
  EXPECT_FALSE(t.extract("a-b").has_value());
}

TEST(FieldTemplate, ShapedHoleConstrainsValues) {
  const auto t = FieldTemplate::parse("offset={o:(0|-1)}");
  EXPECT_TRUE(t.matches("offset=0"));
  EXPECT_TRUE(t.matches("offset=-1"));
  EXPECT_FALSE(t.matches("offset=5"));
}

TEST(FieldTemplate, ShapedHoleHexId) {
  const auto t = FieldTemplate::parse("cid={cid:[0-9a-f]+}");
  const auto b = t.extract("cid=0c99f");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->at("cid"), "0c99f");
  EXPECT_FALSE(t.extract("cid=XYZ").has_value());
}

TEST(FieldTemplate, AdjacentHolesShortestLeftmost) {
  const auto t = FieldTemplate::parse("{a:[0-9]+}{b:[a-z]+}");
  const auto b = t.extract("12ab");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->at("a"), "12");
  EXPECT_EQ(b->at("b"), "ab");
}

TEST(FieldTemplate, ToRegexString) {
  const auto t = FieldTemplate::parse("/api/get-feed?v={v}");
  // Literal metacharacters are escaped; holes become their shape.
  EXPECT_EQ(t.to_regex_string(), "/api/get-feed\\?v=.*");
}

TEST(FieldTemplate, ToDisplayStringRoundTrip) {
  const auto t = FieldTemplate::parse("{scheme}://{host:[a-z.]+}/x");
  const auto reparsed = FieldTemplate::parse(t.to_display_string());
  EXPECT_EQ(t, reparsed);
}

TEST(FieldTemplate, ParseEscapedBraces) {
  const auto t = FieldTemplate::parse("{{literal}}");
  EXPECT_TRUE(t.is_concrete());
  EXPECT_EQ(t.concrete_value().value(), "{literal}");
}

TEST(FieldTemplate, ParseErrors) {
  EXPECT_THROW(FieldTemplate::parse("{unterminated"), ParseError);
  EXPECT_THROW(FieldTemplate::parse("{}"), ParseError);
  EXPECT_THROW(FieldTemplate::parse("stray}brace"), ParseError);
  EXPECT_THROW(FieldTemplate::parse("{name:}"), ParseError);
}

TEST(FieldTemplate, AppendMergesAdjacentLiterals) {
  FieldTemplate t;
  t.append_literal("a").append_literal("b");
  EXPECT_EQ(t.segments().size(), 1u);
  EXPECT_EQ(t.concrete_value().value(), "ab");
}

TEST(FieldTemplate, AppendTemplate) {
  auto t = FieldTemplate::literal("https://");
  t.append(FieldTemplate::hole("host"));
  t.append(FieldTemplate::literal("/api"));
  EXPECT_EQ(t.fill({{"host", "geek.com"}}).value(), "https://geek.com/api");
}

TEST(FieldTemplate, HoleNamesDeduplicated) {
  const auto t = FieldTemplate::parse("{x}/{y}/{x}");
  EXPECT_EQ(t.hole_count(), 3u);  // three hole segments
  EXPECT_TRUE(t.has_hole("x"));
  EXPECT_TRUE(t.has_hole("y"));
  EXPECT_FALSE(t.has_hole("z"));
}

TEST(FieldTemplate, SerializationRoundTrip) {
  const auto t = FieldTemplate::parse("/p/{id:[0-9]+}/img?size={s}");
  ByteWriter w;
  t.serialize(w);
  ByteReader r(w.data());
  const auto back = FieldTemplate::deserialize(r);
  EXPECT_EQ(t, back);
  EXPECT_TRUE(r.at_end());
}

// Property-style sweep: extract-then-fill must reproduce the input exactly
// for a variety of template/value shapes.
struct RoundTripCase {
  const char* name;
  const char* spec;
  const char* value;
};

// Test listings print a parameter with this. Without it gtest prints the
// struct's bytes, i.e. pointers that change with every address-space layout,
// and CTest names the case after them.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class TemplateRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(TemplateRoundTrip, ExtractThenFillIsIdentity) {
  const auto& param = GetParam();
  const auto t = FieldTemplate::parse(param.spec);
  const auto bindings = t.extract(param.value);
  ASSERT_TRUE(bindings.has_value()) << param.spec << " vs " << param.value;
  EXPECT_EQ(t.fill(*bindings).value(), param.value);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TemplateRoundTrip,
    ::testing::Values(
        RoundTripCase{"Literal", "/api/get-feed", "/api/get-feed"},
        RoundTripCase{"QueryHole", "/img?cid={c}", "/img?cid=0c99f"},
        RoundTripCase{"LeadingHole", "{h}/api", "wish.com/api"},
        RoundTripCase{"TwoHoles", "{a}-{b}", "x-y"},
        RoundTripCase{"RepeatedHole", "{a}-{b}-{a}", "x-y-x"},
        RoundTripCase{"ShapedHoles", "v={v:[0-9.]+}&b={b}", "v=4.13.0&b=amazon"},
        RoundTripCase{"UrlParts", "{s}://{h}:{p:[0-9]+}{path}", "https://a.com:8443/x/y"},
        RoundTripCase{"PrefixThenHole", "prefix{x}", "prefixsuffix"},
        RoundTripCase{"HoleThenSuffix", "{x}suffix", "valuesuffix"},
        RoundTripCase{"EmptyValue", "{x}", ""},
        RoundTripCase{"InterleavedHoles", "a{x}b{y}c", "a1b2c"}));

}  // namespace
}  // namespace appx::pattern
