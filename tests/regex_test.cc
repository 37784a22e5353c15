#include "regex/regex.h"

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace ntw::regex {
namespace {

Regex MustCompile(const std::string& pattern) {
  Result<Regex> re = Regex::Compile(pattern);
  EXPECT_TRUE(re.ok()) << pattern << ": " << re.status().ToString();
  return std::move(re).value();
}

TEST(RegexTest, LiteralFullMatch) {
  Regex re = MustCompile("abc");
  EXPECT_TRUE(re.FullMatch("abc"));
  EXPECT_FALSE(re.FullMatch("abcd"));
  EXPECT_FALSE(re.FullMatch("ab"));
  EXPECT_FALSE(re.FullMatch(""));
}

TEST(RegexTest, PartialMatch) {
  Regex re = MustCompile("bc");
  EXPECT_TRUE(re.PartialMatch("abcd"));
  EXPECT_FALSE(re.PartialMatch("b c"));
}

TEST(RegexTest, Dot) {
  Regex re = MustCompile("a.c");
  EXPECT_TRUE(re.FullMatch("abc"));
  EXPECT_TRUE(re.FullMatch("a-c"));
  EXPECT_FALSE(re.FullMatch("a\nc"));  // Dot excludes newline.
  EXPECT_FALSE(re.FullMatch("ac"));
}

TEST(RegexTest, StarGreedy) {
  Regex re = MustCompile("ab*c");
  EXPECT_TRUE(re.FullMatch("ac"));
  EXPECT_TRUE(re.FullMatch("abbbbc"));
  EXPECT_FALSE(re.FullMatch("adc"));
}

TEST(RegexTest, Plus) {
  Regex re = MustCompile("ab+c");
  EXPECT_FALSE(re.FullMatch("ac"));
  EXPECT_TRUE(re.FullMatch("abc"));
  EXPECT_TRUE(re.FullMatch("abbc"));
}

TEST(RegexTest, Question) {
  Regex re = MustCompile("colou?r");
  EXPECT_TRUE(re.FullMatch("color"));
  EXPECT_TRUE(re.FullMatch("colour"));
  EXPECT_FALSE(re.FullMatch("colouur"));
}

TEST(RegexTest, CountedRepeat) {
  Regex re = MustCompile("a{3}");
  EXPECT_TRUE(re.FullMatch("aaa"));
  EXPECT_FALSE(re.FullMatch("aa"));
  EXPECT_FALSE(re.FullMatch("aaaa"));
}

TEST(RegexTest, CountedRange) {
  Regex re = MustCompile("a{2,3}");
  EXPECT_FALSE(re.FullMatch("a"));
  EXPECT_TRUE(re.FullMatch("aa"));
  EXPECT_TRUE(re.FullMatch("aaa"));
  EXPECT_FALSE(re.FullMatch("aaaa"));
}

TEST(RegexTest, CountedOpenRange) {
  Regex re = MustCompile("a{2,}");
  EXPECT_FALSE(re.FullMatch("a"));
  EXPECT_TRUE(re.FullMatch("aaaaaa"));
}

TEST(RegexTest, BraceLiteralWhenNotQuantifier) {
  Regex re = MustCompile("a{x}");
  EXPECT_TRUE(re.FullMatch("a{x}"));
}

TEST(RegexTest, CharClass) {
  Regex re = MustCompile("[abc]+");
  EXPECT_TRUE(re.FullMatch("cab"));
  EXPECT_FALSE(re.FullMatch("cad"));
}

TEST(RegexTest, CharClassRange) {
  Regex re = MustCompile("[a-f0-3]+");
  EXPECT_TRUE(re.FullMatch("fade012"));
  EXPECT_FALSE(re.FullMatch("g"));
  EXPECT_FALSE(re.FullMatch("4"));
}

TEST(RegexTest, NegatedClass) {
  Regex re = MustCompile("[^0-9]+");
  EXPECT_TRUE(re.FullMatch("abc!"));
  EXPECT_FALSE(re.FullMatch("ab1"));
}

TEST(RegexTest, ClassWithLeadingBracket) {
  Regex re = MustCompile("[]a]+");
  EXPECT_TRUE(re.FullMatch("]a]"));
}

TEST(RegexTest, DigitShorthand) {
  Regex re = MustCompile(R"(\d{5})");
  EXPECT_TRUE(re.FullMatch("38652"));
  EXPECT_FALSE(re.FullMatch("3865"));
  EXPECT_FALSE(re.FullMatch("3865a"));
}

TEST(RegexTest, WordAndSpaceShorthand) {
  EXPECT_TRUE(MustCompile(R"(\w+)").FullMatch("ab_9"));
  EXPECT_FALSE(MustCompile(R"(\w+)").FullMatch("a b"));
  EXPECT_TRUE(MustCompile(R"(\s+)").FullMatch(" \t\n"));
  EXPECT_TRUE(MustCompile(R"(\S+)").FullMatch("abc"));
  EXPECT_FALSE(MustCompile(R"(\D)").FullMatch("5"));
}

TEST(RegexTest, EscapedMetachars) {
  Regex re = MustCompile(R"(\$\d+\.\d{2})");
  EXPECT_TRUE(re.FullMatch("$129.99"));
  EXPECT_FALSE(re.FullMatch("x129.99"));
}

TEST(RegexTest, Alternation) {
  Regex re = MustCompile("cat|dog|bird");
  EXPECT_TRUE(re.FullMatch("cat"));
  EXPECT_TRUE(re.FullMatch("dog"));
  EXPECT_TRUE(re.FullMatch("bird"));
  EXPECT_FALSE(re.FullMatch("catdog"));
}

TEST(RegexTest, GroupedAlternation) {
  Regex re = MustCompile("a(b|c)d");
  EXPECT_TRUE(re.FullMatch("abd"));
  EXPECT_TRUE(re.FullMatch("acd"));
  EXPECT_FALSE(re.FullMatch("ad"));
}

TEST(RegexTest, GroupRepeat) {
  Regex re = MustCompile("(ab)+");
  EXPECT_TRUE(re.FullMatch("ab"));
  EXPECT_TRUE(re.FullMatch("ababab"));
  EXPECT_FALSE(re.FullMatch("aba"));
}

TEST(RegexTest, NestedGroups) {
  Regex re = MustCompile("((a|b)c)+d");
  EXPECT_TRUE(re.FullMatch("acbcd"));
  EXPECT_FALSE(re.FullMatch("abd"));
}

TEST(RegexTest, Anchors) {
  EXPECT_TRUE(MustCompile("^abc$").FullMatch("abc"));
  EXPECT_TRUE(MustCompile("^a").PartialMatch("abc"));
  EXPECT_FALSE(MustCompile("^b").PartialMatch("abc"));
  EXPECT_TRUE(MustCompile("c$").PartialMatch("abc"));
  EXPECT_FALSE(MustCompile("b$").PartialMatch("abc"));
}

TEST(RegexTest, WordBoundary) {
  Regex re = MustCompile(R"(\b\d{5}\b)");
  EXPECT_TRUE(re.PartialMatch("zip 38652 ok"));
  EXPECT_TRUE(re.PartialMatch("38652"));
  EXPECT_TRUE(re.PartialMatch("MS 38652"));
  EXPECT_FALSE(re.PartialMatch("386521"));
  EXPECT_FALSE(re.PartialMatch("a38652"));
  EXPECT_TRUE(re.PartialMatch("(38652)"));
}

TEST(RegexTest, FindAllNonOverlapping) {
  Regex re = MustCompile(R"(\d+)");
  std::vector<Regex::Span> spans = re.FindAll("a12b345c6");
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].begin, 1u);
  EXPECT_EQ(spans[0].end, 3u);
  EXPECT_EQ(spans[1].begin, 4u);
  EXPECT_EQ(spans[1].end, 7u);
  EXPECT_EQ(spans[2].begin, 8u);
  EXPECT_EQ(spans[2].end, 9u);
}

TEST(RegexTest, FindAllEmptyOnNoMatch) {
  EXPECT_TRUE(MustCompile("xyz").FindAll("abc").empty());
}

TEST(RegexTest, GreedyBacktracks) {
  // Greedy a* must give back one 'a' so the literal 'a' can match.
  Regex re = MustCompile("a*a");
  EXPECT_TRUE(re.FullMatch("aaaa"));
  EXPECT_TRUE(re.FullMatch("a"));
  EXPECT_FALSE(re.FullMatch(""));
}

TEST(RegexTest, AlternationInsideRepeatBacktracks) {
  Regex re = MustCompile("(ab|a)*b");
  EXPECT_TRUE(re.FullMatch("ab"));     // (a) then b.
  EXPECT_TRUE(re.FullMatch("abab"));   // (ab)(a) then b.
  EXPECT_TRUE(re.FullMatch("b"));
}

TEST(RegexTest, ZipcodePattern) {
  Regex re = MustCompile(R"(\b\d{5}\b)");
  EXPECT_TRUE(re.PartialMatch("NEW ALBANY, MS 38652"));
  EXPECT_TRUE(re.PartialMatch("10245 MAIN ST."));  // 5-digit street number.
  EXPECT_FALSE(re.PartialMatch("662-534-3672"));   // Phone groups are 3/3/4.
  EXPECT_FALSE(re.PartialMatch("P.O. BOX 152"));
}

TEST(RegexTest, ParseErrors) {
  EXPECT_FALSE(Regex::Compile("a(b").ok());
  EXPECT_FALSE(Regex::Compile("a)b").ok());
  EXPECT_FALSE(Regex::Compile("[abc").ok());
  EXPECT_FALSE(Regex::Compile("*a").ok());
  EXPECT_FALSE(Regex::Compile("a\\").ok());
  EXPECT_FALSE(Regex::Compile("a{3,2}").ok());
  EXPECT_FALSE(Regex::Compile("^*").ok());
  EXPECT_FALSE(Regex::Compile("[b-a]").ok());
}

TEST(RegexTest, EmptyPatternMatchesEmpty) {
  Regex re = MustCompile("");
  EXPECT_TRUE(re.FullMatch(""));
  EXPECT_FALSE(re.FullMatch("a"));
  EXPECT_TRUE(re.PartialMatch("abc"));  // Matches the empty string anywhere.
}

TEST(RegexTest, CaseSensitive) {
  EXPECT_FALSE(MustCompile("abc").FullMatch("ABC"));
}

TEST(RegexTest, PrefilterKeepsNullableAndAnchoredMatches) {
  // Patterns that can match the empty string must try every offset.
  EXPECT_TRUE(MustCompile("x?").PartialMatch("abc"));
  EXPECT_TRUE(MustCompile("(x|)").PartialMatch("abc"));
  EXPECT_TRUE(MustCompile("$").PartialMatch("abc"));
  EXPECT_TRUE(MustCompile("x{0}").PartialMatch(""));
  std::vector<Regex::Span> ends = MustCompile("$").FindAll("ab");
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].begin, 2u);
  // A zero-width prefix does not hide the first consumed byte.
  EXPECT_TRUE(MustCompile(R"(\b\d)").PartialMatch("ab 7"));
  EXPECT_FALSE(MustCompile(R"(^\d)").PartialMatch("a7"));
}

std::vector<std::pair<size_t, size_t>> Spans(const Regex& re,
                                              std::string_view text) {
  std::vector<std::pair<size_t, size_t>> out;
  for (const Regex::Span& span : re.FindAll(text)) {
    out.emplace_back(span.begin, span.end);
  }
  return out;
}

TEST(RegexTest, GroupingDoesNotChangeMatches) {
  using SpanList = std::vector<std::pair<size_t, size_t>>;
  // Alternatives are tried in order whether or not they are nested.
  EXPECT_EQ(Spans(MustCompile("(a|ab)c?"), "abc"), (SpanList{{0, 1}}));
  EXPECT_EQ(Spans(MustCompile("((a|ab)c?)"), "abc"), (SpanList{{0, 1}}));
  // An empty iteration counts toward a + minimum at any depth.
  SpanList empties = {{0, 0}, {1, 1}, {2, 2}};
  EXPECT_EQ(Spans(MustCompile("(x*)+"), "ab"), empties);
  EXPECT_EQ(Spans(MustCompile("((x*)+)"), "ab"), empties);
  EXPECT_TRUE(MustCompile("(x*)+").FullMatch(""));
  EXPECT_TRUE(MustCompile("((x*)+)").FullMatch(""));
  EXPECT_TRUE(MustCompile("(x*)+").FullMatch("xx"));
}

TEST(RegexTest, EmptyIterationsCountTowardMinimum) {
  EXPECT_TRUE(MustCompile("(x*){2}").FullMatch(""));
  EXPECT_TRUE(MustCompile("(a?){3}").FullMatch("a"));
  EXPECT_TRUE(MustCompile("(a?){3}").FullMatch("aaa"));
  EXPECT_FALSE(MustCompile("(a?){3}").FullMatch("aaaa"));
  EXPECT_TRUE(MustCompile("(a|){2,}b").FullMatch("b"));
}

// Random patterns over the whole syntax — anchors, \b, nullable
// alternatives, {0}, negated classes — against random texts.
class RandomPattern {
 public:
  explicit RandomPattern(uint64_t seed) : rng_(seed) {}

  std::string Alternation(int depth) {
    std::string out = Concat(depth);
    while (rng_.NextBernoulli(0.3)) out += "|" + Concat(depth);
    return out;
  }

  std::string Text() {
    static constexpr char kAlphabet[] = "ab1 -\n";
    std::string text;
    size_t length = rng_.NextBounded(11);
    for (size_t i = 0; i < length; ++i) {
      text += kAlphabet[rng_.NextBounded(sizeof(kAlphabet) - 1)];
    }
    return text;
  }

 private:
  std::string Concat(int depth) {
    std::string out;
    size_t atoms = rng_.NextBounded(4);  // May be empty: nullable branch.
    for (size_t i = 0; i < atoms; ++i) out += QuantifiedAtom(depth);
    return out;
  }

  std::string QuantifiedAtom(int depth) {
    static const char* const kAnchors[] = {"^", "$", R"(\b)"};
    if (rng_.NextBernoulli(0.15)) return kAnchors[rng_.NextBounded(3)];
    static const char* const kAtoms[] = {
        "a", "b", "1", " ", "-", ".", R"(\d)", R"(\w)", R"(\s)", R"(\D)",
        "[ab]", "[^a1]", "[^ ]", R"(\n)"};
    std::string atom =
        depth > 0 && rng_.NextBernoulli(0.25)
            ? "(" + Alternation(depth - 1) + ")"
            : kAtoms[rng_.NextBounded(sizeof(kAtoms) / sizeof(kAtoms[0]))];
    static const char* const kQuantifiers[] = {"",  "",    "",    "*", "+",
                                               "?", "{0}", "{2}", "{1,2}"};
    return atom + kQuantifiers[rng_.NextBounded(
                      sizeof(kQuantifiers) / sizeof(kQuantifiers[0]))];
  }

  Rng rng_;
};

/// The same pattern with two top-level alternatives appended that never
/// match: one that can begin with any byte, `(.|\n)^`, and one that can
/// match the empty string, `^$\b`. The backtracker tries the pattern's own
/// alternatives first, unchanged, so the reference's matches are the
/// pattern's; but no byte and no offset can be ruled out, so it tries
/// every offset.
Regex EveryOffsetReference(const std::string& pattern) {
  return MustCompile(pattern + "|(.|\\n)^|^$\\b");
}

TEST(RegexTest, PrefilterMatchesTryingEveryOffset) {
  RandomPattern random(20261019);
  for (int i = 0; i < 500; ++i) {
    std::string pattern = random.Alternation(/*depth=*/2);
    Regex re = MustCompile(pattern);
    Regex reference = EveryOffsetReference(pattern);
    for (int j = 0; j < 16; ++j) {
      std::string text = random.Text();
      ASSERT_EQ(re.PartialMatch(text), reference.PartialMatch(text))
          << "/" << pattern << "/ on '" << text << "'";
      std::vector<Regex::Span> spans = re.FindAll(text);
      std::vector<Regex::Span> expected = reference.FindAll(text);
      ASSERT_EQ(spans.size(), expected.size())
          << "/" << pattern << "/ on '" << text << "'";
      for (size_t k = 0; k < spans.size(); ++k) {
        EXPECT_EQ(spans[k].begin, expected[k].begin) << "/" << pattern << "/";
        EXPECT_EQ(spans[k].end, expected[k].end) << "/" << pattern << "/";
      }
    }
  }
}

TEST(RegexTest, ParenthesizedPatternMatchesAsItself) {
  RandomPattern random(20261020);
  for (int i = 0; i < 500; ++i) {
    std::string pattern = random.Alternation(/*depth=*/2);
    Regex re = MustCompile(pattern);
    Regex grouped = MustCompile("(" + pattern + ")");
    for (int j = 0; j < 16; ++j) {
      std::string text = random.Text();
      ASSERT_EQ(Spans(grouped, text), Spans(re, text))
          << "/" << pattern << "/ on '" << text << "'";
      ASSERT_EQ(grouped.FullMatch(text), re.FullMatch(text))
          << "/" << pattern << "/ on '" << text << "'";
    }
  }
}

}  // namespace
}  // namespace ntw::regex
