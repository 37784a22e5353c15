// Pins the scan dispatch contract: every Find* implementation — the
// dispatched entry point, the raw scalar loop, and (when compiled in) the
// raw vector path, which FindTextSpecial does not have — returns
// identical indices on identical inputs, for randomized strings dense in
// the special bytes, across `from` offsets that exercise heads,
// vector-width boundaries and tails. Also pins the
// runtime-dispatch switch itself: ForceScalar() flips SimdEnabled() and
// the tokenizer/StreamPage outputs stay byte-identical either way.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "html/scan.h"
#include "html/stream_page.h"
#include "html/tokenizer.h"

namespace ntw::html {
namespace {

using ScanFn = size_t (*)(std::string_view, size_t);

struct Variant {
  const char* name;
  ScanFn dispatched;
  ScanFn scalar;
  ScanFn simd;  // Null for the scalar-only FindTextSpecial.
};

const Variant kVariants[] = {
    {"FindLtOrAmp", &scan::FindLtOrAmp, &scan::internal::FindLtOrAmpScalar,
     &scan::internal::FindLtOrAmpSimd},
    {"FindTextSpecial", &scan::FindTextSpecial,
     &scan::internal::FindTextSpecialScalar, nullptr},
    {"FindWsOrGt", &scan::FindWsOrGt, &scan::internal::FindWsOrGtScalar,
     &scan::internal::FindWsOrGtSimd},
    {"FindAttrNameEnd", &scan::FindAttrNameEnd,
     &scan::internal::FindAttrNameEndScalar,
     &scan::internal::FindAttrNameEndSimd},
};

// Deterministic 64-bit LCG (MMIX constants): the test must not depend on
// the platform's rand().
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

 private:
  uint64_t state_;
};

std::string RandomString(Lcg& lcg, size_t length) {
  // Dense in the classified bytes so hits land at many alignments; also
  // includes high bytes (0x80..) to catch signedness bugs in the vector
  // compares and control bytes around the 9..13 whitespace range.
  static constexpr char kAlphabet[] =
      "<<&&>>//== \t\n\r\v\f\b\x0e"
      "abcdefgh01234567\x7f\x80\x9f\xc3\xe2\xff";
  std::string s;
  s.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    s.push_back(kAlphabet[lcg.Next() % (sizeof(kAlphabet) - 1)]);
  }
  return s;
}

TEST(ScanTest, AllImplementationsAgreeOnRandomInputs) {
  Lcg lcg(0x9e3779b97f4a7c15ULL);
  // Lengths straddle the 16-byte vector width: empty, sub-width, exactly
  // one/two widths, widths ± 1, and long tails.
  const size_t lengths[] = {0, 1, 3, 15, 16, 17, 31, 32, 33, 64, 100, 129};
  for (size_t length : lengths) {
    for (int rep = 0; rep < 8; ++rep) {
      std::string s = RandomString(lcg, length);
      for (const Variant& v : kVariants) {
        for (size_t from = 0; from <= length + 2; ++from) {
          size_t expected = v.scalar(s, from);
          EXPECT_EQ(v.dispatched(s, from), expected)
              << v.name << " dispatched, len=" << length
              << " from=" << from;
          if (scan::SimdCompiled() && v.simd != nullptr) {
            EXPECT_EQ(v.simd(s, from), expected)
                << v.name << " simd, len=" << length << " from=" << from;
          }
        }
      }
    }
  }
}

TEST(ScanTest, ClassMembershipIsExact) {
  // One directed probe per class byte, plus near-miss neighbors of the
  // whitespace range (8 and 14 are NOT whitespace; 9..13 and ' ' are).
  const std::string ws = "\t\n\v\f\r ";
  for (char c : ws) {
    std::string s(20, 'a');
    s[17] = c;
    EXPECT_EQ(scan::FindTextSpecial(s, 0), 17u) << int(c);
    EXPECT_EQ(scan::FindWsOrGt(s, 0), 17u) << int(c);
    EXPECT_EQ(scan::FindAttrNameEnd(s, 0), 17u) << int(c);
    EXPECT_EQ(scan::FindLtOrAmp(s, 0), std::string_view::npos) << int(c);
  }
  for (char c : {'\x08', '\x0e'}) {
    std::string s(20, 'a');
    s[17] = c;
    EXPECT_EQ(scan::FindTextSpecial(s, 0), std::string_view::npos) << int(c);
    EXPECT_EQ(scan::FindWsOrGt(s, 0), std::string_view::npos) << int(c);
  }
  std::string s = "abc<d&e>f/g=h";
  EXPECT_EQ(scan::FindLtOrAmp(s, 0), 3u);
  EXPECT_EQ(scan::FindLtOrAmp(s, 4), 5u);
  EXPECT_EQ(scan::FindTextSpecial(s, 0), 3u);
  EXPECT_EQ(scan::FindWsOrGt(s, 0), 7u);
  EXPECT_EQ(scan::FindAttrNameEnd(s, 0), 3u - 0u + 4u);  // '>' at 7.
  EXPECT_EQ(scan::FindAttrNameEnd(s, 8), 9u);            // '/' at 9.
  EXPECT_EQ(scan::FindAttrNameEnd(s, 10), 11u);          // '=' at 11.
  EXPECT_EQ(scan::FindByte(s, 0, 'g'), 10u);
  EXPECT_EQ(scan::FindByte(s, 11, 'g'), std::string_view::npos);
}

TEST(ScanTest, FromBeyondSizeReturnsNpos) {
  std::string s = "<<<<";
  for (const Variant& v : kVariants) {
    EXPECT_EQ(v.dispatched(s, 4), std::string_view::npos) << v.name;
    EXPECT_EQ(v.dispatched(s, 100), std::string_view::npos) << v.name;
    EXPECT_EQ(v.dispatched("", 0), std::string_view::npos) << v.name;
  }
  EXPECT_EQ(scan::FindByte(s, 5, '<'), std::string_view::npos);
}

// RAII guard so a failing assertion can't leave the process in
// forced-scalar mode for later tests.
class ForcedScalar {
 public:
  ForcedScalar() { scan::ForceScalar(true); }
  ~ForcedScalar() { scan::ForceScalar(false); }
};

TEST(ScanDispatchTest, ForceScalarFlipsTheSwitch) {
  // Default state: SIMD active exactly when compiled in and not disabled
  // by the environment (CI sets NTW_NO_SIMD=1 on some jobs, so only
  // assert the implication, not the value).
  if (scan::SimdEnabled()) {
    EXPECT_TRUE(scan::SimdCompiled());
    EXPECT_STRNE(scan::ImplementationName(), "scalar");
  } else {
    EXPECT_STREQ(scan::ImplementationName(), "scalar");
  }
  {
    ForcedScalar forced;
    EXPECT_FALSE(scan::SimdEnabled());
    EXPECT_STREQ(scan::ImplementationName(), "scalar");
    std::string s(40, 'a');
    s[33] = '<';
    EXPECT_EQ(scan::FindLtOrAmp(s, 0), 33u);
  }
}

TEST(ScanDispatchTest, TokenizerOutputIdenticalUnderForcedScalar) {
  const std::string source =
      "<html><body class=\"x\" id=ok><p title='a &amp; b'>Text &#65; "
      "here</p><script>if (a<b) c();</script><ul><li>one<li>two</ul>"
      "</body></html>";
  Tokenizer defaults(source);
  std::vector<Token> expected = defaults.TokenizeAll();
  {
    ForcedScalar forced;
    Tokenizer forced_tokenizer(source);
    std::vector<Token> actual = forced_tokenizer.TokenizeAll();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].kind, expected[i].kind) << "token " << i;
      EXPECT_EQ(actual[i].data, expected[i].data) << "token " << i;
      EXPECT_EQ(actual[i].attrs, expected[i].attrs) << "token " << i;
      EXPECT_EQ(actual[i].self_closing, expected[i].self_closing)
          << "token " << i;
    }
  }
}

TEST(ScanDispatchTest, StreamPageOutputIdenticalUnderForcedScalar) {
  const std::string sources[] = {
      "<html><body><b>clean verbatim page</b></body></html>",
      "<html><body><p>A &amp; B  with  doubles</p><ul><li>a<li>b</ul>"
      "</body></html>",
  };
  for (const std::string& source : sources) {
    StreamPage simd_page;
    simd_page.Build(source);
    std::string expected_stream(simd_page.stream());
    std::vector<StreamSpan> expected_spans = simd_page.spans();
    bool expected_verbatim = simd_page.verbatim();
    {
      ForcedScalar forced;
      StreamPage scalar_page;
      scalar_page.Build(source);
      EXPECT_EQ(scalar_page.stream(), expected_stream);
      EXPECT_EQ(scalar_page.verbatim(), expected_verbatim);
      ASSERT_EQ(scalar_page.spans().size(), expected_spans.size());
      for (size_t i = 0; i < expected_spans.size(); ++i) {
        EXPECT_EQ(scalar_page.spans()[i].begin, expected_spans[i].begin);
        EXPECT_EQ(scalar_page.spans()[i].end, expected_spans[i].end);
      }
    }
  }
}

}  // namespace
}  // namespace ntw::html
