#include "annotate/dictionary_annotator.h"
#include "annotate/regex_annotator.h"
#include "annotate/synthetic_annotator.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datasets/dealers.h"
#include "datasets/products.h"
#include "gtest/gtest.h"
#include "sitegen/vocab.h"
#include "test_util.h"

namespace ntw::annotate {
namespace {

using ::ntw::testing::FigureOnePages;
using ::ntw::testing::FindText;
using ::ntw::testing::MustParse;

TEST(DictionaryAnnotatorTest, LabelsExactMentions) {
  core::PageSet pages = FigureOnePages();
  DictionaryAnnotator annotator({"PORTER FURNITURE", "LULLABY LANE"});
  core::NodeSet labels = annotator.Annotate(pages);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(testing::TextOf(pages, labels[0]), "PORTER FURNITURE");
  EXPECT_EQ(testing::TextOf(pages, labels[1]), "LULLABY LANE");
}

TEST(DictionaryAnnotatorTest, MatchesInsideLongerText) {
  core::PageSet pages;
  pages.AddPage(MustParse(
      "<p>An authorized BestBuy retailer since 1999</p>"
      "<p>BestBuyify is different</p>"));
  DictionaryAnnotator annotator({"BestBuy"});
  core::NodeSet labels = annotator.Annotate(pages);
  ASSERT_EQ(labels.size(), 1u);  // Word boundaries: no BestBuyify hit.
}

TEST(DictionaryAnnotatorTest, CaseInsensitive) {
  core::PageSet pages;
  pages.AddPage(MustParse("<p>office depot</p>"));
  DictionaryAnnotator annotator({"Office Depot"});
  EXPECT_EQ(annotator.Annotate(pages).size(), 1u);
}

TEST(DictionaryAnnotatorTest, ShortEntriesDropped) {
  DictionaryAnnotator::Options options;
  options.min_entry_length = 4;
  DictionaryAnnotator annotator({"abc", "abcd"}, options);
  EXPECT_EQ(annotator.size(), 1u);
}

TEST(DictionaryAnnotatorTest, MaxPagesLimitsScope) {
  core::PageSet pages = FigureOnePages();
  DictionaryAnnotator::Options options;
  options.max_pages = 1;
  DictionaryAnnotator annotator(
      {"PORTER FURNITURE", "KIDDIE WORLD CENTER"}, options);
  core::NodeSet labels = annotator.Annotate(pages);
  ASSERT_EQ(labels.size(), 1u);  // KIDDIE is on page 2 — out of scope.
  EXPECT_EQ(labels[0].page, 0);
}

TEST(DictionaryAnnotatorTest, EmptyDictionary) {
  core::PageSet pages = FigureOnePages();
  DictionaryAnnotator annotator({});
  EXPECT_TRUE(annotator.Annotate(pages).empty());
}

// The per-entry definition the index must reproduce exactly: a text node
// is labeled when some kept entry is a word-delimited, case-insensitive
// mention in it.
bool OracleMatches(const std::vector<std::string>& entries,
                   size_t min_entry_length, const std::string& text) {
  for (const std::string& entry : entries) {
    if (entry.size() >= min_entry_length &&
        ContainsWordIgnoreCase(text, entry)) {
      return true;
    }
  }
  return false;
}

core::NodeSet OracleAnnotate(const std::vector<std::string>& entries,
                             const DictionaryAnnotator::Options& options,
                             const core::PageSet& pages) {
  core::NodeSet labels;
  size_t page_limit = options.max_pages == 0
                          ? pages.size()
                          : std::min(options.max_pages, pages.size());
  for (size_t p = 0; p < page_limit; ++p) {
    for (const html::Node* node : pages.page(p).text_nodes()) {
      if (OracleMatches(entries, options.min_entry_length, node->text())) {
        labels.Insert(core::NodeRef{static_cast<int>(p),
                                    node->preorder_index()});
      }
    }
  }
  return labels;
}

// A small alphabet so random texts hit entries often: letters of both
// cases, digits, spaces and punctuation (word boundaries of every kind).
std::string RandomString(Rng* rng, size_t length) {
  static constexpr std::string_view kAlphabet = "abAB01 -.,'";
  std::string s;
  for (size_t i = 0; i < length; ++i) {
    s += kAlphabet[rng->NextBounded(kAlphabet.size())];
  }
  return s;
}

std::string FlipCase(Rng* rng, std::string s) {
  for (char& c : s) {
    if (rng->NextBernoulli(0.5)) {
      c = c == AsciiToLower(c) ? AsciiToUpper(c) : AsciiToLower(c);
    }
  }
  return s;
}

std::vector<std::string> RandomEntries(Rng* rng) {
  std::vector<std::string> entries;
  size_t count = rng->NextBounded(10);
  for (size_t i = 0; i < count; ++i) {
    if (entries.empty() || rng->NextBernoulli(0.5)) {
      entries.push_back(RandomString(rng, rng->NextBounded(7)));
      continue;
    }
    const std::string base = entries[rng->NextBounded(entries.size())];
    size_t cut = rng->NextBounded(base.size() + 1);
    switch (rng->NextBounded(4)) {
      case 0:  // Prefix of another entry.
        entries.push_back(base.substr(0, cut));
        break;
      case 1:  // Suffix of another entry.
        entries.push_back(base.substr(cut));
        break;
      case 2:  // Duplicate after case folding.
        entries.push_back(FlipCase(rng, base));
        break;
      default:  // Begins or ends with a non-alphanumeric byte.
        entries.push_back(rng->NextBernoulli(0.5) ? "-" + base : base + ".");
        break;
    }
  }
  return entries;
}

std::string RandomText(Rng* rng, const std::vector<std::string>& entries) {
  if (rng->NextBernoulli(0.15)) {
    return RandomString(rng, rng->NextBounded(3));  // Shorter than most.
  }
  std::string text = RandomString(rng, rng->NextBounded(8));
  if (!entries.empty() && rng->NextBernoulli(0.7)) {
    text += FlipCase(rng, entries[rng->NextBounded(entries.size())]);
    text += RandomString(rng, rng->NextBounded(8));
  }
  return text;
}

TEST(DictionaryAnnotatorTest, IndexMatchesPerEntryOracle) {
  Rng rng(20261017);
  constexpr int kCases = 600;
  static constexpr size_t kMinLengths[] = {0, 2, 3};
  size_t positives = 0, probes = 0;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    std::vector<std::string> entries = RandomEntries(&rng);
    DictionaryAnnotator::Options options;
    options.min_entry_length = kMinLengths[rng.NextBounded(3)];
    options.max_pages = rng.NextBounded(4);
    DictionaryAnnotator annotator(entries, options);

    size_t kept = 0;
    for (const std::string& entry : entries) {
      kept += entry.size() >= options.min_entry_length;
    }
    ASSERT_EQ(annotator.size(), kept);

    core::PageSet pages;
    for (int p = 0; p < 3; ++p) {
      std::string html = "<div>";
      for (int t = 0; t < 6; ++t) {
        std::string text = RandomText(&rng, entries);
        bool expected = OracleMatches(entries, options.min_entry_length, text);
        ASSERT_EQ(annotator.Matches(text), expected) << "text '" << text << "'";
        positives += expected;
        ++probes;
        html += "<p>" + HtmlEscape(text) + "</p>";
      }
      pages.AddPage(MustParse(html + "</div>"));
    }
    ASSERT_EQ(annotator.Annotate(pages),
              OracleAnnotate(entries, options, pages));
  }
  // The generator must exercise both outcomes, not only misses.
  EXPECT_GT(positives, probes / 10);
  EXPECT_LT(positives, probes * 4 / 5);
}

TEST(DictionaryAnnotatorTest, BoundaryAndDuplicateEdgeCases) {
  DictionaryAnnotator::Options options;
  options.min_entry_length = 2;
  DictionaryAnnotator annotator({"-ab", "ab.", "AB", "ab", "abab"}, options);
  EXPECT_EQ(annotator.size(), 5u);  // Case-folded duplicates still count.
  EXPECT_TRUE(annotator.Matches("x -ab"));
  EXPECT_TRUE(annotator.Matches("ab."));
  EXPECT_TRUE(annotator.Matches("x aB y"));
  EXPECT_TRUE(annotator.Matches("ABAB"));
  EXPECT_FALSE(annotator.Matches("xab"));    // No left boundary.
  EXPECT_FALSE(annotator.Matches("aba"));    // No right boundary.
  EXPECT_FALSE(annotator.Matches("x-aba"));  // "-ab" needs a right edge.
  EXPECT_FALSE(annotator.Matches("a"));      // Shorter than every entry.
  EXPECT_FALSE(annotator.Matches(""));
  DictionaryAnnotator::Options keep_all;
  keep_all.min_entry_length = 0;
  DictionaryAnnotator empty_entry({""}, keep_all);
  EXPECT_EQ(empty_entry.size(), 1u);
  EXPECT_FALSE(empty_entry.Matches("anything"));  // Empty never matches.
}

TEST(DictionaryAnnotatorTest, DealersLabelsMatchOracle) {
  datasets::DealersConfig config;
  config.num_sites = 6;
  config.pages_per_site = 4;
  datasets::Dataset dataset = datasets::MakeDealers(config);
  // The annotator's dictionary, rebuilt the way MakeDealers draws it from
  // the business-name universe.
  std::vector<std::string> names =
      sitegen::BusinessNameUniverse(config.universe_size, config.seed * 977);
  size_t dict_size = static_cast<size_t>(config.dictionary_fraction *
                                         static_cast<double>(names.size()));
  Rng rng(config.seed * 31 + 7);
  std::vector<size_t> order(names.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  std::vector<std::string> dictionary;
  for (size_t i = 0; i < dict_size; ++i) dictionary.push_back(names[order[i]]);

  size_t labels = 0;
  for (const datasets::SiteData& data : dataset.sites) {
    core::NodeSet expected =
        OracleAnnotate(dictionary, DictionaryAnnotator::Options(),
                       data.site.pages);
    EXPECT_EQ(data.annotations.at("name"), expected);
    labels += expected.size();
  }
  EXPECT_GT(labels, 0u);
}

TEST(DictionaryAnnotatorTest, ProductsLabelsMatchOracle) {
  datasets::ProductsConfig config;
  config.num_sites = 4;
  datasets::Dataset dataset = datasets::MakeProducts(config);
  // The catalogue MakeProducts annotates with, trimmed to the paper's 463.
  std::vector<std::string> catalogue = sitegen::PhoneModelCatalogue(
      config.catalogue_per_brand, config.seed * 131);
  if (catalogue.size() > 463) catalogue.resize(463);

  size_t labels = 0;
  for (const datasets::SiteData& data : dataset.sites) {
    core::NodeSet expected = OracleAnnotate(
        catalogue, DictionaryAnnotator::Options(), data.site.pages);
    EXPECT_EQ(data.annotations.at("model"), expected);
    labels += expected.size();
  }
  EXPECT_GT(labels, 0u);
}

TEST(RegexAnnotatorTest, ZipcodeAnnotator) {
  core::PageSet pages = FigureOnePages();
  RegexAnnotator annotator = RegexAnnotator::Zipcode();
  core::NodeSet labels = annotator.Annotate(pages);
  // The five city/state/zip lines (street numbers here are < 5 digits).
  ASSERT_EQ(labels.size(), 5u);
  for (const core::NodeRef& ref : labels) {
    EXPECT_NE(testing::TextOf(pages, ref).find(","), std::string::npos);
  }
}

TEST(RegexAnnotatorTest, FiveDigitStreetIsFalsePositive) {
  core::PageSet pages;
  pages.AddPage(MustParse("<p>10245 MAIN ST.</p><p>38652</p><p>1234</p>"));
  RegexAnnotator annotator = RegexAnnotator::Zipcode();
  EXPECT_EQ(annotator.Annotate(pages).size(), 2u);
}

TEST(RegexAnnotatorTest, CustomPattern) {
  Result<RegexAnnotator> annotator =
      RegexAnnotator::Create("phone", R"(\d{3}-\d{3}-\d{4})");
  ASSERT_TRUE(annotator.ok());
  core::PageSet pages;
  pages.AddPage(MustParse("<p>Phone: 662-534-3672</p><p>no digits</p>"));
  EXPECT_EQ(annotator->Annotate(pages).size(), 1u);
  EXPECT_EQ(annotator->Name(), "phone");
}

TEST(RegexAnnotatorTest, BadPatternFails) {
  EXPECT_FALSE(RegexAnnotator::Create("broken", "(a").ok());
}

TEST(SyntheticAnnotatorTest, ExtremesAreExact) {
  core::PageSet pages = FigureOnePages();
  core::NodeSet truth(FindText(pages, "PORTER FURNITURE"));
  for (const core::NodeRef& ref : FindText(pages, "LULLABY LANE")) {
    truth.Insert(ref);
  }
  Rng rng(1);
  SyntheticAnnotator perfect(1.0, 0.0);
  EXPECT_EQ(perfect.Annotate(pages, truth, &rng), truth);
  SyntheticAnnotator silent(0.0, 0.0);
  EXPECT_TRUE(silent.Annotate(pages, truth, &rng).empty());
}

TEST(SyntheticAnnotatorTest, RatesApproximateP1P2) {
  // A larger page set for stable statistics.
  core::PageSet pages;
  std::string html = "<ul>";
  for (int i = 0; i < 200; ++i) {
    html += "<li><b>t" + std::to_string(i) + "</b><span>o" +
            std::to_string(i) + "</span></li>";
  }
  html += "</ul>";
  pages.AddPage(MustParse(html));
  core::NodeSet truth;
  for (int i = 0; i < 200; ++i) {
    for (const core::NodeRef& ref :
         FindText(pages, "t" + std::to_string(i))) {
      truth.Insert(ref);
    }
  }
  ASSERT_EQ(truth.size(), 200u);

  SyntheticAnnotator annotator(0.3, 0.05);
  Rng rng(42);
  size_t hits = 0, false_hits = 0;
  constexpr int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    core::NodeSet labels = annotator.Annotate(pages, truth, &rng);
    hits += labels.IntersectSize(truth);
    false_hits += labels.size() - labels.IntersectSize(truth);
  }
  double recall = static_cast<double>(hits) / (200.0 * kTrials);
  double fp_rate = static_cast<double>(false_hits) / (200.0 * kTrials);
  EXPECT_NEAR(recall, 0.3, 0.04);
  EXPECT_NEAR(fp_rate, 0.05, 0.02);
}

TEST(SyntheticAnnotatorTest, SolveP2MatchesPrecisionTarget) {
  // n1 = 100 true, n2 = 900 false, p1 = 0.5, want precision 0.8:
  // p2 = 100·0.5·0.2 / (0.8·900).
  double p2 = SyntheticAnnotator::SolveP2(0.5, 0.8, 100, 900);
  EXPECT_NEAR(p2, 100 * 0.5 * 0.2 / (0.8 * 900), 1e-12);
  double expected_precision = 100 * 0.5 / (100 * 0.5 + 900 * p2);
  EXPECT_NEAR(expected_precision, 0.8, 1e-9);
}

TEST(SyntheticAnnotatorTest, SolveP2Extremes) {
  EXPECT_EQ(SyntheticAnnotator::SolveP2(0.5, 1.0, 10, 10), 0.0);
  EXPECT_EQ(SyntheticAnnotator::SolveP2(0.5, 0.8, 10, 0), 0.0);
  EXPECT_LE(SyntheticAnnotator::SolveP2(1.0, 0.01, 1000, 1), 1.0);
}

}  // namespace
}  // namespace ntw::annotate
