#include "core/lr_inductor.h"

#include <mutex>
#include <vector>

#include "core/enumerate.h"
#include "datasets/dealers.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ntw::core {
namespace {

using ::ntw::testing::FigureOnePages;
using ::ntw::testing::FindText;

class LrInductorTest : public ::testing::Test {
 protected:
  LrInductorTest() : pages_(FigureOnePages()) {}

  NodeRef Name(const std::string& text) {
    std::vector<NodeRef> found = FindText(pages_, text);
    EXPECT_EQ(found.size(), 1u);
    return found[0];
  }

  PageSet pages_;
  LrInductor inductor_;
};

TEST_F(LrInductorTest, EmptyLabelsExtractNothing) {
  Induction induction = inductor_.Induce(pages_, NodeSet());
  EXPECT_TRUE(induction.extraction.empty());
}

TEST_F(LrInductorTest, TwoNamesLearnTheUDelimiters) {
  // Labels in different record positions whose following addresses start
  // with different digits: the common left context is the record-local
  // "<tr><td><u>" and the right context "</u><br>", so the rule
  // generalizes to every name. (Two first-record labels would share the
  // entire page prefix and learn an over-specific rule — see
  // SingletonLearnsLongDelimiters.)
  NodeSet labels(
      {Name("HELLER HOME CENTER"), Name("KIDDIE WORLD CENTER")});
  Induction induction = inductor_.Induce(pages_, labels);
  const auto* wrapper = dynamic_cast<const LrWrapper*>(induction.wrapper.get());
  ASSERT_NE(wrapper, nullptr);
  EXPECT_TRUE(wrapper->left().ends_with("<u>")) << wrapper->left();
  EXPECT_TRUE(wrapper->right().starts_with("</u>")) << wrapper->right();
  // Extracts exactly the five dealer names.
  EXPECT_EQ(induction.extraction.size(), 5u);
  EXPECT_TRUE(induction.extraction.Contains(Name("LULLABY LANE")));
}

TEST_F(LrInductorTest, SingletonLearnsLongDelimiters) {
  NodeSet labels({Name("WOODLAND FURNITURE")});
  Induction induction = inductor_.Induce(pages_, labels);
  // The delimiters are maximally specific: only nodes in the same
  // "second record" position can match; here only the label itself
  // (page 2's second record differs in preceding text).
  EXPECT_TRUE(induction.extraction.Contains(labels[0]));
  EXPECT_LE(induction.extraction.size(), 2u);
}

TEST_F(LrInductorTest, MixedLabelsOverGeneralize) {
  // A name plus an address: common delimiters degrade toward ">"/"<",
  // matching many text nodes — the paper's over-generalization effect.
  NodeSet labels({Name("PORTER FURNITURE"), Name("123 MAIN ST.")});
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_GT(induction.extraction.size(), 5u);
}

TEST_F(LrInductorTest, ExtractionMatchesWrapperReapplication) {
  NodeSet labels(
      {Name("PORTER FURNITURE"), Name("KIDDIE WORLD CENTER")});
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_EQ(induction.wrapper->Extract(pages_), induction.extraction);
}

TEST_F(LrInductorTest, ContextCapRespected) {
  LrInductor capped(/*max_context=*/4);
  NodeSet labels({Name("PORTER FURNITURE")});
  Induction induction = capped.Induce(pages_, labels);
  const auto* wrapper = dynamic_cast<const LrWrapper*>(induction.wrapper.get());
  ASSERT_NE(wrapper, nullptr);
  EXPECT_LE(wrapper->left().size(), 4u);
  EXPECT_LE(wrapper->right().size(), 4u);
}

TEST_F(LrInductorTest, AttributesSeparateLabels) {
  NodeSet labels(
      {Name("PORTER FURNITURE"), Name("KIDDIE WORLD CENTER"),
       Name("123 MAIN ST.")});
  std::vector<AttrHandle> attrs = inductor_.Attributes(pages_, labels);
  ASSERT_FALSE(attrs.empty());
  // Some attribute must split names from the address.
  bool separated = false;
  for (AttrHandle attr : attrs) {
    for (const NodeSet& group : inductor_.Subdivide(pages_, labels, attr)) {
      if (group.size() == 2 && group.Contains(Name("PORTER FURNITURE")) &&
          group.Contains(Name("KIDDIE WORLD CENTER"))) {
        separated = true;
      }
    }
  }
  EXPECT_TRUE(separated);
}

TEST_F(LrInductorTest, SubdivisionGroupsShareContext) {
  NodeSet all = pages_.AllTextNodes();
  std::vector<AttrHandle> attrs = inductor_.Attributes(pages_, all);
  ASSERT_FALSE(attrs.empty());
  // Every subdivision group is a subset of the input.
  for (AttrHandle attr : attrs) {
    size_t covered = 0;
    for (const NodeSet& group : inductor_.Subdivide(pages_, all, attr)) {
      EXPECT_TRUE(group.IsSubsetOf(all));
      covered += group.size();
    }
    EXPECT_LE(covered, all.size());  // Drop-outs allowed, no duplication.
  }
}

TEST_F(LrInductorTest, EmptyDelimitersMatchEverything) {
  // Construct labels with nothing in common: fall back to (l="", r="")
  // which matches every text node — maximal over-generalization.
  PageSet page;
  page.AddPage(testing::MustParse("<a>x1</a><b>y2</b><i>z3</i>"));
  NodeSet labels = page.AllTextNodes();
  Induction induction = inductor_.Induce(page, labels);
  EXPECT_EQ(induction.extraction.size(), 3u);
}

TEST_F(LrInductorTest, ToStringAbbreviatesLongDelimiters) {
  NodeSet labels({Name("WOODLAND FURNITURE")});
  Induction induction = inductor_.Induce(pages_, labels);
  EXPECT_LE(induction.wrapper->ToString().size(), 120u);
}

TEST_F(LrInductorTest, AddPageRenewsCachedViewsAndScans) {
  const std::string record = "<p><u>ACME</u></p><p><u>ZENITH</u></p>";
  PageSet pages;
  pages.AddPage(testing::MustParse(record));
  NodeSet labels(FindText(pages, "ACME"));
  labels.Insert(FindText(pages, "ZENITH")[0]);
  Induction before = inductor_.Induce(pages, labels);
  EXPECT_EQ(before.extraction.size(), 2u);

  // The grown page set must not be served the one-page views or scan.
  pages.AddPage(testing::MustParse("<div><p><u>ORBIT</u></p></div>"));
  Induction after = inductor_.Induce(pages, labels);
  EXPECT_EQ(before.wrapper->ToString(), after.wrapper->ToString());
  EXPECT_EQ(after.extraction.size(), 3u);
  EXPECT_TRUE(after.extraction.Contains(FindText(pages, "ORBIT")[0]));
  EXPECT_EQ(after.extraction, after.wrapper->Extract(pages));
}

/// Forwards to an inductor and records every label subset it is asked to
/// induce on.
class RecordingInductor : public WrapperInductor {
 public:
  explicit RecordingInductor(const WrapperInductor* base) : base_(base) {}
  Induction Induce(const PageSet& pages, const NodeSet& labels) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      subsets_.push_back(labels);
    }
    return base_->Induce(pages, labels);
  }
  std::string Name() const override { return base_->Name(); }
  std::vector<NodeSet> subsets() const { return subsets_; }

 private:
  const WrapperInductor* base_;
  mutable std::mutex mu_;
  mutable std::vector<NodeSet> subsets_;
};

TEST(LrInductorMemoTest, WarmScanMemoMatchesFreshInductor) {
  datasets::DealersConfig config;
  config.num_sites = 4;
  config.pages_per_site = 4;
  datasets::Dataset dealers = datasets::MakeDealers(config);
  PageSet evict;  // Inducing here drops this thread's cached scans.
  evict.AddPage(testing::MustParse("<p>x</p>"));
  size_t checked = 0;
  for (const datasets::SiteData& data : dealers.sites) {
    const NodeSet& labels = data.annotations.at("name");
    if (labels.empty()) continue;
    const PageSet& pages = data.site.pages;
    LrInductor inductor;
    RecordingInductor recording(&inductor);
    EnumerateBottomUp(recording, pages, labels);
    std::vector<NodeSet> subsets = recording.subsets();
    ASSERT_FALSE(subsets.empty());

    // Warm this thread's memo with every subset, then read every subset
    // back from it.
    for (const NodeSet& subset : subsets) inductor.Induce(pages, subset);
    std::vector<Induction> warm;
    for (const NodeSet& subset : subsets) {
      warm.push_back(inductor.Induce(pages, subset));
    }
    // Each reference call runs on an empty memo.
    for (size_t i = 0; i < subsets.size(); ++i) {
      LrInductor().Induce(evict, evict.AllTextNodes());
      Induction fresh = LrInductor().Induce(pages, subsets[i]);
      ASSERT_EQ(warm[i].extraction, fresh.extraction)
          << data.site.name << " subset " << subsets[i].ToString();
      ASSERT_EQ(warm[i].wrapper->ToString(), fresh.wrapper->ToString());
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace ntw::core
