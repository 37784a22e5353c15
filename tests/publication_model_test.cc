#include "core/publication_model.h"

#include <unordered_map>

#include "common/rng.h"
#include "datasets/dealers.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace ntw::core {
namespace {

using ::ntw::testing::FigureOnePages;
using ::ntw::testing::FindText;
using ::ntw::testing::MustParse;

NodeSet Names(const PageSet& pages) {
  NodeSet set;
  for (const char* name :
       {"PORTER FURNITURE", "WOODLAND FURNITURE", "HELLER HOME CENTER",
        "KIDDIE WORLD CENTER", "LULLABY LANE"}) {
    for (const NodeRef& ref : FindText(pages, name)) set.Insert(ref);
  }
  return set;
}

TEST(SegmentationTest, SegmentsBetweenConsecutiveBoundaries) {
  PageSet pages = FigureOnePages();
  NodeSet names = Names(pages);
  std::vector<Segment> segments = SegmentRecords(pages, names);
  // Page 1 has 3 names → 2 segments; page 2 has 2 names → 1 segment.
  ASSERT_EQ(segments.size(), 3u);
  // Identical record structure ⇒ identical segments.
  EXPECT_EQ(segments[0], segments[1]);
  EXPECT_EQ(segments[0], segments[2]);
}

TEST(SegmentationTest, SegmentStartsAtBoundaryToken) {
  PageSet pages = FigureOnePages();
  std::vector<Segment> segments = SegmentRecords(pages, Names(pages));
  ASSERT_FALSE(segments.empty());
  // The boundary text node itself is the first token (a typed token < 0
  // for set 0... single-type: token -1).
  EXPECT_EQ(segments[0].front(), -1);
}

TEST(SegmentationTest, SegmentContainsRecordTextNodes) {
  PageSet pages = FigureOnePages();
  std::vector<Segment> segments = SegmentRecords(pages, Names(pages));
  int text_tokens = 0;
  for (int token : segments[0]) {
    if (token <= 0) ++text_tokens;
  }
  // name + street + city + "Map" = 4 text nodes per record.
  EXPECT_EQ(text_tokens, 4);
}

TEST(SegmentationTest, FewerThanTwoBoundariesNoSegments) {
  PageSet pages = FigureOnePages();
  NodeSet one(FindText(pages, "PORTER FURNITURE"));
  EXPECT_TRUE(SegmentRecords(pages, one).empty());
}

TEST(SegmentationTest, ShiftedBoundariesPreserveSimilarity) {
  // Sec. 6: using mid-record elements as boundaries yields cyclically
  // shifted records whose structural similarity is preserved.
  PageSet pages = FigureOnePages();
  NodeSet streets;
  for (const char* street :
       {"201 HWY. 30 WEST", "123 MAIN ST.", "514 4TH STREET",
        "1899 W. SAN CARLOS ST.", "532 SAN MATEO AVE."}) {
    for (const NodeRef& ref : FindText(pages, street)) streets.Insert(ref);
  }
  std::vector<Segment> shifted = SegmentRecords(pages, streets);
  ASSERT_EQ(shifted.size(), 3u);
  EXPECT_EQ(shifted[0], shifted[1]);
  ListFeatures names_features =
      ComputeListFeatures(SegmentRecords(pages, Names(pages)));
  ListFeatures shifted_features = ComputeListFeatures(shifted);
  EXPECT_EQ(shifted_features.alignment, names_features.alignment);
  EXPECT_EQ(shifted_features.schema_size, names_features.schema_size);
}

TEST(SegmentationTest, MultiTypeTokensDistinguished) {
  PageSet pages = FigureOnePages();
  NodeSet names = Names(pages);
  NodeSet streets;
  for (const NodeRef& ref : FindText(pages, "201 HWY. 30 WEST")) {
    streets.Insert(ref);
  }
  std::vector<Segment> segments =
      SegmentRecords(pages, {&names, &streets});
  ASSERT_FALSE(segments.empty());
  // Type-0 boundary token -1 opens each segment; the street node in the
  // first page-1 segment is typed -2.
  EXPECT_EQ(segments[0].front(), -1);
  bool saw_typed_street = false;
  for (int token : segments[0]) {
    if (token == -2) saw_typed_street = true;
  }
  EXPECT_TRUE(saw_typed_street);
}

/// Reference segmentation: walks every DOM again for each call, interning
/// tags as it goes and testing every text node against every typed set —
/// the form FlattenedPages replaces.
std::vector<Segment> SegmentByDomWalk(
    const PageSet& pages, const std::vector<const NodeSet*>& typed_sets) {
  std::vector<Segment> segments;
  if (typed_sets.empty() || typed_sets[0] == nullptr) return segments;
  std::unordered_map<std::string, int> tag_ids;
  for (size_t p = 0; p < pages.size(); ++p) {
    std::vector<int> tokens;
    std::vector<size_t> boundaries;
    std::vector<const html::Node*> stack = {pages.page(p).root()};
    while (!stack.empty()) {
      const html::Node* node = stack.back();
      stack.pop_back();
      if (node->is_text()) {
        int token = 0;
        NodeRef ref{static_cast<int>(p), node->preorder_index()};
        for (size_t t = 0; t < typed_sets.size(); ++t) {
          if (typed_sets[t] != nullptr && typed_sets[t]->Contains(ref)) {
            token = -static_cast<int>(t) - 1;
            break;
          }
        }
        if (typed_sets[0]->Contains(ref)) boundaries.push_back(tokens.size());
        tokens.push_back(token);
      } else if (node->is_element()) {
        auto [it, inserted] = tag_ids.emplace(
            node->tag(), static_cast<int>(tag_ids.size()) + 1);
        tokens.push_back(it->second);
      }
      for (size_t i = node->children().size(); i > 0; --i) {
        stack.push_back(node->children()[i - 1].get());
      }
    }
    for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
      segments.emplace_back(
          tokens.begin() + static_cast<long>(boundaries[b]),
          tokens.begin() + static_cast<long>(boundaries[b + 1]));
    }
  }
  return segments;
}

/// A random node set over `pages`: mostly text nodes, plus element nodes,
/// references past the last page or node, and negative indices.
NodeSet RandomRefs(const PageSet& pages, Rng* rng) {
  std::vector<NodeRef> refs;
  double density = rng->NextDouble() * 0.5;
  for (size_t p = 0; p < pages.size(); ++p) {
    for (const html::Node* node : pages.page(p).text_nodes()) {
      if (rng->NextBernoulli(density)) {
        refs.push_back(NodeRef{static_cast<int>(p), node->preorder_index()});
      }
    }
  }
  size_t extra = rng->NextBounded(6);
  for (size_t i = 0; i < extra; ++i) {
    int page = static_cast<int>(rng->NextBounded(pages.size() + 2)) - 1;
    int node = static_cast<int>(rng->NextBounded(1000)) - 2;
    refs.push_back(NodeRef{page, node});  // Any kind, or out of range.
  }
  return NodeSet(std::move(refs));
}

TEST(SegmentationTest, FlattenOnceMatchesPerCallDomWalk) {
  datasets::DealersConfig config;
  config.num_sites = 3;
  config.pages_per_site = 4;
  datasets::Dataset dealers = datasets::MakeDealers(config);
  std::vector<const PageSet*> page_sets;
  PageSet figure_one = FigureOnePages();
  page_sets.push_back(&figure_one);
  for (const datasets::SiteData& data : dealers.sites) {
    page_sets.push_back(&data.site.pages);
  }

  Rng rng(16);
  for (const PageSet* pages : page_sets) {
    const FlattenedPages flat(*pages);
    for (int trial = 0; trial < 60; ++trial) {
      // One to three types; a missing type may be null past type 0.
      std::vector<NodeSet> sets;
      size_t types = 1 + rng.NextBounded(3);
      for (size_t t = 0; t < types; ++t) {
        sets.push_back(RandomRefs(*pages, &rng));
      }
      std::vector<const NodeSet*> typed;
      for (size_t t = 0; t < types; ++t) {
        bool drop = t > 0 && rng.NextBernoulli(0.2);
        typed.push_back(drop ? nullptr : &sets[t]);
      }
      std::vector<Segment> expected = SegmentByDomWalk(*pages, typed);
      EXPECT_EQ(flat.SegmentRecords(typed), expected) << "trial " << trial;
      EXPECT_EQ(SegmentRecords(*pages, typed), expected) << "trial " << trial;
      EXPECT_EQ(flat.SegmentRecords(sets[0]),
                SegmentByDomWalk(*pages, {&sets[0]}))
          << "trial " << trial;
    }
  }
}

TEST(ListFeaturesTest, PerfectListHasZeroAlignment) {
  PageSet pages = FigureOnePages();
  ListFeatures features =
      ComputeListFeatures(SegmentRecords(pages, Names(pages)));
  EXPECT_EQ(features.alignment, 0.0);
  EXPECT_EQ(features.schema_size, 4.0);
  EXPECT_EQ(features.segment_count, 3);
}

TEST(ListFeaturesTest, AllTextWrapperHasSchemaOne) {
  // X = every text node ⇒ single-step segments ⇒ schema 1 (Sec. 3's X3).
  PageSet pages = FigureOnePages();
  ListFeatures features =
      ComputeListFeatures(SegmentRecords(pages, pages.AllTextNodes()));
  EXPECT_LE(features.schema_size, 2.0);
  EXPECT_GE(features.segment_count, 15);
}

TEST(ListFeaturesTest, BadlyAlignedListScoresWorse) {
  // X2-style list (names + streets as one type): alternating gap pattern.
  PageSet pages = FigureOnePages();
  NodeSet mixed = Names(pages);
  for (const char* street : {"201 HWY. 30 WEST", "123 MAIN ST."}) {
    for (const NodeRef& ref : FindText(pages, street)) mixed.Insert(ref);
  }
  ListFeatures bad = ComputeListFeatures(SegmentRecords(pages, mixed));
  ListFeatures good =
      ComputeListFeatures(SegmentRecords(pages, Names(pages)));
  EXPECT_GT(bad.alignment, good.alignment);
}

TEST(ListFeaturesTest, EmptySegments) {
  ListFeatures features = ComputeListFeatures({});
  EXPECT_EQ(features.schema_size, 0.0);
  EXPECT_EQ(features.alignment, 0.0);
  EXPECT_EQ(features.segment_count, 0);
}

TEST(ListFeaturesTest, SingleSegmentCountsItsTextNodes) {
  std::vector<Segment> segments = {{-1, 3, 0, 4, 0}};
  ListFeatures features = ComputeListFeatures(segments);
  EXPECT_EQ(features.schema_size, 3.0);  // Tokens <= 0: -1, 0, 0.
  EXPECT_EQ(features.segment_count, 1);
}

TEST(ListFeaturesTest, AlignmentCapped) {
  std::vector<Segment> segments;
  segments.push_back(Segment(300, 1));
  segments.push_back(Segment(300, 2));
  ListFeatures features = ComputeListFeatures(segments, /*alignment_cap=*/64);
  EXPECT_EQ(features.alignment, 64.0);
}

TEST(PublicationModelTest, FitRequiresData) {
  EXPECT_FALSE(PublicationModel::Fit({}).ok());
}

TEST(PublicationModelTest, PrefersListsLikeTraining) {
  std::vector<ListFeatures> training;
  for (double schema : {4.0, 3.0, 4.0, 5.0, 4.0}) {
    ListFeatures f;
    f.schema_size = schema;
    f.alignment = 2.0;
    training.push_back(f);
  }
  Result<PublicationModel> model = PublicationModel::Fit(training);
  ASSERT_TRUE(model.ok());

  ListFeatures like_training;
  like_training.schema_size = 4.0;
  like_training.alignment = 2.0;
  ListFeatures degenerate;  // Whole-table / singleton wrappers.
  degenerate.schema_size = 0.0;
  degenerate.alignment = 0.0;
  ListFeatures misaligned;
  misaligned.schema_size = 4.0;
  misaligned.alignment = 40.0;
  EXPECT_GT(model->LogProb(like_training), model->LogProb(degenerate));
  EXPECT_GT(model->LogProb(like_training), model->LogProb(misaligned));
}

TEST(PublicationModelTest, EndToEndLogProbOnPages) {
  PageSet pages = FigureOnePages();
  std::vector<ListFeatures> training = {
      ComputeListFeatures(SegmentRecords(pages, Names(pages)))};
  Result<PublicationModel> model = PublicationModel::Fit(training);
  ASSERT_TRUE(model.ok());
  double good = model->LogProb(pages, Names(pages));
  double bad = model->LogProb(pages, pages.AllTextNodes());
  EXPECT_GT(good, bad);
}

}  // namespace
}  // namespace ntw::core
