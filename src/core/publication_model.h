#ifndef NTW_CORE_PUBLICATION_MODEL_H_
#define NTW_CORE_PUBLICATION_MODEL_H_

#include <vector>

#include "common/result.h"
#include "core/label.h"
#include "stats/kde.h"

namespace ntw::core {

/// Record segmentation and list features of the web publication model
/// (Sec. 6). Pages are viewed as pre-order token sequences with every text
/// node replaced by <#text>; the nodes of X act as record boundaries; the
/// segments between consecutive boundaries are the records.

/// One record segment: interned structural tokens (tag names and #text).
using Segment = std::vector<int>;

/// A page set flattened once to its pre-order structural tokens, so that
/// many candidate extractions over the same pages can be segmented
/// without re-walking the DOMs. Token ids: 0 is #text; tags are interned
/// in page order, then pre-order, starting at 1. Holds no reference to
/// the pages it was built from.
class FlattenedPages {
 public:
  explicit FlattenedPages(const PageSet& pages);

  /// Extracts record segments for X. Text nodes belonging to
  /// `typed_sets[t]` get the distinct token -(t+1) (the lowest t wins) so
  /// multi-type alignment (Appendix A) can require type positions to
  /// match. Segmentation boundaries come from typed_sets[0]. Pages with
  /// fewer than two boundary nodes contribute no segments; references to
  /// non-text nodes or outside the pages are ignored.
  std::vector<Segment> SegmentRecords(
      const std::vector<const NodeSet*>& typed_sets) const;

  /// Single-type form.
  std::vector<Segment> SegmentRecords(const NodeSet& x) const {
    return SegmentRecords(std::vector<const NodeSet*>{&x});
  }

 private:
  struct Page {
    std::vector<int> tokens;
    /// Token position of each text node by pre-order index; -1 for other
    /// nodes.
    std::vector<int> text_position;
  };

  /// Token positions on page `p` of the text nodes in `set`, ascending.
  std::vector<size_t> TextPositions(const NodeSet& set, size_t p) const;

  std::vector<Page> pages_;
};

/// FlattenedPages(pages).SegmentRecords(typed_sets), for one-off use.
std::vector<Segment> SegmentRecords(const PageSet& pages,
                                    const std::vector<const NodeSet*>& typed_sets);

/// Convenience overload for single-type extraction.
std::vector<Segment> SegmentRecords(const PageSet& pages, const NodeSet& x);

/// The two list features of Sec. 6.1.
struct ListFeatures {
  /// Median over segment pairs of the number of #text tokens in the
  /// longest common substring — approximates the per-record schema size.
  double schema_size = 0.0;
  /// Maximum pairwise edit distance between segments (capped).
  double alignment = 0.0;
  int segment_count = 0;
};

/// Computes both features from the segments. Pair sampling is
/// deterministic: all pairs for small lists, a fixed adjacent+strided
/// sample for large ones. Distances are capped at `alignment_cap`.
ListFeatures ComputeListFeatures(const std::vector<Segment>& segments,
                                 int alignment_cap = 128);

/// P(X): the product of per-feature densities learned from sample
/// websites' ground-truth lists via kernel density estimation (Sec. 6.1).
class PublicationModel {
 public:
  /// Fits the feature distributions from training feature vectors.
  static Result<PublicationModel> Fit(const std::vector<ListFeatures>& sample);

  /// Fit with explicit KDE options (bandwidth ablations).
  static Result<PublicationModel> Fit(
      const std::vector<ListFeatures>& sample,
      const stats::KernelDensity::Options& kde_options);

  /// log P(X) for an extraction's features.
  double LogProb(const ListFeatures& features) const;

  /// Convenience: segment + featurize + score in one call (single type).
  double LogProb(const PageSet& pages, const NodeSet& x) const;

  const stats::KernelDensity& schema_kde() const { return schema_kde_; }
  const stats::KernelDensity& alignment_kde() const { return alignment_kde_; }

 private:
  PublicationModel(stats::KernelDensity schema_kde,
                   stats::KernelDensity alignment_kde)
      : schema_kde_(std::move(schema_kde)),
        alignment_kde_(std::move(alignment_kde)) {}

  stats::KernelDensity schema_kde_;
  stats::KernelDensity alignment_kde_;
};

}  // namespace ntw::core

#endif  // NTW_CORE_PUBLICATION_MODEL_H_
