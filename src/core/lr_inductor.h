#ifndef NTW_CORE_LR_INDUCTOR_H_
#define NTW_CORE_LR_INDUCTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/wrapper.h"
#include "text/char_view.h"

namespace ntw::core {

/// The WIEN LR wrapper inductor (Kushmerick et al., Sec. 5): the document
/// is a character sequence; the learned rule is a pair (l, r) where l is
/// the longest common string preceding every labeled item and r the
/// longest common string following it. A node is extracted when its left
/// context ends with l and its right context starts with r.
///
/// Feature-based form (Theorem 4 discussion): attributes L1..Lk / R1..Rk
/// where Lk's value is the k characters immediately preceding the node.
/// The feature space is never materialized; Subdivide() groups nodes by
/// their k-character context directly.
///
/// Contexts are capped at `max_context` characters. The cap only matters
/// for near-singleton label sets (where the true LR delimiter is the whole
/// page prefix); with ≥2 labels the common context is naturally short.
class LrInductor : public FeatureBasedInductor {
 public:
  explicit LrInductor(size_t max_context = 256)
      : max_context_(max_context) {}

  Induction Induce(const PageSet& pages, const NodeSet& labels) const override;
  std::string Name() const override { return "LR"; }

  std::vector<AttrHandle> Attributes(const PageSet& pages,
                                     const NodeSet& labels) const override;
  std::vector<NodeSet> Subdivide(const PageSet& pages, const NodeSet& s,
                                 AttrHandle attr) const override;

  size_t max_context() const { return max_context_; }

 private:
  /// Per-PageSet state, built lazily and cached per *thread* (the
  /// enumeration engine calls Induce from pool workers; a thread-local
  /// cache needs no locking and each worker amortizes it across its share
  /// of the subsets):
  ///   views  the flattened CharView of every page;
  ///   scans  Induce's span scan memoized by the learned (l, r) rule. The
  ///          scan is a pure function of the views and the rule, and many
  ///          label subsets learn the same rule (BottomUp makes ~10 calls
  ///          per distinct rule).
  /// Both are valid exactly as long as the views are: the cache is keyed
  /// by PageSet::id(), which is unique per instance lifetime and renewed
  /// by AddPage(), and is rebuilt whole when the id changes, so a recreated
  /// or grown page set is never served stale views or scans. The returned
  /// reference is valid until the same thread calls CacheFor() with a
  /// different PageSet.
  struct PageCache;
  static PageCache& CacheFor(const PageSet& pages);

  size_t max_context_;
};

/// The learned (l, r) rule. Exposed so examples/benches can inspect it.
class LrWrapper : public Wrapper {
 public:
  LrWrapper(std::string left, std::string right)
      : left_(std::move(left)), right_(std::move(right)) {}

  NodeSet Extract(const PageSet& pages) const override;
  std::string ToString() const override;

  const std::string& left() const { return left_; }
  const std::string& right() const { return right_; }

 private:
  std::string left_;
  std::string right_;
};

}  // namespace ntw::core

#endif  // NTW_CORE_LR_INDUCTOR_H_
