#include "core/lr_inductor.h"

#include <map>
#include <unordered_map>

#include "common/strings.h"

namespace ntw::core {
namespace {

/// φ(∅): extracts nothing.
class EmptyLrWrapper : public Wrapper {
 public:
  NodeSet Extract(const PageSet&) const override { return NodeSet(); }
  std::string ToString() const override { return "LR(empty)"; }
};

std::string Abbrev(const std::string& s) {
  constexpr size_t kMax = 40;
  if (s.size() <= kMax) return s;
  return s.substr(0, kMax / 2) + "..." + s.substr(s.size() - kMax / 2);
}

}  // namespace

NodeSet LrWrapper::Extract(const PageSet& pages) const {
  std::vector<NodeRef> out;
  for (size_t p = 0; p < pages.size(); ++p) {
    text::CharView view(pages.page(p));
    for (const text::TextSpan& span : view.spans()) {
      std::string_view before = view.Before(span, left_.size());
      std::string_view after = view.After(span, right_.size());
      if (before.size() == left_.size() && before == left_ &&
          after.size() == right_.size() && after == right_) {
        out.push_back(NodeRef{static_cast<int>(p),
                              span.node->preorder_index()});
      }
    }
  }
  return NodeSet(std::move(out));
}

std::string LrWrapper::ToString() const {
  return "LR(l='" + Abbrev(left_) + "', r='" + Abbrev(right_) + "')";
}

struct LrInductor::PageCache {
  uint64_t id = 0;  // PageSet ids start at 1, so 0 never matches.
  std::vector<text::CharView> views;
  /// Keyed by ScanKey(l, r).
  std::unordered_map<std::string, NodeSet> scans;

  static std::string ScanKey(const std::string& l, const std::string& r) {
    // The length prefix keeps ("ab", "c") and ("a", "bc") apart.
    std::string key = std::to_string(l.size());
    key += ':';
    key += l;
    key += r;
    return key;
  }
};

LrInductor::PageCache& LrInductor::CacheFor(const PageSet& pages) {
  thread_local PageCache cache;
  if (cache.id != pages.id()) {
    cache.views.clear();
    cache.scans.clear();
    cache.views.reserve(pages.size());
    for (size_t p = 0; p < pages.size(); ++p) {
      cache.views.emplace_back(pages.page(p));
    }
    cache.id = pages.id();
  }
  return cache;
}

Induction LrInductor::Induce(const PageSet& pages,
                             const NodeSet& labels) const {
  if (labels.empty()) {
    Induction result;
    result.wrapper = std::make_shared<EmptyLrWrapper>();
    return result;
  }
  PageCache& cache = CacheFor(pages);
  const std::vector<text::CharView>& views = cache.views;

  std::vector<std::string_view> befores;
  std::vector<std::string_view> afters;
  befores.reserve(labels.size());
  afters.reserve(labels.size());
  for (const NodeRef& ref : labels) {
    const text::CharView& view = views[static_cast<size_t>(ref.page)];
    const text::TextSpan* span = view.SpanForNode(ref.node);
    if (span == nullptr) continue;  // Non-text label: contributes nothing.
    befores.push_back(view.Before(*span, max_context_));
    afters.push_back(view.After(*span, max_context_));
  }

  Induction result;
  if (befores.empty()) {
    result.wrapper = std::make_shared<EmptyLrWrapper>();
    result.extraction = labels;
    return result;
  }
  auto wrapper = std::make_shared<LrWrapper>(
      text::LongestCommonSuffix(befores), text::LongestCommonPrefix(afters));
  const std::string& l = wrapper->left();
  const std::string& r = wrapper->right();
  auto [scan, inserted] =
      cache.scans.try_emplace(PageCache::ScanKey(l, r));
  if (inserted) {
    // Extraction over the cached views (avoids re-flattening every page).
    std::vector<NodeRef> out;
    for (size_t p = 0; p < views.size(); ++p) {
      const text::CharView& view = views[p];
      for (const text::TextSpan& span : view.spans()) {
        std::string_view before = view.Before(span, l.size());
        std::string_view after = view.After(span, r.size());
        if (before.size() == l.size() && before == l &&
            after.size() == r.size() && after == r) {
          out.push_back(NodeRef{static_cast<int>(p),
                                span.node->preorder_index()});
        }
      }
    }
    scan->second = NodeSet(std::move(out));
  }
  result.extraction = scan->second.Union(labels);
  result.wrapper = std::move(wrapper);
  return result;
}

std::vector<AttrHandle> LrInductor::Attributes(const PageSet& pages,
                                               const NodeSet& labels) const {
  if (labels.empty()) return {};
  const auto& views = CacheFor(pages).views;

  // Attributes are L1..Lk* / R1..Rk*, encoded as (k << 1) | side. k* is
  // the first length at which the label partition by k-character context
  // is all singletons: beyond it every further partition is a refinement
  // of singletons (possibly with boundary drop-outs), so no new subsets
  // can appear. Attributes whose partition (including the drop-out set)
  // is identical to the previous k's are skipped — they subdivide every
  // subset of the labels identically.
  auto partition_key = [&](bool left, size_t k, bool* all_singleton) {
    std::map<std::string, std::vector<NodeRef>> groups;
    std::string key;
    for (const NodeRef& ref : labels) {
      const text::CharView& view = views[static_cast<size_t>(ref.page)];
      const text::TextSpan* span = view.SpanForNode(ref.node);
      if (span == nullptr) continue;
      std::string_view ctx =
          left ? view.Before(*span, k) : view.After(*span, k);
      if (ctx.size() == k) {
        groups[std::string(ctx)].push_back(ref);
      } else {
        key += "!" + std::to_string(ref.page) + ":" + std::to_string(ref.node);
      }
    }
    *all_singleton = true;
    for (const auto& [ctx, refs] : groups) {
      key += "|";
      for (const NodeRef& ref : refs) {
        key += std::to_string(ref.page) + ":" + std::to_string(ref.node) + ",";
      }
      if (refs.size() > 1) *all_singleton = false;
    }
    return key;
  };

  std::vector<AttrHandle> attrs;
  for (int side = 0; side < 2; ++side) {
    bool left = side == 0;
    std::string prev_key;
    for (size_t k = 1; k <= max_context_; ++k) {
      bool all_singleton = false;
      std::string key = partition_key(left, k, &all_singleton);
      if (key != prev_key) {
        attrs.push_back(static_cast<AttrHandle>((k << 1) | (left ? 0 : 1)));
        prev_key = std::move(key);
      }
      if (all_singleton) break;
    }
  }
  return attrs;
}

std::vector<NodeSet> LrInductor::Subdivide(const PageSet& pages,
                                           const NodeSet& s,
                                           AttrHandle attr) const {
  const auto& views = CacheFor(pages).views;
  size_t k = static_cast<size_t>(attr) >> 1;
  bool left = (attr & 1) == 0;

  std::map<std::string, std::vector<NodeRef>> groups;
  for (const NodeRef& ref : s) {
    const text::CharView& view = views[static_cast<size_t>(ref.page)];
    const text::TextSpan* span = view.SpanForNode(ref.node);
    if (span == nullptr) continue;
    std::string_view ctx = left ? view.Before(*span, k) : view.After(*span, k);
    // A node closer than k characters to the page boundary lacks the
    // attribute Lk/Rk.
    if (ctx.size() != k) continue;
    groups[std::string(ctx)].push_back(ref);
  }
  std::vector<NodeSet> out;
  out.reserve(groups.size());
  for (auto& [ctx, refs] : groups) {
    out.push_back(NodeSet(std::move(refs)));
  }
  return out;
}

}  // namespace ntw::core
