#ifndef NTW_CORE_LABEL_H_
#define NTW_CORE_LABEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "html/dom.h"

namespace ntw::core {

/// Reference to one node in a page set: (page index, pre-order index).
/// This is the vector-position representation Â = ⟨A1,…,An⟩ of Sec. 2.1,
/// concatenated across pages.
struct NodeRef {
  int page = 0;
  int node = 0;

  bool operator==(const NodeRef& other) const {
    return page == other.page && node == other.node;
  }
  bool operator<(const NodeRef& other) const {
    return page != other.page ? page < other.page : node < other.node;
  }
};

struct NodeRefHash {
  size_t operator()(const NodeRef& ref) const {
    return std::hash<int64_t>()(
        (static_cast<int64_t>(ref.page) << 32) ^
        static_cast<int64_t>(static_cast<uint32_t>(ref.node)));
  }
};

/// A sorted, duplicate-free set of node references. Both label sets L and
/// wrapper extractions X are NodeSets; the ranking model (Sec. 6) only ever
/// needs set intersections/differences over these.
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(std::vector<NodeRef> refs) : refs_(std::move(refs)) {
    Normalize();
  }

  static NodeSet Of(std::initializer_list<NodeRef> refs) {
    return NodeSet(std::vector<NodeRef>(refs));
  }

  bool empty() const { return refs_.empty(); }
  size_t size() const { return refs_.size(); }
  const std::vector<NodeRef>& refs() const { return refs_; }
  const NodeRef& operator[](size_t i) const { return refs_[i]; }
  auto begin() const { return refs_.begin(); }
  auto end() const { return refs_.end(); }

  bool Contains(const NodeRef& ref) const {
    return std::binary_search(refs_.begin(), refs_.end(), ref);
  }

  /// Inserts a reference, keeping the set sorted and unique.
  void Insert(const NodeRef& ref);

  bool operator==(const NodeSet& other) const {
    return refs_ == other.refs_;
  }

  bool IsSubsetOf(const NodeSet& other) const;

  NodeSet Union(const NodeSet& other) const;
  NodeSet Intersect(const NodeSet& other) const;
  NodeSet Difference(const NodeSet& other) const;

  size_t IntersectSize(const NodeSet& other) const;

  /// Stable fingerprint used to deduplicate wrappers by their output.
  uint64_t Fingerprint() const;

  /// Debug rendering like "{(0,3),(0,9),(1,3)}".
  std::string ToString() const;

 private:
  void Normalize() {
    std::sort(refs_.begin(), refs_.end());
    refs_.erase(std::unique(refs_.begin(), refs_.end()), refs_.end());
  }

  std::vector<NodeRef> refs_;
};

/// An immutable collection of parsed pages from one website — the unit a
/// wrapper is learned for. Documents must be finalized.
///
/// Every PageSet instance carries a process-unique id() so caches keyed by
/// page set (e.g. LrInductor's flattened views) can detect that an address
/// now belongs to a different object — address + shape alone cannot, since
/// a recreated page set often has both in common with its predecessor.
/// AddPage() renews the id too: a grown page set is a different one to
/// every such cache.
class PageSet {
 public:
  PageSet() : id_(NextId()) {}
  explicit PageSet(std::vector<html::Document> pages)
      : id_(NextId()), pages_(std::move(pages)) {}

  PageSet(PageSet&& other) noexcept
      : id_(NextId()), pages_(std::move(other.pages_)) {}
  PageSet& operator=(PageSet&& other) noexcept {
    id_ = NextId();
    pages_ = std::move(other.pages_);
    return *this;
  }

  void AddPage(html::Document page) {
    pages_.push_back(std::move(page));
    id_ = NextId();
  }

  /// Unique across all PageSet instances ever constructed; moves and
  /// AddPage() renew it.
  uint64_t id() const { return id_; }

  size_t size() const { return pages_.size(); }
  bool empty() const { return pages_.empty(); }
  const html::Document& page(size_t i) const { return pages_[i]; }

  /// Resolves a reference to its node; returns nullptr if out of range.
  const html::Node* Resolve(const NodeRef& ref) const;

  /// All text nodes across pages, in (page, pre-order) order — the
  /// candidate universe every wrapper extracts from.
  NodeSet AllTextNodes() const;

  /// Total number of text nodes across all pages.
  size_t TextNodeCount() const;

 private:
  static uint64_t NextId();

  uint64_t id_;
  std::vector<html::Document> pages_;
};

}  // namespace ntw::core

#endif  // NTW_CORE_LABEL_H_
