#ifndef NTW_CORE_FUSED_MATCHER_H_
#define NTW_CORE_FUSED_MATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiled_wrapper.h"

namespace ntw::core {

/// The fused multi-attribute delimiter machinery (DESIGN.md §15): all of a
/// site's LR/HLRT delimiter strings (lefts, heads, tails) are folded into
/// one Aho–Corasick automaton, so one pass over the flattened page stream
/// yields the occurrence lists every attribute's matcher needs — instead
/// of one BMH scan of the page per attribute. The automaton is built in
/// process from the site's compiled plans — on both repository backends,
/// once per site per snapshot — into a fixed-layout, offset-based blob.
///
/// Byte-identity contract: for every bound attribute, the fused extraction
/// returns exactly the bytes CompiledWrapper::ExtractStreaming returns for
/// the same input — AC enumerates the same occurrence set, in the same
/// ascending order, as the per-attribute BMH scans (tests/fused_extract_
/// test.cc pins it, as do the loadgen gate and crawl byte-identity).

/// A site gets a fused extractor only when it covers at least this many
/// attributes: with one, the scan is one pattern through an Aho–Corasick
/// automaton, slower than that attribute's own BMH scan (DESIGN.md §15).
inline constexpr size_t kMinFusedAttributes = 2;

/// Sentinel pattern id for "this plan has no such delimiter" (e.g. an LR
/// wrapper with an empty left, or an HLRT with no tail).
inline constexpr uint32_t kNoPattern = 0xFFFFFFFFu;

/// Builds the serialized automaton blob. Patterns are deduplicated; empty
/// patterns are rejected (delimiter-free matching needs no occurrences —
/// callers simply bind kNoPattern).
class AcBuilder {
 public:
  /// Registers a pattern and returns its id (stable across duplicates).
  /// Returns kNoPattern for an empty pattern.
  uint32_t AddPattern(std::string_view pattern);

  size_t pattern_count() const { return patterns_.size(); }

  /// Serializes the automaton (goto trie, fail links, flattened output
  /// sets, 256-way root dispatch table) into the offset-based layout
  /// FusedAutomaton reads. Empty string when there are no patterns.
  std::string Build() const;

 private:
  std::vector<std::string> patterns_;
};

/// Read-only view over a serialized automaton blob from AcBuilder::Build
/// (valid by construction; blobs never come from outside the process).
/// The view does not own the blob.
class FusedAutomaton {
 public:
  FusedAutomaton() = default;
  explicit FusedAutomaton(std::string_view blob) : blob_(blob) {}

  bool empty() const { return blob_.empty(); }
  uint32_t pattern_count() const;
  std::string_view pattern(uint32_t id) const;

  /// One pass over `stream`: appends the *begin* offset of every
  /// occurrence of pattern `p` to (*occurrences)[p], in ascending order —
  /// exactly the positions StringSearcher::Find would enumerate.
  /// `occurrences` is resized to pattern_count() and cleared per pattern.
  void Scan(std::string_view stream,
            std::vector<std::vector<size_t>>* occurrences) const;

 private:
  std::string_view blob_;
};

/// Reusable per-request scratch for fused extraction (occurrence lists
/// plus per-attribute value slots); pool it like the page buffers.
struct FusedScratch {
  std::vector<std::vector<size_t>> occurrences;
  std::vector<std::vector<std::string_view>> values;

  void Clear() {
    // Keep capacity: steady state re-scans into the same vectors.
    for (auto& list : occurrences) list.clear();
    for (auto& list : values) list.clear();
  }
};

using FusedScratchPool = BufferPool<FusedScratch>;

/// One site's fused extractor: the automaton blob plus, per attribute,
/// the dom_free compiled plan and its delimiter-pattern bindings.
/// Immutable and thread-safe after construction.
class FusedSiteExtractor {
 public:
  struct Attribute {
    std::string name;
    std::shared_ptr<const CompiledWrapper> plan;  // dom_free() only
    uint32_t left_pattern = kNoPattern;
    uint32_t head_pattern = kNoPattern;
    uint32_t tail_pattern = kNoPattern;
  };

  /// Builds automaton + bindings from a site's plans, keeping the
  /// dom_free ones (attributes end up sorted by name). Returns nullptr
  /// when fewer than kMinFusedAttributes plans are dom_free.
  static std::shared_ptr<const FusedSiteExtractor> Build(
      std::vector<std::pair<std::string,
                            std::shared_ptr<const CompiledWrapper>>> plans);

  /// Scans the page once and extracts every attribute:
  /// scratch.values[i] receives attributes()[i]'s values, byte-identical
  /// to plan->ExtractStreaming on the same input. Views point into
  /// `buffer` (or the raw input on the zero-copy tier).
  void ExtractAllStreaming(std::string_view raw_page,
                           StreamPageBuffer& buffer,
                           FusedScratch& scratch) const;

  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Index of `name` in attributes(), or npos.
  size_t FindAttribute(std::string_view name) const;

  const std::string& blob() const { return blob_; }

 private:
  FusedSiteExtractor(std::string blob, std::vector<Attribute> attributes);

  std::string blob_;  // Owned serialized automaton.
  FusedAutomaton automaton_;
  std::vector<Attribute> attributes_;  // Sorted by name.
};

}  // namespace ntw::core

#endif  // NTW_CORE_FUSED_MATCHER_H_
