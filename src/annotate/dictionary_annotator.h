#ifndef NTW_ANNOTATE_DICTIONARY_ANNOTATOR_H_
#define NTW_ANNOTATE_DICTIONARY_ANNOTATOR_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "annotate/annotator.h"

namespace ntw::annotate {

/// Dictionary-based annotator (Sec. 1/7): labels a text node when it
/// contains an exact mention of a dictionary entry. Matching is
/// case-insensitive with word boundaries ("Office Depot" matches inside
/// "An Office Depot store" but not inside "OfficeDepotify"), mirroring the
/// Yahoo! Local business-name annotator whose errors "stem from business
/// names matching street addresses and product descriptions".
struct DictionaryAnnotatorOptions {
  /// When non-zero, only the first `max_pages` pages are annotated (the
  /// paper annotates a bounded sample per site); 0 = all pages.
  size_t max_pages = 0;
  /// Minimum entry length considered; guards against one-word entries
  /// matching everything.
  size_t min_entry_length = 3;
};

class DictionaryAnnotator : public Annotator {
 public:
  using Options = DictionaryAnnotatorOptions;

  DictionaryAnnotator(std::vector<std::string> entries,
                      Options options = Options());

  core::NodeSet Annotate(const core::PageSet& pages) const override;
  std::string Name() const override { return "dictionary"; }

  /// Entries kept after the `min_entry_length` filter, duplicates included.
  size_t size() const { return size_; }

  /// True when `text` contains an exact mention of some entry: the same
  /// predicate as ContainsWordIgnoreCase(text, entry) for any one entry,
  /// answered with one hash probe per (word start, distinct entry length).
  bool Matches(const std::string& text) const;

 private:
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Case-folded non-empty entries, and their distinct lengths ascending.
  std::unordered_set<std::string, StringHash, std::equal_to<>> folded_;
  std::vector<size_t> lengths_;
  size_t size_ = 0;
  Options options_;
};

}  // namespace ntw::annotate

#endif  // NTW_ANNOTATE_DICTIONARY_ANNOTATOR_H_
