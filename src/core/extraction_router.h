#ifndef NTW_CORE_EXTRACTION_ROUTER_H_
#define NTW_CORE_EXTRACTION_ROUTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiled_wrapper.h"
#include "core/wrapper.h"

namespace ntw::core {

/// The path that extracted one page (DESIGN.md §12).
enum class ExtractRoute : uint8_t {
  kStreamingDelimiter,  // LR/HLRT plan over a StreamPage, no DOM.
  kStreamingXPath,      // streamable() XPath plan off the tokenizer.
  kInterpreter,         // Heap DOM + Wrapper::Extract.
};

/// Why a page left the streaming routes; kNone on them. The three
/// reasons partition the interpreter pages.
enum class StreamingFallback : uint8_t {
  kNone,
  kDisabled,           // fast_path off.
  kNoPlan,             // No compiled plan for the wrapper.
  kUnstreamableXPath,  // XPath plan outside streamable()'s bit budget.
};

struct ExtractionRouterOptions {
  /// Off: every page goes to the interpreter (--no-fast-path).
  bool fast_path = true;
};

/// The one extraction router every caller shares — serving, the crawl and
/// the offline CLI. Extract() picks one of two routes:
///   streaming   for dom_free() LR/HLRT plans and streamable() XPath plans,
///   interpreter for everything else: no plan, fast_path off, or an XPath
///               plan outside streamable()'s bit budget (0 or ≥64 steps).
/// Both routes return the same bytes in the same order — the
/// byte-identity contract of DESIGN.md §10/§12. Callers keep only their
/// output format, counters and drift feed.
///
/// Thread-safe: the buffer pools are internally synchronized, and each
/// returned Page leases its own buffers. Give each shard its own router
/// so shards never share a pool.
class ExtractionRouter {
 public:
  using Options = ExtractionRouterOptions;

  /// One extracted page: the route taken and the values, which point
  /// into the leased buffers (or into the input bytes on the zero-copy
  /// tier) — consume them before the Page or the input goes away.
  class Page {
   public:
    ExtractRoute route() const { return route_; }
    StreamingFallback fallback() const { return fallback_; }
    /// StreamPage tier; meaningful for kStreamingDelimiter only (the
    /// XPath executor never builds a StreamPage).
    html::StreamPage::Tier tier() const { return tier_; }
    /// True when the values came from a StreamPage an earlier attribute
    /// of the same SiteScan built: this page cost no build of its own.
    bool shared_stream() const { return shared_stream_; }
    const std::vector<std::string_view>& values() const {
      return values_ != nullptr ? *values_ : views_;
    }

   private:
    friend class ExtractionRouter;
    Page() = default;

    ExtractRoute route_ = ExtractRoute::kInterpreter;
    StreamingFallback fallback_ = StreamingFallback::kNone;
    html::StreamPage::Tier tier_ = html::StreamPage::Tier::kVerbatim;
    bool shared_stream_ = false;
    // Null where the views live in this object: on the interpreter route
    // and on a SiteScan's delimiter pages.
    const std::vector<std::string_view>* values_ = nullptr;
    std::optional<StreamBufferPool::Lease> stream_;
    std::vector<std::string> interpreted_;
    std::vector<std::string_view> views_;
  };

  /// One page extracted for several attributes of its site. The page's
  /// StreamPage is built once, on the first dom_free() plan Extract() is
  /// given, and every dom_free() plan after it runs its own matcher over
  /// the same stream and spans; other attributes route alone through
  /// ExtractionRouter::Extract. Pages it returns may point into the
  /// shared StreamPage: keep the scan alive while they are read.
  class SiteScan {
   public:
    /// True once a dom_free() plan built the page's StreamPage.
    bool built() const { return page_.has_value(); }
    /// One attribute's values: over the shared StreamPage for a dom_free()
    /// plan, otherwise ExtractionRouter::Extract over the same page.
    Page Extract(const Wrapper& wrapper, const CompiledWrapper* compiled);

   private:
    friend class ExtractionRouter;
    SiteScan(const ExtractionRouter* router, std::string_view page)
        : router_(router), input_(page) {}

    const ExtractionRouter* router_;
    std::string_view input_;
    std::optional<StreamBufferPool::Lease> page_;
  };

  explicit ExtractionRouter(Options options = {}) : options_(options) {}

  /// Routes one page through `wrapper`'s cheapest path; `compiled` is
  /// the wrapper's plan, or null when it has none.
  Page Extract(const Wrapper& wrapper, const CompiledWrapper* compiled,
               std::string_view page) const;

  /// Starts a SiteScan of `page`; nothing is built until a dom_free()
  /// attribute asks for it.
  SiteScan ScanSite(std::string_view page) const {
    return SiteScan(this, page);
  }

 private:
  Options options_;
  mutable StreamBufferPool stream_buffers_;
};

}  // namespace ntw::core

#endif  // NTW_CORE_EXTRACTION_ROUTER_H_
