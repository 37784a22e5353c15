#ifndef NTW_CORE_EXTRACTION_ROUTER_H_
#define NTW_CORE_EXTRACTION_ROUTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiled_wrapper.h"
#include "core/fused_matcher.h"
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
  /// Off: ScanSite never scans, every attribute routes alone (--no-fused).
  bool fused = true;
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
    /// True when a site's fused scan produced the values (ScanSite).
    bool fused() const { return fused_; }
    const std::vector<std::string_view>& values() const {
      return values_ != nullptr ? *values_ : interpreted_views_;
    }

   private:
    friend class ExtractionRouter;
    Page() = default;

    ExtractRoute route_ = ExtractRoute::kInterpreter;
    StreamingFallback fallback_ = StreamingFallback::kNone;
    html::StreamPage::Tier tier_ = html::StreamPage::Tier::kVerbatim;
    bool fused_ = false;
    // Null on the interpreter route, whose views live in this object.
    const std::vector<std::string_view>* values_ = nullptr;
    std::optional<StreamBufferPool::Lease> stream_;
    std::vector<std::string> interpreted_;
    std::vector<std::string_view> interpreted_views_;
  };

  /// One page of a site, scanned once by the site's fused automaton when
  /// there is one and the fused route is on; Extract() then serves each
  /// covered attribute from the scan and routes the rest alone. Pages it
  /// returns from the scan point into it: keep it alive while they are
  /// read.
  class SiteScan {
   public:
    /// True when the automaton ran over the page.
    bool scanned() const { return fused_ != nullptr; }
    html::StreamPage::Tier tier() const { return tier_; }
    /// Attribute `name`'s values: from the scan when it covers `name`,
    /// otherwise ExtractionRouter::Extract over the same page.
    Page Extract(std::string_view name, const Wrapper& wrapper,
                 const CompiledWrapper* compiled);

   private:
    friend class ExtractionRouter;
    SiteScan(const ExtractionRouter* router, std::string_view page)
        : router_(router), input_(page) {}

    const ExtractionRouter* router_;
    std::string_view input_;
    const FusedSiteExtractor* fused_ = nullptr;
    html::StreamPage::Tier tier_ = html::StreamPage::Tier::kVerbatim;
    std::optional<StreamBufferPool::Lease> page_;
    std::optional<FusedScratchPool::Lease> scratch_;
  };

  explicit ExtractionRouter(Options options = {}) : options_(options) {}

  /// Whether ScanSite can use a fused extractor; callers skip the
  /// repository's FindFused lookup when it cannot.
  bool fused_enabled() const { return options_.fast_path && options_.fused; }

  /// Routes one page through `wrapper`'s cheapest path; `compiled` is
  /// the wrapper's plan, or null when it has none.
  Page Extract(const Wrapper& wrapper, const CompiledWrapper* compiled,
               std::string_view page) const;

  /// Scans `page` with `fused` (one site's automaton) when fused_enabled()
  /// and `fused` is non-null; otherwise the scan is empty and every
  /// attribute routes alone.
  SiteScan ScanSite(const FusedSiteExtractor* fused,
                    std::string_view page) const;

 private:
  Options options_;
  mutable StreamBufferPool stream_buffers_;
  mutable FusedScratchPool fused_scratch_;
};

}  // namespace ntw::core

#endif  // NTW_CORE_EXTRACTION_ROUTER_H_
