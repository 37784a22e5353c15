#ifndef NTW_SERVE_SERVICE_H_
#define NTW_SERVE_SERVICE_H_

#include <chrono>
#include <string_view>

#include "common/thread_pool.h"
#include "core/extraction_router.h"
#include "obs/json.h"
#include "serve/http.h"
#include "serve/reinduce.h"
#include "serve/wrapper_repository.h"

namespace ntw::serve {

/// The daemon's endpoint logic, one pure function from request to
/// response so the transport (HttpServer) stays generic and the CLI can
/// reuse the exact same repository code path:
///
///   POST /extract?site=S&attribute=A   body = one HTML page
///     → {"schema":"ntw-serve-extract",...,"values":[...]}
///   POST /extract_batch?site=S&attribute=A   body = NDJSON, one
///     {"id":...,"html":...} object per line, fanned out with ParallelFor
///     → NDJSON, one {"index":..,"id":..,"values":[..]} line per input
///   GET /metrics   → the canonical ntw-metrics registry dump
///   GET /healthz   → 200 "ok"
///
/// Handle() is thread-safe and deterministic: identical request bytes
/// against an unchanged repository snapshot produce identical response
/// bytes, whatever the concurrency (the batch fan-out writes pre-sized
/// per-line slots that are joined in input order).
///
/// Extraction goes through core::ExtractionRouter, the router the crawl
/// and ntw_extract share: by default dom_free() plans (LR/HLRT —
/// DESIGN.md §12) stream over a StreamPage and streamable() XPath plans
/// run the fused tokenize→plan-execute machine, neither building a DOM;
/// entries without a plan, and degenerate XPath plans, go to the
/// heap-DOM interpreter. `fast_path = false` — the daemon's
/// --no-fast-path — sends every page to the interpreted
/// Wrapper::Extract path. Both routes are byte-identical by contract,
/// pinned by tests/fastpath_equivalence_test.cc,
/// tests/streaming_equivalence_test.cc and the ntw_loadgen cross-check.
///
/// Sharding (DESIGN.md §11): the daemon instantiates one ExtractService
/// per reactor shard, so each shard's requests reuse buffer pools no
/// other shard touches and account to per-shard metric stripes
/// (`Options::shard`). The repository is shared — reads go through its
/// wait-free epoch pin, never a lock.
struct ExtractServiceOptions {
  /// Off: every page goes to the heap-DOM interpreter.
  bool fast_path = true;
  /// Metric stripe this instance records into (the owning reactor's id).
  int shard = 0;
  /// Feed per-entry drift detectors after every extraction and enqueue
  /// re-induction repairs (DESIGN.md §13). Only effective when the
  /// service was constructed with a ReinduceWorker and the repository has
  /// a drift config installed.
  bool self_heal = true;
};

class ExtractService {
 public:
  using Options = ExtractServiceOptions;

  ExtractService(const WrapperRepository* repository, ThreadPool* pool,
                 Options options = {}, ReinduceWorker* reinducer = nullptr)
      : repository_(repository),
        pool_(pool),
        options_(options),
        reinducer_(reinducer),
        router_(core::ExtractionRouter::Options{
            .fast_path = options.fast_path}) {}

  HttpResponse Handle(const HttpRequest& request) const;

 private:
  HttpResponse Extract(const HttpRequest& request) const;
  HttpResponse ExtractBatch(const HttpRequest& request) const;
  /// `attribute=*`: every attribute of the site from one request body.
  HttpResponse ExtractMulti(const WrapperRepository::Snapshot& snapshot,
                            const std::string& site,
                            const HttpRequest& request) const;
  HttpResponse ExtractBatchMulti(const WrapperRepository::Snapshot& snapshot,
                                 const std::string& site,
                                 const HttpRequest& request) const;
  HttpResponse Driftz() const;
  void ExtractToJson(const WrapperRepository::Entry& entry,
                     const std::string& page_html,
                     obs::JsonWriter& json) const;
  /// Writes just the `[...]` value array for one entry (extraction +
  /// metrics + drift feed); the caller has already written the key.
  void ExtractArray(const WrapperRepository::Entry& entry,
                    const std::string& page_html, obs::JsonWriter& json) const;
  /// Writes one routed page's `[...]` array and feeds its counters and
  /// drift detector; `start` is when its extraction began.
  void WritePage(const WrapperRepository::Entry& entry,
                 const std::string& page_html,
                 const core::ExtractionRouter::Page& page,
                 std::chrono::steady_clock::time_point start,
                 obs::JsonWriter& json) const;
  /// The route and fallback-reason counters of one page.
  void CountRoute(const core::ExtractionRouter::Page& page) const;
  void CountTier(html::StreamPage::Tier tier) const;
  /// Writes the `"attributes":{"a":[...],...}` member for every attribute
  /// in `entries` (one site's, ascending). The page's StreamPage is built
  /// once for all the dom_free plans; the rest route per attribute.
  void ExtractAllToJson(
      const std::vector<std::pair<std::string, const WrapperRepository::Entry*>>&
          entries,
      const std::string& page_html, obs::JsonWriter& json) const;
  /// Scores one extraction against the entry's drift detector and hands
  /// a full retention ring to the re-induction worker. No-op (one null
  /// check) when self-healing is off.
  void ObserveDrift(const WrapperRepository::Entry& entry,
                    const std::string& page_html,
                    const std::string_view* values, size_t count) const;

  const WrapperRepository* repository_;
  ThreadPool* pool_;
  Options options_;
  ReinduceWorker* reinducer_ = nullptr;
  // The extraction router and its buffer pools (internally synchronized,
  // so Handle() stays const and thread-safe). One per service instance —
  // per shard in the sharded daemon.
  core::ExtractionRouter router_;
};

}  // namespace ntw::serve

#endif  // NTW_SERVE_SERVICE_H_
