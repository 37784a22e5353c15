#include "core/induction_cache.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ntw::core {
namespace {

struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;

  static CacheMetrics& Get() {
    static CacheMetrics m{
        obs::Registry::Global().GetCounter("ntw.cache.hits"),
        obs::Registry::Global().GetCounter("ntw.cache.misses"),
    };
    return m;
  }
};

}  // namespace

Induction InstrumentedInduce(const WrapperInductor& inductor,
                             const PageSet& pages, const NodeSet& labels) {
  static obs::Counter* const calls =
      obs::Registry::Global().GetCounter("ntw.induce.calls");
  static obs::Histogram* const latency =
      obs::Registry::Global().GetHistogram("ntw.induce.ns");
  obs::Span span("induce");
  calls->Add(1);
  auto start = std::chrono::steady_clock::now();
  Induction induction = inductor.Induce(pages, labels);
  induction.fingerprint = induction.extraction.Fingerprint();
  latency->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count());
  return induction;
}

Induction InductionCache::GetOrInduce(const WrapperInductor& inductor,
                                      const PageSet& pages,
                                      const NodeSet& labels) {
  uint64_t fp = labels.Fingerprint();
  std::promise<Induction> promise;
  std::shared_future<Induction> result;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Entry>& bucket = entries_[fp];
    for (const Entry& entry : bucket) {
      if (entry.labels == labels) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        CacheMetrics::Get().hits->Add(1);
        result = entry.result;
        break;
      }
    }
    if (!result.valid()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      CacheMetrics::Get().misses->Add(1);
      result = promise.get_future().share();
      bucket.push_back(Entry{labels, result});
      owner = true;
    }
  }
  if (owner) {
    // Single flight: this thread won the insert race and owns the call.
    try {
      promise.set_value(InstrumentedInduce(inductor, pages, labels));
    } catch (...) {
      promise.set_exception(std::current_exception());
      throw;
    }
  }
  return result.get();  // Copies out of the cache (waits if in flight).
}

size_t InductionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [fp, bucket] : entries_) total += bucket.size();
  return total;
}

}  // namespace ntw::core
