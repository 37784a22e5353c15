#include "core/ranker.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ntw::core {

const char* RankerVariantName(RankerVariant variant) {
  switch (variant) {
    case RankerVariant::kFull:
      return "NTW";
    case RankerVariant::kAnnotationOnly:
      return "NTW-L";
    case RankerVariant::kListOnly:
      return "NTW-X";
  }
  return "Unknown";
}

std::vector<ScoredCandidate> Ranker::Rank(const WrapperSpace& space,
                                          const PageSet& pages,
                                          const NodeSet& labels) const {
  obs::Span span("rank");
  static obs::Counter* const runs =
      obs::Registry::Global().GetCounter("ntw.rank.runs");
  static obs::Counter* const candidates =
      obs::Registry::Global().GetCounter("ntw.rank.candidates");
  runs->Add(1);
  candidates->Add(static_cast<int64_t>(space.candidates.size()));
  // Candidate scores are independent; compute them in parallel into
  // per-index slots (deterministic: identical doubles at any thread
  // count), then sort serially. Every candidate is segmented from one
  // flattening of the pages.
  const FlattenedPages flat(pages);
  std::vector<ScoredCandidate> scored(space.candidates.size());
  ThreadPool::Global().ParallelFor(space.candidates.size(), [&](size_t i) {
    const Candidate& candidate = space.candidates[i];
    ScoredCandidate& sc = scored[i];
    sc.candidate_index = i;
    sc.log_annotation = annotation_.LogProb(labels, candidate.extraction);
    sc.log_list = publication_.LogProb(
        ComputeListFeatures(flat.SegmentRecords(candidate.extraction)));
    switch (variant_) {
      case RankerVariant::kFull:
        sc.total = sc.log_annotation + sc.log_list;
        break;
      case RankerVariant::kAnnotationOnly:
        sc.total = sc.log_annotation;
        break;
      case RankerVariant::kListOnly:
        sc.total = sc.log_list;
        break;
    }
  });
  std::stable_sort(
      scored.begin(), scored.end(),
      [&space](const ScoredCandidate& a, const ScoredCandidate& b) {
        if (a.total != b.total) return a.total > b.total;
        size_t size_a = space.candidates[a.candidate_index].extraction.size();
        size_t size_b = space.candidates[b.candidate_index].extraction.size();
        if (size_a != size_b) return size_a > size_b;
        // Exact score ties between equal-sized lists (e.g. cyclically
        // shifted columns under NTW-X) carry no information; break them
        // by content fingerprint — deterministic but neutral, so a
        // variant cannot systematically luck into the right column via
        // enumeration order.
        uint64_t fp_a = space.candidates[a.candidate_index].fingerprint;
        uint64_t fp_b = space.candidates[b.candidate_index].fingerprint;
        if (fp_a != fp_b) return fp_a < fp_b;
        return a.candidate_index < b.candidate_index;
      });
  return scored;
}

Result<size_t> Ranker::Best(const WrapperSpace& space, const PageSet& pages,
                            const NodeSet& labels) const {
  if (space.candidates.empty()) {
    return Status::FailedPrecondition("empty wrapper space");
  }
  return Rank(space, pages, labels).front().candidate_index;
}

}  // namespace ntw::core
