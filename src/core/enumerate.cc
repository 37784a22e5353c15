#include "core/enumerate.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <unordered_set>

#include "common/thread_pool.h"
#include "core/induction_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ntw::core {
namespace {

/// Enumeration instruments. Updated during the serial merge phases only,
/// so they add nothing to the parallel induction hot path.
struct EnumMetrics {
  obs::Counter* runs;
  obs::Counter* inductor_calls;  // Logical calls (the theorems' count).
  obs::Histogram* labels;        // |L| per enumeration.
  obs::Histogram* space_size;    // |W(L)| per enumeration.
  obs::Histogram* rounds;        // BottomUp frontier rounds.

  static EnumMetrics& Get() {
    static EnumMetrics m{
        obs::Registry::Global().GetCounter("ntw.enumerate.runs"),
        obs::Registry::Global().GetCounter("ntw.enumerate.inductor_calls"),
        obs::Registry::Global().GetHistogram("ntw.enumerate.labels"),
        obs::Registry::Global().GetHistogram("ntw.enumerate.space_size"),
        obs::Registry::Global().GetHistogram("ntw.enumerate.rounds"),
    };
    return m;
  }

  void Finish(const WrapperSpace& space, const NodeSet& label_set) {
    runs->Add(1);
    inductor_calls->Add(space.inductor_calls);
    labels->Record(static_cast<int64_t>(label_set.size()));
    space_size->Record(static_cast<int64_t>(space.size()));
  }
};

/// Hashes a NodeSet by its Fingerprint(); equality is the set's own.
struct NodeSetHash {
  size_t operator()(const NodeSet& set) const { return set.Fingerprint(); }
};

/// Deduplicates candidates by extraction output. Two wrappers are the same
/// element of W(L) iff they extract the same node set (Sec. 6: a wrapper's
/// identity is its output). Candidates are hashed by the fingerprint their
/// Induction carries and compared by extraction, so two distinct sets with
/// one fingerprint are both kept.
class CandidateCollector {
 public:
  CandidateCollector() = default;
  // distinct_'s functors point at this object's candidates_.
  CandidateCollector(const CandidateCollector&) = delete;
  CandidateCollector& operator=(const CandidateCollector&) = delete;

  /// `induction` must come from InstrumentedInduce (its fingerprint set).
  void Add(Induction induction, const NodeSet& trained_on) {
    if (induction.extraction.empty()) return;  // φ(∅)-like results.
    candidates_.push_back(Candidate{std::move(induction.wrapper),
                                    std::move(induction.extraction),
                                    NodeSet(), induction.fingerprint});
    if (distinct_.insert(candidates_.size() - 1).second) {
      candidates_.back().trained_on = trained_on;
    } else {
      candidates_.pop_back();
    }
  }

  std::vector<Candidate> Take() { return std::move(candidates_); }

 private:
  /// Hash and equality over indices into candidates_.
  struct ByFingerprint {
    const std::vector<Candidate>* candidates;
    size_t operator()(size_t i) const { return (*candidates)[i].fingerprint; }
  };
  struct SameExtraction {
    const std::vector<Candidate>* candidates;
    bool operator()(size_t a, size_t b) const {
      return (*candidates)[a].extraction == (*candidates)[b].extraction;
    }
  };

  std::vector<Candidate> candidates_;
  std::unordered_set<size_t, ByFingerprint, SameExtraction> distinct_{
      0, ByFingerprint{&candidates_}, SameExtraction{&candidates_}};
};

}  // namespace

Result<WrapperSpace> EnumerateNaive(const WrapperInductor& inductor,
                                    const PageSet& pages,
                                    const NodeSet& labels, size_t max_labels) {
  if (labels.size() > max_labels) {
    return Status::InvalidArgument(
        "naive enumeration over " + std::to_string(labels.size()) +
        " labels would need 2^" + std::to_string(labels.size()) + " calls");
  }
  obs::Span span("enumerate.naive");
  WrapperSpace space;
  CandidateCollector collector;
  const auto& refs = labels.refs();
  uint64_t last_mask = (1ULL << labels.size()) - 1;
  ThreadPool& pool = ThreadPool::Global();

  // Every mask is a distinct subset, so memoization cannot hit; induce in
  // parallel blocks and merge in mask order (byte-identical to serial).
  // Blocks bound the in-flight Induction memory to O(block) instead of
  // O(2^|L|).
  uint64_t block = static_cast<uint64_t>(pool.threads()) * 64;
  if (block < 256) block = 256;
  std::vector<NodeSet> subset_slots(block);
  std::vector<Induction> result_slots(block);
  for (uint64_t base = 1; base <= last_mask; base += block) {
    uint64_t count = std::min<uint64_t>(block, last_mask - base + 1);
    pool.ParallelFor(static_cast<size_t>(count), [&](size_t j) {
      uint64_t mask = base + j;
      std::vector<NodeRef> subset;
      for (size_t i = 0; i < refs.size(); ++i) {
        if (mask & (1ULL << i)) subset.push_back(refs[i]);
      }
      subset_slots[j] = NodeSet(std::move(subset));
      result_slots[j] = InstrumentedInduce(inductor, pages, subset_slots[j]);
    });
    for (uint64_t j = 0; j < count; ++j) {
      collector.Add(std::move(result_slots[j]), subset_slots[j]);
      ++space.inductor_calls;
    }
  }
  space.cache_misses = space.inductor_calls;
  space.candidates = collector.Take();
  EnumMetrics::Get().Finish(space, labels);
  return space;
}

namespace {

/// Size-then-lexicographic order over label subsets — the smallest-first
/// expansion order of Algorithm 1 step 4, also used to keep each round's
/// frontier deterministic.
struct SizeOrder {
  bool operator()(const NodeSet& a, const NodeSet& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return std::lexicographical_compare(
        a.refs().begin(), a.refs().end(), b.refs().begin(), b.refs().end(),
        [](const NodeRef& x, const NodeRef& y) { return x < y; });
  }
};

}  // namespace

WrapperSpace EnumerateBottomUp(const WrapperInductor& inductor,
                               const PageSet& pages, const NodeSet& labels) {
  obs::Span span("enumerate.bottomup");
  WrapperSpace space;
  CandidateCollector collector;
  InductionCache cache;
  ThreadPool& pool = ThreadPool::Global();
  int64_t rounds = 0;

  // The set of closed subsets ever expanded is the closure of {∅} under
  // s ↦ φ̆(s ∪ {ℓ}) and does not depend on expansion order, so instead of
  // popping one smallest set at a time (Algorithm 1 step 4) the engine
  // expands the whole frontier of a round concurrently. Z_round holds the
  // sets discovered in the previous round, smallest-first.
  std::set<NodeSet, SizeOrder> ever_queued;  // Never expand a set twice.
  std::vector<NodeSet> frontier;
  frontier.push_back(NodeSet());
  ever_queued.insert(NodeSet());

  struct Expansion {
    NodeSet expanded;  // s ∪ {ℓ}.
    Induction induction;
    NodeSet closure;  // φ̆(s ∪ {ℓ}) = φ(s ∪ {ℓ}) ∩ L.
  };

  while (!frontier.empty()) {
    ++rounds;
    // All (s, label) expansion tasks of this round, in (set, label) order.
    std::vector<std::pair<const NodeSet*, const NodeRef*>> tasks;
    for (const NodeSet& s : frontier) {
      for (const NodeRef& label : labels) {
        if (!s.Contains(label)) tasks.emplace_back(&s, &label);
      }
    }

    std::vector<Expansion> results(tasks.size());
    pool.ParallelFor(tasks.size(), [&](size_t i) {
      Expansion& out = results[i];
      out.expanded = *tasks[i].first;
      out.expanded.Insert(*tasks[i].second);
      out.induction = cache.GetOrInduce(inductor, pages, out.expanded);
      out.closure = out.induction.extraction.Intersect(labels);  // Step 8.
    });

    // Deterministic merge: collect candidates and discover the next
    // frontier in task index order, exactly as a serial pass would.
    std::set<NodeSet, SizeOrder> next;
    for (Expansion& r : results) {
      ++space.inductor_calls;                         // Step 7 (logical).
      collector.Add(std::move(r.induction), r.expanded);  // Step 9.
      if (!(r.closure == labels) && !ever_queued.count(r.closure)) {
        ever_queued.insert(r.closure);  // Step 10.
        next.insert(std::move(r.closure));
      }
    }
    frontier.assign(next.begin(), next.end());
  }

  space.cache_hits = cache.hits();
  space.cache_misses = cache.misses();
  space.candidates = collector.Take();
  EnumMetrics::Get().Finish(space, labels);
  EnumMetrics::Get().rounds->Record(rounds);
  return space;
}

WrapperSpace EnumerateTopDown(const FeatureBasedInductor& inductor,
                              const PageSet& pages, const NodeSet& labels) {
  obs::Span span("enumerate.topdown");
  WrapperSpace space;
  if (labels.empty()) return space;

  // Z starts as {L}; each attribute subdivides every set currently in Z
  // (Algorithm 2). Sets created while processing attribute a are constant
  // on a, so the per-attribute snapshot loop is sufficient. The sets live
  // in `seen` (whose elements never move); Z lists them in discovery
  // order.
  std::unordered_set<NodeSet, NodeSetHash> seen = {labels};
  std::vector<const NodeSet*> z = {&*seen.begin()};

  std::vector<AttrHandle> attrs = inductor.Attributes(pages, labels);
  for (AttrHandle attr : attrs) {
    size_t snapshot_size = z.size();
    for (size_t i = 0; i < snapshot_size; ++i) {
      for (NodeSet& group : inductor.Subdivide(pages, *z[i], attr)) {
        if (group.empty()) continue;
        auto [it, inserted] = seen.insert(std::move(group));
        if (inserted) z.push_back(&*it);
      }
    }
  }

  // Final induction pass: every set in Z is distinct, so the calls are
  // independent — induce them in parallel and merge in Z order
  // (byte-identical to the serial loop).
  CandidateCollector collector;
  std::vector<Induction> inductions(z.size());
  ThreadPool::Global().ParallelFor(z.size(), [&](size_t i) {
    inductions[i] = InstrumentedInduce(inductor, pages, *z[i]);
  });
  for (size_t i = 0; i < z.size(); ++i) {
    collector.Add(std::move(inductions[i]), *z[i]);
    ++space.inductor_calls;
  }
  space.cache_misses = space.inductor_calls;
  space.candidates = collector.Take();
  EnumMetrics::Get().Finish(space, labels);
  return space;
}

const char* EnumAlgorithmName(EnumAlgorithm algo) {
  switch (algo) {
    case EnumAlgorithm::kBottomUp:
      return "BottomUp";
    case EnumAlgorithm::kTopDown:
      return "TopDown";
    case EnumAlgorithm::kNaive:
      return "Naive";
  }
  return "Unknown";
}

Result<WrapperSpace> Enumerate(EnumAlgorithm algo,
                               const WrapperInductor& inductor,
                               const PageSet& pages, const NodeSet& labels) {
  switch (algo) {
    case EnumAlgorithm::kBottomUp:
      return EnumerateBottomUp(inductor, pages, labels);
    case EnumAlgorithm::kTopDown: {
      const auto* feature_based =
          dynamic_cast<const FeatureBasedInductor*>(&inductor);
      if (feature_based == nullptr) {
        return Status::FailedPrecondition(
            "TopDown requires a feature-based inductor; " + inductor.Name() +
            " is not one");
      }
      return EnumerateTopDown(*feature_based, pages, labels);
    }
    case EnumAlgorithm::kNaive:
      return EnumerateNaive(inductor, pages, labels);
  }
  return Status::Internal("unknown enumeration algorithm");
}

}  // namespace ntw::core
