#ifndef NTW_CORE_ENUMERATE_H_
#define NTW_CORE_ENUMERATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/wrapper.h"

namespace ntw::core {

/// One enumerated candidate: the wrapper, its extraction X on the training
/// pages, and the label subset that produced it (for diagnostics).
struct Candidate {
  WrapperPtr wrapper;
  NodeSet extraction;
  NodeSet trained_on;
  uint64_t fingerprint = 0;  // extraction.Fingerprint().
};

/// The wrapper space W(L) = {φ(L') : ∅ ≠ L' ⊆ L}, deduplicated by
/// extraction output, plus instrumentation.
///
/// `inductor_calls` counts *logical* calls — the number the theorems bound
/// (k·|L| for BottomUp, 2^|L|−1 for Naive, k for TopDown) — and is
/// identical to what the pre-memoization serial engine reported.
/// `cache_misses` counts the inductor invocations that actually ran after
/// memoization (the distinct label subsets); `cache_hits` the replays.
/// Always: cache_hits + cache_misses == inductor_calls, and all three are
/// deterministic at every thread count.
struct WrapperSpace {
  std::vector<Candidate> candidates;
  int64_t inductor_calls = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;

  size_t size() const { return candidates.size(); }
};

/// Exhaustive baseline: calls φ on every non-empty subset of L (2^|L|−1
/// calls). `max_labels` guards against blow-up; enumeration fails with
/// InvalidArgument when |L| exceeds it. Subsets are induced in parallel
/// blocks on the global thread pool and merged in mask order, so the
/// result is byte-identical to a serial run.
Result<WrapperSpace> EnumerateNaive(const WrapperInductor& inductor,
                                    const PageSet& pages, const NodeSet& labels,
                                    size_t max_labels = 20);

/// Algorithm 1 (BottomUp): blackbox enumeration for well-behaved inductors.
/// Expands closed label subsets φ̆(s) = φ(s) ∩ L smallest-first; makes at
/// most k·|L| inductor calls where k = |W(L)| (Theorem 2). The engine
/// processes one frontier round at a time: every (s, label) expansion of
/// the round is probed concurrently through a memoizing InductionCache and
/// merged into the space in deterministic (set, label) index order. The
/// set of subsets ever expanded is the closure of ∅ under φ̆ and is
/// order-independent, so the enumerated space, the call accounting and the
/// cache totals are identical at every thread count.
WrapperSpace EnumerateBottomUp(const WrapperInductor& inductor,
                               const PageSet& pages, const NodeSet& labels);

/// Algorithm 2 (TopDown): enumeration for feature-based inductors via
/// repeated subdivision; makes exactly k inductor calls (Theorem 3).
WrapperSpace EnumerateTopDown(const FeatureBasedInductor& inductor,
                              const PageSet& pages, const NodeSet& labels);

/// Which enumeration algorithm an end-to-end run should use.
enum class EnumAlgorithm {
  kBottomUp,
  kTopDown,
  kNaive,
};

const char* EnumAlgorithmName(EnumAlgorithm algo);

/// Dispatches on `algo`. TopDown requires a FeatureBasedInductor and
/// reports FailedPrecondition otherwise.
Result<WrapperSpace> Enumerate(EnumAlgorithm algo,
                               const WrapperInductor& inductor,
                               const PageSet& pages, const NodeSet& labels);

}  // namespace ntw::core

#endif  // NTW_CORE_ENUMERATE_H_
