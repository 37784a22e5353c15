#ifndef NTW_HTML_SCAN_H_
#define NTW_HTML_SCAN_H_

#include <cstddef>
#include <string_view>

namespace ntw::html::scan {

/// Vectorized byte-class scanning for the tokenizer and the streaming
/// flattener hot loops. Each Find* returns the index of the first byte at
/// or after `from` belonging to the function's class, or
/// std::string_view::npos when the rest of the input is clean.
///
/// The implementation is chosen once per process: SSE2 on x86-64 (baseline,
/// no CPUID probe needed), NEON on aarch64, a table-driven scalar loop
/// everywhere else. Setting NTW_NO_SIMD=1 in the environment forces the
/// scalar loop at startup — the CI jobs use it to keep the portable path
/// green — and ForceScalar() flips the same switch at runtime for tests
/// and benchmarks. Every implementation returns identical indices by
/// contract (tests/scan_test.cc sweeps them against each other).

/// True when a vector implementation was compiled in (SSE2/NEON target).
bool SimdCompiled();

/// True when the vector implementation is the active dispatch target
/// (compiled in, not disabled by NTW_NO_SIMD=1 or ForceScalar(true)).
bool SimdEnabled();

/// "sse2", "neon" or "scalar" — the active dispatch target.
const char* ImplementationName();

/// Test/bench hook: `true` forces the scalar loops regardless of compile
/// target; `false` restores the default (env-controlled) choice.
void ForceScalar(bool force);

/// First occurrence of byte `c` (memchr).
size_t FindByte(std::string_view s, size_t from, char c);

/// First '<' or '&' — the text-scan classes the tokenizer cares about.
size_t FindLtOrAmp(std::string_view s, size_t from);

/// First '<', '&' or ASCII whitespace — the streaming flattener's
/// verbatim-text validator class. Always the scalar loop: hits are a few
/// bytes apart in text, where the vector loop measured slower.
size_t FindTextSpecial(std::string_view s, size_t from);

/// First '>' or ASCII whitespace — ends a bare attribute value.
size_t FindWsOrGt(std::string_view s, size_t from);

/// First '=', '>', '/' or ASCII whitespace — ends an attribute name.
size_t FindAttrNameEnd(std::string_view s, size_t from);

namespace internal {
/// The raw scalar implementations, callable regardless of dispatch state
/// so the unit tests can compare them against the vector paths.
size_t FindLtOrAmpScalar(std::string_view s, size_t from);
size_t FindTextSpecialScalar(std::string_view s, size_t from);
size_t FindWsOrGtScalar(std::string_view s, size_t from);
size_t FindAttrNameEndScalar(std::string_view s, size_t from);
/// The raw vector implementations; only callable when SimdCompiled().
size_t FindLtOrAmpSimd(std::string_view s, size_t from);
size_t FindWsOrGtSimd(std::string_view s, size_t from);
size_t FindAttrNameEndSimd(std::string_view s, size_t from);
}  // namespace internal

}  // namespace ntw::html::scan

#endif  // NTW_HTML_SCAN_H_
