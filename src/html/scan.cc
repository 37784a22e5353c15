#include "html/scan.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__) || defined(__x86_64__)
#define NTW_SCAN_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define NTW_SCAN_NEON 1
#include <arm_neon.h>
#endif

namespace ntw::html::scan {
namespace {

constexpr size_t kNpos = std::string_view::npos;

constexpr bool IsWsByte(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// 256-entry membership table per byte class; the scalar loops test one
// byte per iteration against it.
struct ClassTable {
  bool is_member[256];
};

constexpr ClassTable MakeTable(bool with_whitespace,
                               std::string_view extras) {
  ClassTable table{};
  for (int i = 0; i < 256; ++i) {
    table.is_member[i] =
        with_whitespace && IsWsByte(static_cast<unsigned char>(i));
  }
  for (char c : extras) {
    table.is_member[static_cast<unsigned char>(c)] = true;
  }
  return table;
}

constexpr ClassTable kLtOrAmp = MakeTable(false, "<&");
constexpr ClassTable kTextSpecial = MakeTable(true, "<&");
constexpr ClassTable kWsOrGt = MakeTable(true, ">");
constexpr ClassTable kAttrNameEnd = MakeTable(true, "=>/");

size_t ScalarScan(const ClassTable& table, std::string_view s, size_t from) {
  for (size_t i = from; i < s.size(); ++i) {
    if (table.is_member[static_cast<unsigned char>(s[i])]) return i;
  }
  return kNpos;
}

#if defined(NTW_SCAN_SSE2)

// ASCII whitespace is ' ' plus the contiguous control range 9..13
// (\t \n \v \f \r): one compare for the space, a shifted signed range
// check for the rest. Bytes >= 0x80 wrap to large positive values after
// the subtraction and fail the upper bound, so the signed compares are
// safe for arbitrary input.
inline __m128i WsMask(__m128i v) {
  __m128i space = _mm_cmpeq_epi8(v, _mm_set1_epi8(' '));
  __m128i shifted = _mm_sub_epi8(v, _mm_set1_epi8(9));
  __m128i in_range =
      _mm_and_si128(_mm_cmpgt_epi8(shifted, _mm_set1_epi8(-1)),
                    _mm_cmplt_epi8(shifted, _mm_set1_epi8(5)));
  return _mm_or_si128(space, in_range);
}

template <typename MaskFn>
size_t SimdScan(const ClassTable& table, std::string_view s, size_t from,
                MaskFn mask_of) {
  const char* data = s.data();
  size_t n = s.size();
  size_t i = from;
  for (; i + 16 <= n; i += 16) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    int mask = _mm_movemask_epi8(mask_of(v));
    if (mask != 0) {
      return i + static_cast<size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  return ScalarScan(table, s, i);  // < 16-byte tail.
}

size_t LtOrAmpSimd(std::string_view s, size_t from) {
  return SimdScan(kLtOrAmp, s, from, [](__m128i v) {
    return _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('<')),
                        _mm_cmpeq_epi8(v, _mm_set1_epi8('&')));
  });
}

size_t WsOrGtSimd(std::string_view s, size_t from) {
  return SimdScan(kWsOrGt, s, from, [](__m128i v) {
    return _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('>')), WsMask(v));
  });
}

size_t AttrNameEndSimd(std::string_view s, size_t from) {
  return SimdScan(kAttrNameEnd, s, from, [](__m128i v) {
    __m128i stops =
        _mm_or_si128(_mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('=')),
                                  _mm_cmpeq_epi8(v, _mm_set1_epi8('>'))),
                     _mm_cmpeq_epi8(v, _mm_set1_epi8('/')));
    return _mm_or_si128(stops, WsMask(v));
  });
}

#elif defined(NTW_SCAN_NEON)

// 4 bits per lane: narrowing each 16-bit pair's high nibble turns the
// byte-wise 0x00/0xff match vector into a 64-bit mask whose trailing-zero
// count, divided by 4, is the first matching lane.
inline uint64_t MoveMask(uint8x16_t m) {
  uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(m), 4);
  return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
}

inline uint8x16_t WsMask(uint8x16_t v) {
  uint8x16_t space = vceqq_u8(v, vdupq_n_u8(' '));
  // Unsigned (v - 9) <= 4 covers \t \n \v \f \r; anything below 9 or
  // above 13 wraps past 4.
  uint8x16_t in_range = vcleq_u8(vsubq_u8(v, vdupq_n_u8(9)), vdupq_n_u8(4));
  return vorrq_u8(space, in_range);
}

template <typename MaskFn>
size_t SimdScan(const ClassTable& table, std::string_view s, size_t from,
                MaskFn mask_of) {
  const char* data = s.data();
  size_t n = s.size();
  size_t i = from;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t v = vld1q_u8(reinterpret_cast<const uint8_t*>(data + i));
    uint64_t mask = MoveMask(mask_of(v));
    if (mask != 0) {
      return i + static_cast<size_t>(__builtin_ctzll(mask)) / 4;
    }
  }
  return ScalarScan(table, s, i);
}

size_t LtOrAmpSimd(std::string_view s, size_t from) {
  return SimdScan(kLtOrAmp, s, from, [](uint8x16_t v) {
    return vorrq_u8(vceqq_u8(v, vdupq_n_u8('<')),
                    vceqq_u8(v, vdupq_n_u8('&')));
  });
}

size_t WsOrGtSimd(std::string_view s, size_t from) {
  return SimdScan(kWsOrGt, s, from, [](uint8x16_t v) {
    return vorrq_u8(vceqq_u8(v, vdupq_n_u8('>')), WsMask(v));
  });
}

size_t AttrNameEndSimd(std::string_view s, size_t from) {
  return SimdScan(kAttrNameEnd, s, from, [](uint8x16_t v) {
    uint8x16_t stops = vorrq_u8(vorrq_u8(vceqq_u8(v, vdupq_n_u8('=')),
                                         vceqq_u8(v, vdupq_n_u8('>'))),
                                vceqq_u8(v, vdupq_n_u8('/')));
    return vorrq_u8(stops, WsMask(v));
  });
}

#endif  // NTW_SCAN_SSE2 / NTW_SCAN_NEON

// Dispatch mode, decided lazily on first use: -1 undecided, 0 scalar,
// 1 vector. NTW_NO_SIMD=1 (any non-empty value other than "0") pins the
// scalar loops for the whole process; ForceScalar() overrides either way.
std::atomic<int> g_mode{-1};

bool EnvDisablesSimd() {
  const char* value = std::getenv("NTW_NO_SIMD");
  if (value == nullptr || value[0] == '\0') return false;
  return !(value[0] == '0' && value[1] == '\0');
}

int DefaultMode() {
#if defined(NTW_SCAN_SSE2) || defined(NTW_SCAN_NEON)
  return EnvDisablesSimd() ? 0 : 1;
#else
  return 0;
#endif
}

inline bool UseSimd() {
  int mode = g_mode.load(std::memory_order_relaxed);
  if (mode < 0) {
    mode = DefaultMode();
    g_mode.store(mode, std::memory_order_relaxed);
  }
  return mode == 1;
}

}  // namespace

bool SimdCompiled() {
#if defined(NTW_SCAN_SSE2) || defined(NTW_SCAN_NEON)
  return true;
#else
  return false;
#endif
}

bool SimdEnabled() { return UseSimd(); }

const char* ImplementationName() {
  if (!UseSimd()) return "scalar";
#if defined(NTW_SCAN_SSE2)
  return "sse2";
#elif defined(NTW_SCAN_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

void ForceScalar(bool force) {
  g_mode.store(force ? 0 : DefaultMode(), std::memory_order_relaxed);
}

// Scalar on every target: the class includes the space, so in text a hit
// comes every few bytes, a 16-byte block almost never skips whole, and
// the vector setup per call loses to the table loop (0.80x in the
// committed BENCH_scan.json).
size_t FindTextSpecial(std::string_view s, size_t from) {
  return ScalarScan(kTextSpecial, s, from);
}

size_t FindByte(std::string_view s, size_t from, char c) {
  // memchr is already vectorized by libc on every target; the dispatch
  // switch deliberately does not degrade it.
  if (from >= s.size()) return kNpos;
  const void* hit = std::memchr(s.data() + from, c, s.size() - from);
  if (hit == nullptr) return kNpos;
  return static_cast<size_t>(static_cast<const char*>(hit) - s.data());
}

#if defined(NTW_SCAN_SSE2) || defined(NTW_SCAN_NEON)

size_t FindLtOrAmp(std::string_view s, size_t from) {
  return UseSimd() ? LtOrAmpSimd(s, from) : ScalarScan(kLtOrAmp, s, from);
}
size_t FindWsOrGt(std::string_view s, size_t from) {
  return UseSimd() ? WsOrGtSimd(s, from) : ScalarScan(kWsOrGt, s, from);
}
size_t FindAttrNameEnd(std::string_view s, size_t from) {
  return UseSimd() ? AttrNameEndSimd(s, from)
                   : ScalarScan(kAttrNameEnd, s, from);
}

namespace internal {
size_t FindLtOrAmpSimd(std::string_view s, size_t from) {
  return LtOrAmpSimd(s, from);
}
size_t FindWsOrGtSimd(std::string_view s, size_t from) {
  return WsOrGtSimd(s, from);
}
size_t FindAttrNameEndSimd(std::string_view s, size_t from) {
  return AttrNameEndSimd(s, from);
}
}  // namespace internal

#else  // Scalar-only build.

size_t FindLtOrAmp(std::string_view s, size_t from) {
  return ScalarScan(kLtOrAmp, s, from);
}
size_t FindWsOrGt(std::string_view s, size_t from) {
  return ScalarScan(kWsOrGt, s, from);
}
size_t FindAttrNameEnd(std::string_view s, size_t from) {
  return ScalarScan(kAttrNameEnd, s, from);
}

namespace internal {
size_t FindLtOrAmpSimd(std::string_view s, size_t from) {
  return ScalarScan(kLtOrAmp, s, from);
}
size_t FindWsOrGtSimd(std::string_view s, size_t from) {
  return ScalarScan(kWsOrGt, s, from);
}
size_t FindAttrNameEndSimd(std::string_view s, size_t from) {
  return ScalarScan(kAttrNameEnd, s, from);
}
}  // namespace internal

#endif

namespace internal {
size_t FindLtOrAmpScalar(std::string_view s, size_t from) {
  return ScalarScan(kLtOrAmp, s, from);
}
size_t FindTextSpecialScalar(std::string_view s, size_t from) {
  return ScalarScan(kTextSpecial, s, from);
}
size_t FindWsOrGtScalar(std::string_view s, size_t from) {
  return ScalarScan(kWsOrGt, s, from);
}
size_t FindAttrNameEndScalar(std::string_view s, size_t from) {
  return ScalarScan(kAttrNameEnd, s, from);
}
}  // namespace internal

}  // namespace ntw::html::scan
