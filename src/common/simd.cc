#include "common/simd.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "obs/metrics.h"

// The XPTC_SIMD compile gate (CMake option of the same name): 0 strips the
// vector levels from the binary entirely — the generic table is all there
// is, and `XPTC_SIMD=avx2` in the environment is an error at dispatch.
#ifndef XPTC_SIMD
#define XPTC_SIMD 1
#endif

#if XPTC_SIMD && defined(__x86_64__) && defined(__GNUC__)
#define XPTC_SIMD_AVX2 1
#include <immintrin.h>
#else
#define XPTC_SIMD_AVX2 0
#endif

#if XPTC_SIMD && defined(__aarch64__)
#define XPTC_SIMD_NEON 1
#include <arm_neon.h>
#else
#define XPTC_SIMD_NEON 0
#endif

namespace xptc {
namespace simd {

namespace {

// ---------------------------------------------------------------------------
// Generic level: portable word loops, the semantic reference for every
// vector level. Deliberately plain — whatever auto-vectorization the
// compiler applies at -O2 is part of the honest scalar baseline.

void OrWordsGeneric(uint64_t* dst, const uint64_t* a, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= a[i];
}
void AndWordsGeneric(uint64_t* dst, const uint64_t* a, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= a[i];
}
void AndNotWordsGeneric(uint64_t* dst, const uint64_t* a, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= ~a[i];
}
void XorWordsGeneric(uint64_t* dst, const uint64_t* a, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] ^= a[i];
}
void CopyWordsGeneric(uint64_t* dst, const uint64_t* a, size_t n) {
  // n == 0 may arrive with null pointers (empty sets); memcpy's nonnull
  // contract makes that UB even for zero lengths. dst == a is the one
  // overlap the table allows, and copying a span onto itself is a no-op.
  if (n != 0 && dst != a) std::memcpy(dst, a, n * sizeof(uint64_t));
}
void NotWordsGeneric(uint64_t* dst, const uint64_t* a, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = ~a[i];
}
void AssignAndNotWordsGeneric(uint64_t* dst, const uint64_t* a,
                              const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
}
void AssignOrNotWordsGeneric(uint64_t* dst, const uint64_t* a,
                             const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] | ~b[i];
}
int64_t PopcountWordsGeneric(const uint64_t* a, size_t n) {
  int64_t count = 0;
  for (size_t i = 0; i < n; ++i) count += __builtin_popcountll(a[i]);
  return count;
}
bool AnyWordsGeneric(const uint64_t* a, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != 0) return true;
  }
  return false;
}
bool SubsetWordsGeneric(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}
// Shared head/tail masks for the bit-ranged kernels. `RangeHeadMask(lo)`
// selects bits >= lo within lo's word; `RangeTailMask(hi)` selects bits
// < hi within (hi-1)'s word (requires hi > 0).
inline uint64_t RangeHeadMask(size_t lo) { return ~uint64_t{0} << (lo & 63); }
inline uint64_t RangeTailMask(size_t hi) {
  return ~uint64_t{0} >> (63 - ((hi - 1) & 63));
}

void FillRangeGeneric(uint64_t* words, size_t lo, size_t hi) {
  if (lo >= hi) return;
  const size_t wlo = lo >> 6;
  const size_t whi = (hi - 1) >> 6;
  if (wlo == whi) {
    words[wlo] |= RangeHeadMask(lo) & RangeTailMask(hi);
    return;
  }
  words[wlo] |= RangeHeadMask(lo);
  for (size_t wi = wlo + 1; wi < whi; ++wi) words[wi] = ~uint64_t{0};
  words[whi] |= RangeTailMask(hi);
}

void OrRangeGeneric(uint64_t* dst, const uint64_t* src, size_t lo, size_t hi) {
  if (lo >= hi) return;
  const size_t wlo = lo >> 6;
  const size_t whi = (hi - 1) >> 6;
  if (wlo == whi) {
    dst[wlo] |= src[wlo] & RangeHeadMask(lo) & RangeTailMask(hi);
    return;
  }
  dst[wlo] |= src[wlo] & RangeHeadMask(lo);
  for (size_t wi = wlo + 1; wi < whi; ++wi) dst[wi] |= src[wi];
  dst[whi] |= src[whi] & RangeTailMask(hi);
}

void GatherWordsGeneric(uint64_t* dst, const uint64_t* src, const int32_t* idx,
                        size_t n) {
  // Assemble each output word from 64 gathered bits. The bit extractions
  // are independent (no loop-carried dependency except the final OR tree),
  // so the scalar loop still streams: 64 in-order loads per output word
  // against the per-set-bit pointer chase it replaces. Blocks without a
  // negative lane (every block of the parent and child-slot columns but
  // the slot padding) skip the per-lane mask, which costs a third more.
  for (size_t w = 0; w < n; ++w) {
    const int32_t* ix = idx + w * 64;
    int32_t any_negative = 0;
    for (int b = 0; b < 64; ++b) any_negative |= ix[b];
    uint64_t out = 0;
    if (any_negative >= 0) {
      for (int b = 0; b < 64; ++b) {
        const uint32_t i = static_cast<uint32_t>(ix[b]);
        out |= ((src[i >> 6] >> (i & 63)) & uint64_t{1}) << b;
      }
    } else {
      for (int b = 0; b < 64; ++b) {
        const uint32_t i = static_cast<uint32_t>(ix[b] < 0 ? 0 : ix[b]);
        const uint64_t keep = static_cast<uint64_t>(ix[b] >= 0);
        out |= ((src[i >> 6] >> (i & 63)) & keep) << b;
      }
    }
    dst[w] = out;
  }
}

void CompactBitsGeneric(uint64_t* dst, const uint64_t* dst_mask, size_t dlo,
                        size_t dhi, const uint64_t* src,
                        const uint64_t* src_mask, size_t slo, size_t shi) {
  // Without pext/pdep: walk the selected src and dst positions in
  // lockstep, one step per moved bit, building each dst word in a
  // register. Branch-free per bit except the refill of the next src word.
  if (dlo >= dhi) return;
  const size_t d_first = dlo >> 6, d_last = (dhi - 1) >> 6;
  const size_t s_first = slo >> 6;
  const size_t s_last = shi > slo ? (shi - 1) >> 6 : s_first;
  const auto selected = [&](size_t i) {
    uint64_t m = src_mask[i];
    if (i == s_first) m &= RangeHeadMask(slo);
    if (i == s_last) m &= RangeTailMask(shi);
    return m;
  };
  size_t next = s_first;  // the next src word to load
  size_t cur = s_first;
  uint64_t sm = 0;  // selected src positions of word `cur` not yet moved
  for (size_t w = d_first; w <= d_last; ++w) {
    uint64_t m = dst_mask[w];
    if (w == d_first) m &= RangeHeadMask(dlo);
    if (w == d_last) m &= RangeTailMask(dhi);
    uint64_t acc = 0;
    for (; m != 0; m &= m - 1) {
      while (sm == 0) sm = selected(cur = next++);
      const uint64_t bit = (src[cur] >> __builtin_ctzll(sm)) & 1;
      sm &= sm - 1;
      acc |= m & (~m + 1) & (0 - bit);
    }
    dst[w] |= acc;
  }
}

int32_t StabWordsGeneric(uint64_t* dst, const uint64_t* src,
                         const int32_t* end, int32_t base, size_t n,
                         int32_t nab) {
  // Backward, carrying the nearest later source: node v is tested against
  // it before v's own bit can become it, so a source never stabs itself.
  // Each node's source bit is shifted into the sign position of a
  // register copy of the word, and the output word is assembled in a
  // register and OR-ed once.
  for (size_t w = n; w-- > 0;) {
    const int32_t* e = end + w * 64;
    const int32_t wbase = base + static_cast<int32_t>(w * 64);
    uint64_t probe = src[w];
    uint64_t acc = 0;
    for (int b = 63; b >= 0; --b) {
      acc = (acc << 1) | static_cast<uint64_t>(nab < e[b]);
      nab = static_cast<int64_t>(probe) < 0 ? wbase + b : nab;
      probe <<= 1;
    }
    dst[w] |= acc;
  }
  return nab;
}

constexpr Kernels kGenericKernels = {
    Level::kGeneric,        OrWordsGeneric,       AndWordsGeneric,
    AndNotWordsGeneric,     XorWordsGeneric,      CopyWordsGeneric,
    NotWordsGeneric,        AssignAndNotWordsGeneric,
    AssignOrNotWordsGeneric, PopcountWordsGeneric, AnyWordsGeneric,
    SubsetWordsGeneric,     GatherWordsGeneric,   CompactBitsGeneric,
    StabWordsGeneric,       FillRangeGeneric,     OrRangeGeneric,
};

// ---------------------------------------------------------------------------
// AVX2 level: 4 words per 256-bit op. The function-level target keeps the
// rest of the binary baseline-x86_64; the tail (< 4 words) runs the scalar
// epilogue. Popcount stays a scalar loop — AVX2 has no vector popcount —
// but it needs its own body here: the builtin only becomes the hardware
// popcnt instruction (a word per cycle) inside a popcnt-enabled function,
// and the generic body compiled for baseline x86-64 runs a software
// bit-twiddle instead. The same goes for BMI2's pext/pdep in the
// compaction kernel. Every AVX2 host also has BMI2 and popcnt; the level
// probes all three.

#if XPTC_SIMD_AVX2

#define XPTC_AVX2 __attribute__((target("avx2,bmi2,popcnt")))

XPTC_AVX2 void OrWordsAvx2(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(x, y));
  }
  for (; i < n; ++i) dst[i] |= a[i];
}

XPTC_AVX2 void AndWordsAvx2(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(x, y));
  }
  for (; i < n; ++i) dst[i] &= a[i];
}

XPTC_AVX2 void AndNotWordsAvx2(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    // andnot(y, x) = ~y & x = x & ~y.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(y, x));
  }
  for (; i < n; ++i) dst[i] &= ~a[i];
}

XPTC_AVX2 void XorWordsAvx2(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(x, y));
  }
  for (; i < n; ++i) dst[i] ^= a[i];
}

XPTC_AVX2 void NotWordsAvx2(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (; i + 4 <= n; i += 4) {
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(y, ones));
  }
  for (; i < n; ++i) dst[i] = ~a[i];
}

XPTC_AVX2 void AssignAndNotWordsAvx2(uint64_t* dst, const uint64_t* a,
                                     const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(y, x));
  }
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}

XPTC_AVX2 void AssignOrNotWordsAvx2(uint64_t* dst, const uint64_t* a,
                                    const uint64_t* b, size_t n) {
  size_t i = 0;
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(x, _mm256_xor_si256(y, ones)));
  }
  for (; i < n; ++i) dst[i] = a[i] | ~b[i];
}

XPTC_AVX2 int64_t PopcountWordsAvx2(const uint64_t* a, size_t n) {
  int64_t count = 0;
  for (size_t i = 0; i < n; ++i) count += __builtin_popcountll(a[i]);
  return count;
}

XPTC_AVX2 bool AnyWordsAvx2(const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    if (!_mm256_testz_si256(y, y)) return true;
  }
  for (; i < n; ++i) {
    if (a[i] != 0) return true;
  }
  return false;
}

XPTC_AVX2 bool SubsetWordsAvx2(const uint64_t* a, const uint64_t* b,
                               size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // testc(y, x) == 1  iff  (~y & x) == 0  iff  a-block ⊆ b-block.
    if (!_mm256_testc_si256(y, x)) return false;
  }
  for (; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

XPTC_AVX2 void GatherWordsAvx2(uint64_t* dst, const uint64_t* src,
                               const int32_t* idx, size_t n) {
  // Hardware gather at 32-bit granularity: each lane fetches the 32-bit
  // half-word holding its bit (word index = idx >> 5), shifts its bit to
  // position 0, then to the sign position so movemask packs 8 lanes into
  // 8 output bits. 8 gathers assemble one 64-bit output word. Lanes with a
  // negative index are masked off: they load nothing and keep the zero
  // source operand, so their bit is 0.
  const int* src32 = reinterpret_cast<const int*>(src);
  const __m256i low5 = _mm256_set1_epi32(31);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i minus_one = _mm256_set1_epi32(-1);
  for (size_t w = 0; w < n; ++w) {
    const int32_t* ix = idx + w * 64;
    uint64_t out = 0;
    for (int g = 0; g < 8; ++g) {
      const __m256i vidx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ix + g * 8));
      const __m256i half_idx = _mm256_srli_epi32(vidx, 5);
      const __m256i bit_idx = _mm256_and_si256(vidx, low5);
      const __m256i halves = _mm256_mask_i32gather_epi32(
          zero, src32, half_idx, _mm256_cmpgt_epi32(vidx, minus_one), 4);
      const __m256i bits = _mm256_srlv_epi32(halves, bit_idx);
      const int mask = _mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_slli_epi32(bits, 31)));
      out |= static_cast<uint64_t>(static_cast<uint32_t>(mask) & 0xffu)
             << (g * 8);
    }
    dst[w] = out;
  }
}

XPTC_AVX2 void CompactBitsAvx2(uint64_t* dst, const uint64_t* dst_mask,
                               size_t dlo, size_t dhi, const uint64_t* src,
                               const uint64_t* src_mask, size_t slo,
                               size_t shi) {
  // A word at a time: pext packs each src word's selected bits onto a
  // pending stream, pdep spreads the stream over each dst word's
  // selected positions.
  if (dlo >= dhi) return;
  const size_t d_first = dlo >> 6, d_last = (dhi - 1) >> 6;
  const size_t s_first = slo >> 6;
  const size_t s_last = shi > slo ? (shi - 1) >> 6 : s_first;
  // Bits pulled from src but not yet deposited: fewer than 64 before a
  // pull, so at most 127 after one.
  unsigned __int128 pending = 0;
  int have = 0;
  size_t si = s_first;
  for (size_t w = d_first; w <= d_last; ++w) {
    uint64_t m = dst_mask[w];
    if (w == d_first) m &= RangeHeadMask(dlo);
    if (w == d_last) m &= RangeTailMask(dhi);
    const int need = __builtin_popcountll(m);
    while (have < need) {
      uint64_t sm = src_mask[si];
      if (si == s_first) sm &= RangeHeadMask(slo);
      if (si == s_last) sm &= RangeTailMask(shi);
      pending |= static_cast<unsigned __int128>(_pext_u64(src[si], sm))
                 << have;
      have += __builtin_popcountll(sm);
      ++si;
    }
    if (need == 0) continue;
    dst[w] |= _pdep_u64(static_cast<uint64_t>(pending), m);
    pending >>= need;
    have -= need;
  }
}

// kAbove[b]: the bits of a word strictly above bit b.
constexpr std::array<uint64_t, 64> MakeAbove() {
  std::array<uint64_t, 64> above{};
  for (int b = 0; b < 63; ++b) above[b] = ~uint64_t{0} << (b + 1);
  return above;
}
alignas(32) constexpr std::array<uint64_t, 64> kAbove = MakeAbove();

XPTC_AVX2 int32_t StabWordsAvx2(uint64_t* dst, const uint64_t* src,
                                const int32_t* end, int32_t base, size_t n,
                                int32_t nab) {
  // 4 nodes per vector, no state carried between them: lane b of a word
  // is out of the image iff (src & kAbove[b] & lowmask(end - wbase)) == 0
  // and end <= nab. vpsllvq gives 0 for shift counts >= 64, so
  // ~(ones << k) is lowmask(k) for every k >= 1. Only nab crosses words.
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i zero = _mm256_setzero_si256();
  for (size_t w = n; w-- > 0;) {
    const int32_t* e = end + w * 64;
    const int64_t wbase = base + static_cast<int64_t>(w * 64);
    const __m256i vbase = _mm256_set1_epi64x(wbase);
    const __m256i vnab = _mm256_set1_epi64x(nab);
    const __m256i vsrc = _mm256_set1_epi64x(static_cast<int64_t>(src[w]));
    uint64_t outside = 0;
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m256i ve = _mm256_cvtepi32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(e + 4 * g)));
      const __m256i above = _mm256_and_si256(
          vsrc, _mm256_load_si256(
                    reinterpret_cast<const __m256i*>(&kAbove[4 * g])));
      const __m256i below_end = _mm256_andnot_si256(
          _mm256_sllv_epi64(ones, _mm256_sub_epi64(ve, vbase)), above);
      const __m256i none = _mm256_andnot_si256(
          _mm256_cmpgt_epi64(ve, vnab), _mm256_cmpeq_epi64(below_end, zero));
      outside |= static_cast<uint64_t>(
                     _mm256_movemask_pd(_mm256_castsi256_pd(none)))
                 << (4 * g);
    }
    dst[w] |= ~outside;
    if (src[w] != 0) {
      nab = static_cast<int32_t>(wbase) + __builtin_ctzll(src[w]);
    }
  }
  return nab;
}

XPTC_AVX2 void FillRangeAvx2(uint64_t* words, size_t lo, size_t hi) {
  if (lo >= hi) return;
  const size_t wlo = lo >> 6;
  const size_t whi = (hi - 1) >> 6;
  if (wlo == whi) {
    words[wlo] |= RangeHeadMask(lo) & RangeTailMask(hi);
    return;
  }
  words[wlo] |= RangeHeadMask(lo);
  size_t wi = wlo + 1;
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (; wi + 4 <= whi; wi += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(words + wi), ones);
  }
  for (; wi < whi; ++wi) words[wi] = ~uint64_t{0};
  words[whi] |= RangeTailMask(hi);
}

XPTC_AVX2 void OrRangeAvx2(uint64_t* dst, const uint64_t* src, size_t lo,
                           size_t hi) {
  if (lo >= hi) return;
  const size_t wlo = lo >> 6;
  const size_t whi = (hi - 1) >> 6;
  if (wlo == whi) {
    dst[wlo] |= src[wlo] & RangeHeadMask(lo) & RangeTailMask(hi);
    return;
  }
  dst[wlo] |= src[wlo] & RangeHeadMask(lo);
  size_t wi = wlo + 1;
  for (; wi + 4 <= whi; wi += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + wi));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + wi));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + wi),
                        _mm256_or_si256(x, y));
  }
  for (; wi < whi; ++wi) dst[wi] |= src[wi];
  dst[whi] |= src[whi] & RangeTailMask(hi);
}

#undef XPTC_AVX2

constexpr Kernels kAvx2Kernels = {
    Level::kAvx2,         OrWordsAvx2,        AndWordsAvx2,
    AndNotWordsAvx2,      XorWordsAvx2,       CopyWordsGeneric,
    NotWordsAvx2,         AssignAndNotWordsAvx2,
    AssignOrNotWordsAvx2, PopcountWordsAvx2,  AnyWordsAvx2,
    SubsetWordsAvx2,      GatherWordsAvx2,    CompactBitsAvx2,
    StabWordsAvx2,        FillRangeAvx2,      OrRangeAvx2,
};

bool CpuHasAvx2() {
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("bmi2") != 0 &&
         __builtin_cpu_supports("popcnt") != 0;
}

#endif  // XPTC_SIMD_AVX2

// ---------------------------------------------------------------------------
// NEON level: 2 words per 128-bit op. NEON is architecturally baseline on
// aarch64, so there is no runtime CPU probe — compiled in means available.

#if XPTC_SIMD_NEON

void OrWordsNeon(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vorrq_u64(vld1q_u64(dst + i), vld1q_u64(a + i)));
  }
  for (; i < n; ++i) dst[i] |= a[i];
}
void AndWordsNeon(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(dst + i), vld1q_u64(a + i)));
  }
  for (; i < n; ++i) dst[i] &= a[i];
}
void AndNotWordsNeon(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // bic(x, y) = x & ~y.
    vst1q_u64(dst + i, vbicq_u64(vld1q_u64(dst + i), vld1q_u64(a + i)));
  }
  for (; i < n; ++i) dst[i] &= ~a[i];
}
void XorWordsNeon(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(dst + i), vld1q_u64(a + i)));
  }
  for (; i < n; ++i) dst[i] ^= a[i];
}
void NotWordsNeon(uint64_t* dst, const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vreinterpretq_u64_u8(
                           vmvnq_u8(vreinterpretq_u8_u64(vld1q_u64(a + i)))));
  }
  for (; i < n; ++i) dst[i] = ~a[i];
}
void AssignAndNotWordsNeon(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                           size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vbicq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}
void AssignOrNotWordsNeon(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                          size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // orn(x, y) = x | ~y.
    vst1q_u64(dst + i, vornq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] | ~b[i];
}
bool AnyWordsNeon(const uint64_t* a, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t y = vld1q_u64(a + i);
    if ((vgetq_lane_u64(y, 0) | vgetq_lane_u64(y, 1)) != 0) return true;
  }
  for (; i < n; ++i) {
    if (a[i] != 0) return true;
  }
  return false;
}
bool SubsetWordsNeon(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t extra = vbicq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    if ((vgetq_lane_u64(extra, 0) | vgetq_lane_u64(extra, 1)) != 0) {
      return false;
    }
  }
  for (; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

void FillRangeNeon(uint64_t* words, size_t lo, size_t hi) {
  if (lo >= hi) return;
  const size_t wlo = lo >> 6;
  const size_t whi = (hi - 1) >> 6;
  if (wlo == whi) {
    words[wlo] |= RangeHeadMask(lo) & RangeTailMask(hi);
    return;
  }
  words[wlo] |= RangeHeadMask(lo);
  size_t wi = wlo + 1;
  const uint64x2_t ones = vdupq_n_u64(~uint64_t{0});
  for (; wi + 2 <= whi; wi += 2) vst1q_u64(words + wi, ones);
  for (; wi < whi; ++wi) words[wi] = ~uint64_t{0};
  words[whi] |= RangeTailMask(hi);
}

void OrRangeNeon(uint64_t* dst, const uint64_t* src, size_t lo, size_t hi) {
  if (lo >= hi) return;
  const size_t wlo = lo >> 6;
  const size_t whi = (hi - 1) >> 6;
  if (wlo == whi) {
    dst[wlo] |= src[wlo] & RangeHeadMask(lo) & RangeTailMask(hi);
    return;
  }
  dst[wlo] |= src[wlo] & RangeHeadMask(lo);
  size_t wi = wlo + 1;
  for (; wi + 2 <= whi; wi += 2) {
    vst1q_u64(dst + wi, vorrq_u64(vld1q_u64(dst + wi), vld1q_u64(src + wi)));
  }
  for (; wi < whi; ++wi) dst[wi] |= src[wi];
  dst[whi] |= src[whi] & RangeTailMask(hi);
}

constexpr Kernels kNeonKernels = {
    Level::kNeon,         OrWordsNeon,        AndWordsNeon,
    AndNotWordsNeon,      XorWordsNeon,       CopyWordsGeneric,
    NotWordsNeon,         AssignAndNotWordsNeon,
    AssignOrNotWordsNeon, PopcountWordsGeneric, AnyWordsNeon,
    SubsetWordsNeon,      GatherWordsGeneric,  // NEON has no gather
    CompactBitsGeneric,   StabWordsGeneric,    // the lane test is AVX2-only
    FillRangeNeon,        OrRangeNeon,
};

#endif  // XPTC_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch.

obs::Gauge& LevelGauge() {
  static obs::Gauge* gauge = &obs::Registry::Default().gauge("simd.level");
  return *gauge;
}

const Kernels* Detect() {
  const char* env = std::getenv("XPTC_SIMD");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "auto") != 0) {
    if (std::strcmp(env, "generic") == 0) return &kGenericKernels;
#if XPTC_SIMD_AVX2
    if (std::strcmp(env, "avx2") == 0) {
      XPTC_CHECK(CpuHasAvx2())
          << "XPTC_SIMD=avx2 but the CPU lacks AVX2, BMI2 or POPCNT";
      return &kAvx2Kernels;
    }
#endif
#if XPTC_SIMD_NEON
    if (std::strcmp(env, "neon") == 0) return &kNeonKernels;
#endif
    XPTC_CHECK(false) << "unsupported XPTC_SIMD level '" << env
                      << "' (compiled out, or unknown; valid here: auto, "
                         "generic"
#if XPTC_SIMD_AVX2
                         ", avx2"
#endif
#if XPTC_SIMD_NEON
                         ", neon"
#endif
                         ")";
  }
#if XPTC_SIMD_AVX2
  if (CpuHasAvx2()) return &kAvx2Kernels;
#endif
#if XPTC_SIMD_NEON
  return &kNeonKernels;
#endif
  return &kGenericKernels;
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kGeneric:
      return "generic";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

const Kernels& Active() {
  const Kernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = Detect();
    const Kernels* expected = nullptr;
    // First caller wins; a racing caller's Detect() returns the same table
    // (detection is deterministic within one process environment).
    if (g_active.compare_exchange_strong(expected, table,
                                         std::memory_order_acq_rel)) {
      LevelGauge().Set(static_cast<int64_t>(table->level));
    } else {
      table = expected;
    }
  }
  return *table;
}

Level ActiveLevel() { return Active().level; }

bool LevelAvailable(Level level) {
  switch (level) {
    case Level::kGeneric:
      return true;
    case Level::kAvx2:
#if XPTC_SIMD_AVX2
      return CpuHasAvx2();
#else
      return false;
#endif
    case Level::kNeon:
#if XPTC_SIMD_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

const Kernels& KernelsFor(Level level) {
  XPTC_CHECK(LevelAvailable(level))
      << "simd level " << LevelName(level) << " unavailable";
  switch (level) {
    case Level::kGeneric:
      return kGenericKernels;
    case Level::kAvx2:
#if XPTC_SIMD_AVX2
      return kAvx2Kernels;
#else
      break;
#endif
    case Level::kNeon:
#if XPTC_SIMD_NEON
      return kNeonKernels;
#else
      break;
#endif
  }
  return kGenericKernels;
}

void SetLevelForTesting(Level level) {
  const Kernels& table = KernelsFor(level);
  g_active.store(&table, std::memory_order_release);
  LevelGauge().Set(static_cast<int64_t>(level));
}

void ResetLevelForTesting() {
  const Kernels* table = Detect();
  g_active.store(table, std::memory_order_release);
  LevelGauge().Set(static_cast<int64_t>(table->level));
}

}  // namespace simd
}  // namespace xptc
