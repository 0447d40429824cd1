// Scalar-vs-SIMD equivalence tests for the runtime kernel dispatch shim
// (common/simd.h). The generic level is the semantic reference; every
// level the host can run (AVX2 on x86-64 with CPU support, NEON on
// aarch64) must be bit-identical on random inputs, including short runs,
// non-multiple-of-4 word counts, and aliased destinations. The Bitset
// layer is then re-checked under each forced level so the masked
// head/tail + whole-word-run split (ForEachRangeRun) is exercised against
// a per-bit reference with unaligned range endpoints. These tests run in
// both XPTC_SIMD build modes: with the option OFF only the generic level
// exists and the cross-level loops collapse to the reference itself.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/rng.h"

namespace xptc {
namespace simd {
namespace {

/// Restores detection + env override however a test forced the level.
struct LevelGuard {
  ~LevelGuard() { ResetLevelForTesting(); }
};

std::vector<Level> AvailableLevels() {
  std::vector<Level> levels = {Level::kGeneric};
  if (LevelAvailable(Level::kAvx2)) levels.push_back(Level::kAvx2);
  if (LevelAvailable(Level::kNeon)) levels.push_back(Level::kNeon);
  return levels;
}

std::vector<uint64_t> RandomWords(size_t n, Rng* rng) {
  std::vector<uint64_t> out(n);
  for (uint64_t& w : out) w = rng->Next();
  return out;
}

// Word counts chosen to hit every vector-kernel path: empty, below one
// vector, exact vector multiples, one-off remainders, and a long run.
const size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 257};

TEST(SimdKernelsTest, GenericIsAlwaysAvailableAndNamed) {
  EXPECT_TRUE(LevelAvailable(Level::kGeneric));
  EXPECT_EQ(KernelsFor(Level::kGeneric).level, Level::kGeneric);
  EXPECT_STREQ(LevelName(Level::kGeneric), "generic");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
  EXPECT_STREQ(LevelName(Level::kNeon), "neon");
  // The active table is one of the available levels and self-consistent.
  EXPECT_TRUE(LevelAvailable(ActiveLevel()));
  EXPECT_EQ(Active().level, ActiveLevel());
}

TEST(SimdKernelsTest, SetLevelForTestingSwitchesTheActiveTable) {
  LevelGuard guard;
  for (Level level : AvailableLevels()) {
    SetLevelForTesting(level);
    EXPECT_EQ(ActiveLevel(), level);
    EXPECT_EQ(Active().level, level);
  }
}

TEST(SimdKernelsTest, BinaryKernelsMatchGenericOnRandomWords) {
  const Kernels& ref = KernelsFor(Level::kGeneric);
  Rng rng(101);
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    for (size_t n : kWordCounts) {
      const std::vector<uint64_t> a = RandomWords(n, &rng);
      const std::vector<uint64_t> b = RandomWords(n, &rng);
      struct BinCase {
        const char* name;
        void (*Kernels::*op)(uint64_t*, const uint64_t*, size_t);
      };
      const BinCase cases[] = {{"or", &Kernels::or_words},
                               {"and", &Kernels::and_words},
                               {"andnot", &Kernels::andnot_words},
                               {"xor", &Kernels::xor_words},
                               {"copy", &Kernels::copy_words},
                               {"not", &Kernels::not_words}};
      for (const BinCase& c : cases) {
        std::vector<uint64_t> expected = a;
        std::vector<uint64_t> actual = a;
        (ref.*(c.op))(expected.data(), b.data(), n);
        (k.*(c.op))(actual.data(), b.data(), n);
        EXPECT_EQ(actual, expected)
            << c.name << " level=" << LevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelsTest, FusedAssignKernelsMatchGenericOnRandomWords) {
  const Kernels& ref = KernelsFor(Level::kGeneric);
  Rng rng(202);
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    for (size_t n : kWordCounts) {
      const std::vector<uint64_t> a = RandomWords(n, &rng);
      const std::vector<uint64_t> b = RandomWords(n, &rng);
      std::vector<uint64_t> expected(n, 0xdeadbeefdeadbeefull);
      std::vector<uint64_t> actual = expected;
      ref.assign_andnot_words(expected.data(), a.data(), b.data(), n);
      k.assign_andnot_words(actual.data(), a.data(), b.data(), n);
      EXPECT_EQ(actual, expected)
          << "assign_andnot level=" << LevelName(level) << " n=" << n;
      ref.assign_ornot_words(expected.data(), a.data(), b.data(), n);
      k.assign_ornot_words(actual.data(), a.data(), b.data(), n);
      EXPECT_EQ(actual, expected)
          << "assign_ornot level=" << LevelName(level) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, ReductionKernelsMatchGenericOnRandomWords) {
  const Kernels& ref = KernelsFor(Level::kGeneric);
  Rng rng(303);
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    for (size_t n : kWordCounts) {
      std::vector<uint64_t> a = RandomWords(n, &rng);
      std::vector<uint64_t> b = a;
      // Make b a superset of a in half the trials, so subset exercises
      // both verdicts; flip one bit off otherwise.
      const bool make_subset = rng.NextBool();
      if (n > 0) {
        if (make_subset) {
          for (size_t i = 0; i < n; ++i) b[i] |= rng.Next();
        } else {
          const size_t wi = rng.NextBelow(n);
          a[wi] |= uint64_t{1} << rng.NextBelow(64);
          b[wi] &= ~a[wi];
        }
      }
      EXPECT_EQ(k.popcount_words(a.data(), n), ref.popcount_words(a.data(), n))
          << "popcount level=" << LevelName(level) << " n=" << n;
      EXPECT_EQ(k.any_words(a.data(), n), ref.any_words(a.data(), n))
          << "any level=" << LevelName(level) << " n=" << n;
      EXPECT_EQ(k.subset_words(a.data(), b.data(), n),
                ref.subset_words(a.data(), b.data(), n))
          << "subset level=" << LevelName(level) << " n=" << n;
    }
  }
  // Deterministic edge cases: all-zero (any=false, subset both ways) and
  // all-ones against zero (subset fails).
  const std::vector<uint64_t> zeros(9, 0);
  const std::vector<uint64_t> ones(9, ~uint64_t{0});
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    EXPECT_FALSE(k.any_words(zeros.data(), zeros.size()));
    EXPECT_TRUE(k.any_words(ones.data(), ones.size()));
    EXPECT_EQ(k.popcount_words(ones.data(), ones.size()), 9 * 64);
    EXPECT_TRUE(k.subset_words(zeros.data(), ones.data(), 9));
    EXPECT_FALSE(k.subset_words(ones.data(), zeros.data(), 9));
  }
}

TEST(SimdKernelsTest, InPlaceKernelsTolerateAliasedOperands) {
  // dst == a aliasing: or/and keep dst, xor zeroes it, andnot zeroes it,
  // not complements in place. Every level must agree with the generic
  // aliased result (which the Bitset Flip path relies on).
  Rng rng(404);
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    for (size_t n : {size_t{5}, size_t{8}, size_t{33}}) {
      const std::vector<uint64_t> a = RandomWords(n, &rng);
      std::vector<uint64_t> v = a;
      k.or_words(v.data(), v.data(), n);
      EXPECT_EQ(v, a) << "or alias level=" << LevelName(level);
      k.and_words(v.data(), v.data(), n);
      EXPECT_EQ(v, a) << "and alias level=" << LevelName(level);
      k.not_words(v.data(), v.data(), n);
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(v[i], ~a[i]);
      k.xor_words(v.data(), v.data(), n);
      EXPECT_EQ(v, std::vector<uint64_t>(n, 0))
          << "xor alias level=" << LevelName(level);
    }
  }
}

TEST(SimdKernelsTest, GatherKernelMatchesPerBitReference) {
  // dst[w] bit b = src bit idx[64*w + b], 0 for a negative index — checked
  // per bit against a naive extraction at every level, with indices
  // spanning the whole source (including repeats, which the streaming
  // child-image relies on: many nodes share one parent), with no
  // negative index or a quarter of them negative (the sibling images
  // gather through link columns whose chain ends are kNoNode = -1).
  Rng rng(606);
  for (size_t n : {size_t{1}, size_t{2}, size_t{5}, size_t{16}, size_t{63}}) {
    for (bool negatives : {false, true}) {
      const size_t src_words = 7;
      const std::vector<uint64_t> src = RandomWords(src_words, &rng);
      std::vector<int32_t> idx(n * 64);
      for (int32_t& i : idx) {
        if (negatives && rng.NextBelow(4) == 0) {
          const auto magnitude = static_cast<int32_t>(rng.NextBelow(1u << 30));
          i = rng.NextBool() ? -1 : -1 - magnitude;
        } else {
          i = static_cast<int32_t>(rng.NextBelow(src_words * 64));
        }
      }
      std::vector<uint64_t> expected(n);
      for (size_t w = 0; w < n; ++w) {
        uint64_t word = 0;
        for (int b = 0; b < 64; ++b) {
          const int32_t i = idx[w * 64 + static_cast<size_t>(b)];
          if (i < 0) continue;
          word |= ((src[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1ull)
                  << b;
        }
        expected[w] = word;
      }
      for (Level level : AvailableLevels()) {
        std::vector<uint64_t> actual(n, 0xfeedfacefeedfaceull);
        KernelsFor(level).gather_words(actual.data(), src.data(), idx.data(),
                                       n);
        EXPECT_EQ(actual, expected)
            << "gather level=" << LevelName(level) << " n=" << n
            << " negatives=" << negatives;
      }
    }
  }
}

// compact_bits moves the src bits selected within [slo, shi), in order,
// onto the dst positions selected within [dlo, dhi). Ranges start and end
// mid-word, masks carry selected bits outside the ranges that must be
// ignored, and the selected counts range from none to several words'
// worth. Checked per bit against a position-list reference at every level.
TEST(SimdKernelsTest, CompactKernelMatchesPerBitReferenceAtEveryLevel) {
  Rng rng(808);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t dst_bits = 1 + rng.NextBelow(700);
    const size_t dst_words = (dst_bits + 63) / 64;
    size_t dlo = rng.NextBelow(dst_bits + 1);
    size_t dhi = rng.NextBelow(dst_bits + 1);
    if (dlo > dhi) std::swap(dlo, dhi);
    const double dst_density = rng.NextBool(0.5) ? 0.5 : 0.05;
    std::vector<uint64_t> dst_mask(dst_words);
    std::vector<size_t> dst_pos;
    for (size_t bit = 0; bit < dst_bits; ++bit) {
      if (!rng.NextBool(dst_density)) continue;
      dst_mask[bit >> 6] |= uint64_t{1} << (bit & 63);
      if (bit >= dlo && bit < dhi) dst_pos.push_back(bit);
    }
    // A source range with exactly dst_pos.size() selected bits inside it,
    // plus noise selected outside it.
    const size_t k = dst_pos.size();
    const size_t span = k + rng.NextBelow(k + 130);
    const size_t slo = rng.NextBelow(130);
    const size_t shi = slo + span;
    const size_t src_words = (shi + 64 + 63) / 64;
    std::vector<uint64_t> src_mask(src_words);
    for (size_t bit = 0; bit < src_words * 64; ++bit) {
      if ((bit < slo || bit >= shi) && rng.NextBool(0.5)) {
        src_mask[bit >> 6] |= uint64_t{1} << (bit & 63);
      }
    }
    std::vector<size_t> src_pos;
    for (size_t bit = slo; bit < shi; ++bit) {
      // Select k of the span's positions: the remaining count over the
      // remaining positions.
      if (rng.NextBelow(shi - bit) < k - src_pos.size()) {
        src_mask[bit >> 6] |= uint64_t{1} << (bit & 63);
        src_pos.push_back(bit);
      }
    }
    ASSERT_EQ(src_pos.size(), k);
    const std::vector<uint64_t> src = RandomWords(src_words, &rng);
    const std::vector<uint64_t> base = RandomWords(dst_words, &rng);
    std::vector<uint64_t> expected = base;
    for (size_t i = 0; i < k; ++i) {
      const uint64_t bit = (src[src_pos[i] >> 6] >> (src_pos[i] & 63)) & 1;
      expected[dst_pos[i] >> 6] |= bit << (dst_pos[i] & 63);
    }
    for (Level level : AvailableLevels()) {
      std::vector<uint64_t> got = base;
      KernelsFor(level).compact_bits(got.data(), dst_mask.data(), dlo, dhi,
                                     src.data(), src_mask.data(), slo, shi);
      ASSERT_EQ(got, expected)
          << "compact level=" << LevelName(level) << " trial=" << trial
          << " dst [" << dlo << "," << dhi << ") src [" << slo << ","
          << shi << ") k=" << k;
    }
  }
}

// stab_words: node v = base + i (i < 64*n) gets its bit OR-ed in iff some
// source s — a set bit of the span or `nab`, the first source past it —
// has v < s < end[i]. Checked per node against that definition at every
// level on random end columns that mix leaves (end = v + 1), ends on word
// boundaries and at hi, and random ends; sources at every density, on bits
// 0 and 63, and with runs of 3+ empty words that `nab` must cross.
TEST(SimdKernelsTest, StabKernelMatchesPerNodeReferenceAtEveryLevel) {
  Rng rng(909);
  int empty_runs = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = 1 + rng.NextBelow(trial % 4 == 0 ? 24 : 6);
    const int32_t base = 64 * static_cast<int32_t>(rng.NextBelow(4));
    const int32_t span_end = base + static_cast<int32_t>(64 * n);
    const int32_t tail =
        rng.NextBelow(3) == 0 ? 0 : static_cast<int32_t>(rng.NextBelow(200));
    const int32_t hi = span_end + tail;
    std::vector<int32_t> end(64 * n);
    for (size_t i = 0; i < end.size(); ++i) {
      const int32_t v = base + static_cast<int32_t>(i);
      const int32_t next_boundary = (v + 64) & ~63;
      switch (rng.NextBelow(5)) {
        case 0:
          end[i] = v + 1;
          break;
        case 1:
          end[i] = std::min(hi, next_boundary + 64 * static_cast<int32_t>(
                                                        rng.NextBelow(3)));
          break;
        case 2:
          end[i] = hi;
          break;
        default:
          end[i] = rng.NextInt(v + 1, hi);
          break;
      }
    }
    const double densities[] = {0.0, 0.02, 1.0 / 3, 0.9};
    const double density = densities[trial % 4];
    std::vector<uint64_t> src(n);
    for (size_t w = 0; w < n; ++w) {
      // Every third trial leaves runs of empty words between sources.
      if (trial % 3 == 0 && w % 5 != 0) continue;
      for (int b = 0; b < 64; ++b) {
        if (rng.NextBool(density)) src[w] |= uint64_t{1} << b;
      }
      if (rng.NextBelow(4) == 0) src[w] |= 1;
      if (rng.NextBelow(4) == 0) src[w] |= uint64_t{1} << 63;
    }
    for (size_t w = 0, run = 0; w < n; ++w) {
      run = src[w] == 0 ? run + 1 : 0;
      if (run == 3) ++empty_runs;
    }
    // nab: the first source past the span, or hi (>= every end) for none.
    const int32_t nab = rng.NextBool() ? hi : rng.NextInt(span_end, hi);
    const auto is_source = [&](int32_t i) {
      return ((src[i >> 6] >> (i & 63)) & 1) != 0;
    };
    std::vector<uint64_t> expected = RandomWords(n, &rng);
    const std::vector<uint64_t> before = expected;
    int32_t first = nab;
    for (int32_t i = static_cast<int32_t>(64 * n) - 1; i >= 0; --i) {
      if (is_source(i)) first = base + i;
    }
    for (int32_t i = 0; i < static_cast<int32_t>(64 * n); ++i) {
      bool stabbed = nab < end[i];
      for (int32_t s = base + i + 1; s < end[i] && s < span_end; ++s) {
        stabbed = stabbed || is_source(s - base);
      }
      if (stabbed) expected[i >> 6] |= uint64_t{1} << (i & 63);
    }
    for (Level level : AvailableLevels()) {
      std::vector<uint64_t> got = before;
      const int32_t ret = KernelsFor(level).stab_words(
          got.data(), src.data(), end.data(), base, n, nab);
      ASSERT_EQ(got, expected) << "stab level=" << LevelName(level)
                               << " trial=" << trial << " n=" << n
                               << " base=" << base << " nab=" << nab;
      ASSERT_EQ(ret, first) << "stab level=" << LevelName(level)
                            << " trial=" << trial;
    }
  }
  EXPECT_GE(empty_runs, 20);
}

// ---------------------------------------------------------------------------
// Bitset-layer equivalence under each forced level: the ranged kernels
// split [lo, hi) into masked partial words and a whole-word middle run;
// forcing the level and comparing against a per-bit reference checks both
// the split logic and the dispatched kernel together.

Bitset RandomBitset(int size, Rng* rng, double density = 0.4) {
  Bitset out(size);
  for (int i = 0; i < size; ++i) {
    if (rng->NextBool(density)) out.Set(i);
  }
  return out;
}

TEST(SimdKernelsTest, BitsetRangedOpsMatchPerBitReferenceAtEveryLevel) {
  LevelGuard guard;
  Rng rng(505);
  // Sizes around word and 64-byte-line boundaries plus a multi-line one.
  const int sizes[] = {1, 63, 64, 65, 511, 512, 513, 4096, 5000};
  for (Level level : AvailableLevels()) {
    SetLevelForTesting(level);
    for (int size : sizes) {
      for (int trial = 0; trial < 8; ++trial) {
        const Bitset a = RandomBitset(size, &rng);
        const Bitset b = RandomBitset(size, &rng);
        const Bitset dst0 = RandomBitset(size, &rng);
        // Unaligned endpoints on purpose (including empty and full range).
        const int lo = rng.NextInt(0, size);
        const int hi = rng.NextInt(lo, size);

        struct Op {
          const char* name;
          void (*apply)(Bitset*, const Bitset&, const Bitset&, int, int);
          bool (*expect)(bool dst, bool a, bool b);
        };
        const Op ops[] = {
            {"or",
             [](Bitset* d, const Bitset& x, const Bitset&, int l, int h) {
               d->OrRange(x, l, h);
             },
             [](bool dst, bool a, bool) { return dst || a; }},
            {"and",
             [](Bitset* d, const Bitset& x, const Bitset&, int l, int h) {
               d->AndRange(x, l, h);
             },
             [](bool dst, bool a, bool) { return dst && a; }},
            {"subtract",
             [](Bitset* d, const Bitset& x, const Bitset&, int l, int h) {
               d->SubtractRange(x, l, h);
             },
             [](bool dst, bool a, bool) { return dst && !a; }},
            {"copy",
             [](Bitset* d, const Bitset& x, const Bitset&, int l, int h) {
               d->CopyRange(x, l, h);
             },
             [](bool, bool a, bool) { return a; }},
            {"not",
             [](Bitset* d, const Bitset& x, const Bitset&, int l, int h) {
               d->NotRange(x, l, h);
             },
             [](bool, bool a, bool) { return !a; }},
            {"andnot",
             [](Bitset* d, const Bitset& x, const Bitset& y, int l, int h) {
               d->AndNotRange(x, y, l, h);
             },
             [](bool, bool a, bool b) { return a && !b; }},
            {"ornot",
             [](Bitset* d, const Bitset& x, const Bitset& y, int l, int h) {
               d->OrNotRange(x, y, l, h);
             },
             [](bool, bool a, bool b) { return a || !b; }},
        };
        for (const Op& op : ops) {
          Bitset dst = dst0;
          op.apply(&dst, a, b, lo, hi);
          for (int i = 0; i < size; ++i) {
            const bool expected = (i >= lo && i < hi)
                                      ? op.expect(dst0.Get(i), a.Get(i),
                                                  b.Get(i))
                                      : dst0.Get(i);
            ASSERT_EQ(dst.Get(i), expected)
                << op.name << " level=" << LevelName(level) << " size=" << size
                << " [" << lo << "," << hi << ") bit " << i;
          }
        }

        // Reductions and the subset probe against the same reference.
        int expected_count = 0;
        for (int i = lo; i < hi; ++i) expected_count += a.Get(i);
        EXPECT_EQ(a.CountRange(lo, hi), expected_count);
        EXPECT_EQ(a.AnyInRange(lo, hi), expected_count > 0);
        bool expected_subset = true;
        for (int i = lo; i < hi; ++i) {
          if (a.Get(i) && !b.Get(i)) expected_subset = false;
        }
        EXPECT_EQ(a.IsSubsetOfRange(b, lo, hi), expected_subset)
            << "subset level=" << LevelName(level) << " size=" << size;
      }
    }
  }
}

TEST(SimdKernelsTest, BitsetWholeSetOpsMatchAtEveryLevel) {
  LevelGuard guard;
  Rng rng(606);
  for (Level level : AvailableLevels()) {
    SetLevelForTesting(level);
    for (int size : {65, 1000}) {
      const Bitset a = RandomBitset(size, &rng);
      const Bitset b = RandomBitset(size, &rng);
      Bitset flip = a;
      flip.Flip();
      int expected_count = 0;
      for (int i = 0; i < size; ++i) {
        EXPECT_EQ(flip.Get(i), !a.Get(i));
        expected_count += a.Get(i);
      }
      // Flip must not leak set bits into tail-word padding: Count reads
      // live words through the kernels, and equality is word-for-word.
      EXPECT_EQ(a.Count(), expected_count);
      EXPECT_EQ(flip.Count(), size - expected_count);
      Bitset both = a;
      both |= b;
      Bitset sub = a;
      sub.Subtract(b);
      EXPECT_TRUE(a.IsSubsetOf(both));
      EXPECT_TRUE(sub.IsSubsetOf(a));
      EXPECT_EQ(sub.Any(), sub.Count() > 0);
    }
  }
}

// fill_range/or_range take *bit* positions and mask the head and tail
// words internally — every level must agree with a per-bit reference on
// ranges that start/end mid-word, span one word, and cover long runs.
TEST(SimdKernelsTest, RangedKernelsMatchPerBitReferenceAtEveryLevel) {
  Rng rng(707);
  const size_t kBits[] = {1,  63,  64,  65,  127, 128,
                          129, 640, 1000, 4096, 4099};
  for (Level level : AvailableLevels()) {
    const Kernels& k = KernelsFor(level);
    for (const size_t nbits : kBits) {
      const size_t nwords = (nbits + 63) / 64;
      // A deterministic spread of [lo, hi) windows incl. empty and full.
      std::vector<std::pair<size_t, size_t>> ranges = {
          {0, 0}, {0, nbits}, {nbits / 2, nbits / 2}};
      for (int i = 0; i < 12; ++i) {
        size_t lo = rng.NextBelow(nbits + 1);
        size_t hi = rng.NextBelow(nbits + 1);
        if (lo > hi) std::swap(lo, hi);
        ranges.emplace_back(lo, hi);
      }
      for (const auto& range : ranges) {
        const size_t lo = range.first, hi = range.second;
        // fill_range: set bits [lo, hi), leave everything else alone.
        const std::vector<uint64_t> base = RandomWords(nwords, &rng);
        std::vector<uint64_t> got = base;
        k.fill_range(got.data(), lo, hi);
        for (size_t bit = 0; bit < nbits; ++bit) {
          const bool in = bit >= lo && bit < hi;
          const bool before = (base[bit >> 6] >> (bit & 63)) & 1;
          const bool after = (got[bit >> 6] >> (bit & 63)) & 1;
          ASSERT_EQ(after, in || before)
              << "fill_range level=" << LevelName(level) << " n=" << nbits
              << " [" << lo << "," << hi << ") bit=" << bit;
        }
        // or_range: dst |= src over [lo, hi) only.
        const std::vector<uint64_t> src = RandomWords(nwords, &rng);
        std::vector<uint64_t> dst = base;
        k.or_range(dst.data(), src.data(), lo, hi);
        for (size_t bit = 0; bit < nbits; ++bit) {
          const bool in = bit >= lo && bit < hi;
          const bool before = (base[bit >> 6] >> (bit & 63)) & 1;
          const bool from_src = (src[bit >> 6] >> (bit & 63)) & 1;
          const bool after = (dst[bit >> 6] >> (bit & 63)) & 1;
          ASSERT_EQ(after, before || (in && from_src))
              << "or_range level=" << LevelName(level) << " n=" << nbits
              << " [" << lo << "," << hi << ") bit=" << bit;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, BitsetWordsAreCacheLineAlignedAndPadded) {
  for (int size : {1, 64, 65, 512, 513, 100000}) {
    Bitset bits(size, /*value=*/true);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(bits.words()) % 64, 0u)
        << "size=" << size;
    EXPECT_EQ(bits.word_count(), (static_cast<size_t>(size) + 63) / 64);
    // The tail word carries no bits >= size (SetAll re-masks).
    EXPECT_EQ(bits.Count(), size);
    if (size % 64 != 0) {
      const uint64_t tail = bits.words()[bits.word_count() - 1];
      EXPECT_EQ(tail >> (size % 64), 0u) << "size=" << size;
    }
  }
}

}  // namespace
}  // namespace simd
}  // namespace xptc
