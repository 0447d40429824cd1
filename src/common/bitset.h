#ifndef XPTC_COMMON_BITSET_H_
#define XPTC_COMMON_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/simd.h"

namespace xptc {

/// Dense dynamic bitset sized at construction; the workhorse node-set
/// representation for evaluators (one bit per tree node).
///
/// Storage and padding invariants (every mutator preserves these; the
/// word-span kernels in common/simd.h rely on them):
///  - Words are 64-byte aligned (one cache line) and the word count is
///    rounded up to a multiple of 8, so vector kernels may always read
///    whole 64-byte blocks of the live range without running off the
///    allocation.
///  - "Live" words are the first WordCount(size) words; everything after
///    them is padding and is ZERO at all times. Bits >= size inside the
///    last live word are likewise always zero (`ClearPadding` re-masks
///    them after the only operations that can set them: SetAll and Flip).
///    Bulk operations touch live words only, so padding stays zero by
///    construction and `operator==` can compare raw word vectors.
class Bitset {
 public:
  Bitset() : size_(0) {}
  explicit Bitset(int size, bool value = false)
      : size_(size), words_(PaddedWordCount(size), 0) {
    XPTC_CHECK_GE(size, 0);
    if (value) SetAll();
  }

  int size() const { return size_; }

  /// Raw word storage (read-only): `word_count()` live words, 64-byte
  /// aligned, padding bits zero. The kernel benches and alignment tests
  /// read these; semantic callers should use the bit-level API.
  const uint64_t* words() const { return words_.data(); }
  size_t word_count() const { return LiveWords(); }

  /// Raw word storage (mutable): for kernels that assemble whole live
  /// words in place (the streaming axis kernels write gather results
  /// directly). Callers must preserve the storage invariants — live words
  /// only, padding bits stay zero.
  uint64_t* mutable_words() { return words_.data(); }

  bool Get(int i) const {
    XPTC_DCHECK(i >= 0 && i < size_);
    return (words_[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1;
  }
  void Set(int i) {
    XPTC_DCHECK(i >= 0 && i < size_);
    words_[static_cast<size_t>(i) >> 6] |= uint64_t{1} << (i & 63);
  }
  void Reset(int i) {
    XPTC_DCHECK(i >= 0 && i < size_);
    words_[static_cast<size_t>(i) >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void Assign(int i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }

  void SetAll() {
    for (size_t wi = 0, n = LiveWords(); wi < n; ++wi) {
      words_[wi] = ~uint64_t{0};
    }
    ClearPadding();
  }
  void ResetAll() {
    for (size_t wi = 0, n = LiveWords(); wi < n; ++wi) words_[wi] = 0;
  }

  bool Any() const {
    return simd::Active().any_words(words_.data(), LiveWords());
  }
  bool None() const { return !Any(); }

  int Count() const {
    return static_cast<int>(
        simd::Active().popcount_words(words_.data(), LiveWords()));
  }

  /// Index of the lowest set bit, or -1 if empty.
  int FindFirst() const {
    for (size_t wi = 0, n = LiveWords(); wi < n; ++wi) {
      if (words_[wi] != 0) {
        return static_cast<int>(wi * 64) + __builtin_ctzll(words_[wi]);
      }
    }
    return -1;
  }

  /// Index of the next set bit strictly after `i`, or -1.
  int FindNext(int i) const {
    ++i;
    if (i >= size_) return -1;
    size_t wi = static_cast<size_t>(i) >> 6;
    const size_t n = LiveWords();
    uint64_t w = words_[wi] & (~uint64_t{0} << (i & 63));
    for (;;) {
      if (w != 0) return static_cast<int>(wi * 64) + __builtin_ctzll(w);
      if (++wi == n) return -1;
      w = words_[wi];
    }
  }

  /// Index of the first set bit in [lo, hi), or -1.
  int FindFirstInRange(int lo, int hi) const {
    CheckRange(lo, hi);
    if (lo >= hi) return -1;
    const int i = lo == 0 ? FindFirst() : FindNext(lo - 1);
    return (i >= 0 && i < hi) ? i : -1;
  }

  /// Index of the highest set bit, or -1 if empty.
  int FindLast() const { return FindLastInRange(0, size_); }

  /// Index of the highest set bit in [lo, hi), or -1.
  int FindLastInRange(int lo, int hi) const {
    CheckRange(lo, hi);
    if (lo >= hi) return -1;
    size_t wi = static_cast<size_t>(hi - 1) >> 6;
    const size_t wlo = static_cast<size_t>(lo) >> 6;
    uint64_t w = words_[wi] & TailMask(hi);
    for (;;) {
      if (wi == wlo) w &= HeadMask(lo);
      if (w != 0) {
        return static_cast<int>(wi * 64) + 63 - __builtin_clzll(w);
      }
      if (wi == wlo) return -1;
      w = words_[--wi];
    }
  }

  /// How many index slots a decode buffer must have beyond the number of
  /// set bits actually decoded: `DecodeWord`'s unrolled lanes may write up
  /// to `kDecodeSlack` garbage entries past the returned count.
  static constexpr int kDecodeSlack = 3;

  /// Decodes the set bits of `word` into `out[0..count)` as `base + bit`,
  /// lowest bit first, and returns `count = popcount(word)`. One unrolled
  /// pass, four bits per iteration, with no per-bit branch: each lane
  /// isolates the lowest set bit `t = w & -w` and derives its index as
  /// `popcount(t - 1)` (well defined for every lane — when `w` runs out
  /// mid-iteration the spent lanes write `base + 64` garbage past the
  /// count, which is why callers provide `kDecodeSlack` slots of slack;
  /// `ctz` is avoided because `ctz(0)` is UB).
  static int DecodeWord(uint64_t word, int base, int32_t* out) {
    const int count = __builtin_popcountll(word);
    int n = 0;
    while (word != 0) {
      uint64_t t = word & (~word + 1);
      out[n] = base + __builtin_popcountll(t - 1);
      word ^= t;
      t = word & (~word + 1);
      out[n + 1] = base + __builtin_popcountll(t - 1);
      word ^= t;
      t = word & (~word + 1);
      out[n + 2] = base + __builtin_popcountll(t - 1);
      word ^= t;
      t = word & (~word + 1);
      out[n + 3] = base + __builtin_popcountll(t - 1);
      word ^= t;
      n += 4;
    }
    return count;
  }

  /// Invokes `fn(const int32_t* indices, int count)` once per word
  /// overlapping [lo, hi) that has set bits in the range, with the word's
  /// set-bit indices batch-decoded (increasing order). The batched
  /// alternative to `ForEachSetBitInRange` for consumers with per-index
  /// work small enough that a lambda call per bit dominates: one decode
  /// pass plus one call per 64 bits instead of per bit.
  template <typename Fn>
  void ForEachSetBitBatch(int lo, int hi, Fn&& fn) const {
    CheckRange(lo, hi);
    if (lo >= hi) return;
    const size_t wlo = static_cast<size_t>(lo) >> 6;
    const size_t whi = static_cast<size_t>(hi - 1) >> 6;
    int32_t buf[64 + kDecodeSlack];
    for (size_t wi = wlo; wi <= whi; ++wi) {
      uint64_t w = words_[wi];
      if (wi == wlo) w &= HeadMask(lo);
      if (wi == whi) w &= TailMask(hi);
      if (w == 0) continue;
      const int count = DecodeWord(w, static_cast<int>(wi * 64), buf);
      fn(static_cast<const int32_t*>(buf), count);
    }
  }

  /// Decodes every set bit of [lo, hi) into `out` (increasing order) and
  /// returns the count. `out` must have `CountRange(lo, hi) + kDecodeSlack`
  /// slots: the words decode straight into the caller's buffer, so the
  /// final word's spent lanes may spill past the count.
  int DecodeRange(int lo, int hi, int32_t* out) const {
    CheckRange(lo, hi);
    if (lo >= hi) return 0;
    const size_t wlo = static_cast<size_t>(lo) >> 6;
    const size_t whi = static_cast<size_t>(hi - 1) >> 6;
    int n = 0;
    for (size_t wi = wlo; wi <= whi; ++wi) {
      uint64_t w = words_[wi];
      if (wi == wlo) w &= HeadMask(lo);
      if (wi == whi) w &= TailMask(hi);
      n += DecodeWord(w, static_cast<int>(wi * 64), out + n);
    }
    return n;
  }

  /// Invokes `fn(int index)` for every set bit, in increasing order, one
  /// word at a time (ctz iteration — no per-clear-bit work).
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t wi = 0, n = LiveWords(); wi < n; ++wi) {
      for (uint64_t w = words_[wi]; w != 0; w &= w - 1) {
        fn(static_cast<int>(wi * 64) + __builtin_ctzll(w));
      }
    }
  }

  /// `ForEachSetBit` restricted to indices in [lo, hi).
  template <typename Fn>
  void ForEachSetBitInRange(int lo, int hi, Fn&& fn) const {
    CheckRange(lo, hi);
    if (lo >= hi) return;
    const size_t wlo = static_cast<size_t>(lo) >> 6;
    const size_t whi = static_cast<size_t>(hi - 1) >> 6;
    for (size_t wi = wlo; wi <= whi; ++wi) {
      uint64_t w = words_[wi];
      if (wi == wlo) w &= HeadMask(lo);
      if (wi == whi) w &= TailMask(hi);
      for (; w != 0; w &= w - 1) {
        fn(static_cast<int>(wi * 64) + __builtin_ctzll(w));
      }
    }
  }

  /// Sets every bit in [lo, hi); dispatched through the `fill_range`
  /// bit-ranged kernel (masked head/tail handled inside the kernel — the
  /// interval axis kernels call this once per subtree interval).
  void SetRange(int lo, int hi) {
    CheckRange(lo, hi);
    if (lo >= hi) return;
    simd::Active().fill_range(words_.data(), static_cast<size_t>(lo),
                              static_cast<size_t>(hi));
  }

  /// Clears every bit in [lo, hi).
  void ResetRange(int lo, int hi) {
    ForEachRangeWord(lo, hi,
                     [this](size_t wi, uint64_t mask) { words_[wi] &= ~mask; });
  }

  /// Popcount over [lo, hi).
  int CountRange(int lo, int hi) const {
    int64_t count = 0;
    ForEachRangeRun(
        lo, hi,
        [this, &count](size_t wi, uint64_t mask) {
          count += __builtin_popcountll(words_[wi] & mask);
        },
        [this, &count](size_t wi, size_t n) {
          count += simd::Active().popcount_words(&words_[wi], n);
        });
    return static_cast<int>(count);
  }

  /// True iff some bit in [lo, hi) is set.
  bool AnyInRange(int lo, int hi) const {
    CheckRange(lo, hi);
    if (lo >= hi) return false;
    const size_t wlo = static_cast<size_t>(lo) >> 6;
    const size_t whi = static_cast<size_t>(hi - 1) >> 6;
    if (wlo == whi) return (words_[wlo] & HeadMask(lo) & TailMask(hi)) != 0;
    size_t first_full = wlo;
    if ((lo & 63) != 0) {
      if ((words_[wlo] & HeadMask(lo)) != 0) return true;
      first_full = wlo + 1;
    }
    size_t last_full = whi;
    if ((hi & 63) != 0) {
      if ((words_[whi] & TailMask(hi)) != 0) return true;
      last_full = whi - 1;
    }
    return first_full <= last_full &&
           simd::Active().any_words(&words_[first_full],
                                    last_full - first_full + 1);
  }

  // Ranged compound assignments: exact [lo, hi) bit semantics (bits outside
  // the range are untouched), word-at-a-time inside. These are the kernels
  // the subtree-context evaluator runs on, so a context of s nodes costs
  // O(s/64 + 1) words per operation instead of O(|T|/64). Partial head/tail
  // words are handled with masks inline; the whole-word middle run goes
  // through the simd dispatch table (common/simd.h).

  /// this[lo,hi) |= other[lo,hi), via the `or_range` bit-ranged kernel.
  void OrRange(const Bitset& other, int lo, int hi) {
    XPTC_DCHECK(size_ == other.size_);
    CheckRange(lo, hi);
    if (lo >= hi) return;
    simd::Active().or_range(words_.data(), other.words_.data(),
                            static_cast<size_t>(lo), static_cast<size_t>(hi));
  }

  /// this[lo,hi) &= other[lo,hi).
  void AndRange(const Bitset& other, int lo, int hi) {
    XPTC_DCHECK(size_ == other.size_);
    ForEachRangeRun(
        lo, hi,
        [this, &other](size_t wi, uint64_t mask) {
          words_[wi] &= other.words_[wi] | ~mask;
        },
        [this, &other](size_t wi, size_t n) {
          simd::Active().and_words(&words_[wi], &other.words_[wi], n);
        });
  }

  /// this[lo,hi) &= ~other[lo,hi).
  void SubtractRange(const Bitset& other, int lo, int hi) {
    XPTC_DCHECK(size_ == other.size_);
    ForEachRangeRun(
        lo, hi,
        [this, &other](size_t wi, uint64_t mask) {
          words_[wi] &= ~(other.words_[wi] & mask);
        },
        [this, &other](size_t wi, size_t n) {
          simd::Active().andnot_words(&words_[wi], &other.words_[wi], n);
        });
  }

  /// this[lo,hi) = other[lo,hi).
  void CopyRange(const Bitset& other, int lo, int hi) {
    XPTC_DCHECK(size_ == other.size_);
    ForEachRangeRun(
        lo, hi,
        [this, &other](size_t wi, uint64_t mask) {
          words_[wi] = (words_[wi] & ~mask) | (other.words_[wi] & mask);
        },
        [this, &other](size_t wi, size_t n) {
          simd::Active().copy_words(&words_[wi], &other.words_[wi], n);
        });
  }

  /// this[lo,hi) = ~other[lo,hi). The fused form of CopyRange + Flip that
  /// the compiled engine's kNot instruction runs (one pass, not two).
  void NotRange(const Bitset& other, int lo, int hi) {
    XPTC_DCHECK(size_ == other.size_);
    ForEachRangeRun(
        lo, hi,
        [this, &other](size_t wi, uint64_t mask) {
          words_[wi] = (words_[wi] & ~mask) | (~other.words_[wi] & mask);
        },
        [this, &other](size_t wi, size_t n) {
          simd::Active().not_words(&words_[wi], &other.words_[wi], n);
        });
  }

  /// this[lo,hi) = a[lo,hi) & ~b[lo,hi). Fused kernel for the kAndNot
  /// instruction that lowering emits for φ ∧ ¬ψ: one pass where the
  /// unfused bytecode (copy, flip, and) takes three.
  void AndNotRange(const Bitset& a, const Bitset& b, int lo, int hi) {
    XPTC_DCHECK(size_ == a.size_ && size_ == b.size_);
    ForEachRangeRun(
        lo, hi,
        [this, &a, &b](size_t wi, uint64_t mask) {
          words_[wi] =
              (words_[wi] & ~mask) | (a.words_[wi] & ~b.words_[wi] & mask);
        },
        [this, &a, &b](size_t wi, size_t n) {
          simd::Active().assign_andnot_words(&words_[wi], &a.words_[wi],
                                             &b.words_[wi], n);
        });
  }

  /// this[lo,hi) = a[lo,hi) | ~b[lo,hi). Fused kernel for kOrNot.
  void OrNotRange(const Bitset& a, const Bitset& b, int lo, int hi) {
    XPTC_DCHECK(size_ == a.size_ && size_ == b.size_);
    ForEachRangeRun(
        lo, hi,
        [this, &a, &b](size_t wi, uint64_t mask) {
          words_[wi] =
              (words_[wi] & ~mask) | ((a.words_[wi] | ~b.words_[wi]) & mask);
        },
        [this, &a, &b](size_t wi, size_t n) {
          simd::Active().assign_ornot_words(&words_[wi], &a.words_[wi],
                                            &b.words_[wi], n);
        });
  }

  /// True iff this[lo,hi) ⊆ other[lo,hi). Exits at the first word with an
  /// extra bit — the star-fixpoint convergence probe runs this every
  /// round, and non-final rounds fail fast.
  bool IsSubsetOfRange(const Bitset& other, int lo, int hi) const {
    XPTC_DCHECK(size_ == other.size_);
    CheckRange(lo, hi);
    if (lo >= hi) return true;
    const size_t wlo = static_cast<size_t>(lo) >> 6;
    const size_t whi = static_cast<size_t>(hi - 1) >> 6;
    if (wlo == whi) {
      return (words_[wlo] & ~other.words_[wlo] & HeadMask(lo) &
              TailMask(hi)) == 0;
    }
    size_t first_full = wlo;
    if ((lo & 63) != 0) {
      if ((words_[wlo] & ~other.words_[wlo] & HeadMask(lo)) != 0) return false;
      first_full = wlo + 1;
    }
    size_t last_full = whi;
    if ((hi & 63) != 0) {
      if ((words_[whi] & ~other.words_[whi] & TailMask(hi)) != 0) return false;
      last_full = whi - 1;
    }
    return first_full > last_full ||
           simd::Active().subset_words(&words_[first_full],
                                       &other.words_[first_full],
                                       last_full - first_full + 1);
  }

  Bitset& operator|=(const Bitset& other) {
    XPTC_DCHECK(size_ == other.size_);
    simd::Active().or_words(words_.data(), other.words_.data(), LiveWords());
    return *this;
  }
  Bitset& operator&=(const Bitset& other) {
    XPTC_DCHECK(size_ == other.size_);
    simd::Active().and_words(words_.data(), other.words_.data(), LiveWords());
    return *this;
  }
  Bitset& operator^=(const Bitset& other) {
    XPTC_DCHECK(size_ == other.size_);
    simd::Active().xor_words(words_.data(), other.words_.data(), LiveWords());
    return *this;
  }
  /// Removes all bits present in `other`.
  Bitset& Subtract(const Bitset& other) {
    XPTC_DCHECK(size_ == other.size_);
    simd::Active().andnot_words(words_.data(), other.words_.data(),
                                LiveWords());
    return *this;
  }
  /// Complements in place (within [0, size)).
  Bitset& Flip() {
    simd::Active().not_words(words_.data(), words_.data(), LiveWords());
    ClearPadding();
    return *this;
  }

  bool operator==(const Bitset& other) const {
    // Valid word-for-word because padding is always zero on both sides.
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const Bitset& other) const { return !(*this == other); }

  /// True if this set is a subset of `other` (early-exit, see
  /// IsSubsetOfRange).
  bool IsSubsetOf(const Bitset& other) const {
    XPTC_DCHECK(size_ == other.size_);
    return simd::Active().subset_words(words_.data(), other.words_.data(),
                                       LiveWords());
  }

  /// Materializes the set as a sorted index vector (batch-decoded).
  std::vector<int> ToVector() const {
    std::vector<int> out;
    out.reserve(static_cast<size_t>(Count()));
    ForEachSetBitBatch(0, size_, [&](const int32_t* idx, int count) {
      out.insert(out.end(), idx, idx + count);
    });
    return out;
  }

 private:
  static size_t WordCount(int size) {
    return (static_cast<size_t>(size) + 63) / 64;
  }
  /// Live words rounded up to a whole number of 64-byte lines.
  static size_t PaddedWordCount(int size) {
    return (WordCount(size) + 7) & ~size_t{7};
  }
  size_t LiveWords() const { return WordCount(size_); }
  void CheckRange(int lo, int hi) const {
    XPTC_DCHECK(lo >= 0 && lo <= size_);
    XPTC_DCHECK(hi >= 0 && hi <= size_);
  }
  /// Mask selecting bits >= lo within lo's word.
  static uint64_t HeadMask(int lo) { return ~uint64_t{0} << (lo & 63); }
  /// Mask selecting bits < hi within (hi-1)'s word. Requires hi > 0.
  static uint64_t TailMask(int hi) {
    return ~uint64_t{0} >> (63 - ((hi - 1) & 63));
  }
  /// Invokes `op(word_index, mask)` for each word overlapping [lo, hi),
  /// where `mask` selects exactly the range's bits within that word.
  template <typename Op>
  void ForEachRangeWord(int lo, int hi, Op&& op) const {
    CheckRange(lo, hi);
    if (lo >= hi) return;
    const size_t wlo = static_cast<size_t>(lo) >> 6;
    const size_t whi = static_cast<size_t>(hi - 1) >> 6;
    if (wlo == whi) {
      op(wlo, HeadMask(lo) & TailMask(hi));
      return;
    }
    op(wlo, HeadMask(lo));
    for (size_t wi = wlo + 1; wi < whi; ++wi) op(wi, ~uint64_t{0});
    op(whi, TailMask(hi));
  }
  /// Like ForEachRangeWord, but splits the range into at most two masked
  /// partial words (`masked(word_index, mask)`) and one contiguous run of
  /// whole words (`run(first_word, word_count)`) so the run can go through
  /// a word-span kernel instead of a per-word lambda.
  template <typename MaskedOp, typename RunOp>
  void ForEachRangeRun(int lo, int hi, MaskedOp&& masked, RunOp&& run) const {
    CheckRange(lo, hi);
    if (lo >= hi) return;
    const size_t wlo = static_cast<size_t>(lo) >> 6;
    const size_t whi = static_cast<size_t>(hi - 1) >> 6;
    if (wlo == whi) {
      masked(wlo, HeadMask(lo) & TailMask(hi));
      return;
    }
    size_t first_full = wlo;
    if ((lo & 63) != 0) {
      masked(wlo, HeadMask(lo));
      first_full = wlo + 1;
    }
    size_t last_full = whi;
    if ((hi & 63) != 0) {
      masked(whi, TailMask(hi));
      last_full = whi - 1;
    }
    if (first_full <= last_full) run(first_full, last_full - first_full + 1);
  }
  /// Zeroes bits >= size in the last live word. Padding words past the
  /// live range are zero from construction and never written, so only the
  /// tail word can pick up stray bits (from SetAll / Flip).
  void ClearPadding() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_[LiveWords() - 1] &= (~uint64_t{0}) >> (64 - size_ % 64);
    }
  }

  int size_;
  std::vector<uint64_t, simd::AlignedAllocator<uint64_t, 64>> words_;
};

/// Square boolean matrix over node ids; the explicit binary-relation
/// representation used by the naive (reference) evaluator.
class BitMatrix {
 public:
  BitMatrix() : n_(0) {}
  explicit BitMatrix(int n) : n_(n), rows_(static_cast<size_t>(n), Bitset(n)) {}

  int n() const { return n_; }
  bool Get(int i, int j) const { return rows_[static_cast<size_t>(i)].Get(j); }
  void Set(int i, int j) { rows_[static_cast<size_t>(i)].Set(j); }
  const Bitset& Row(int i) const { return rows_[static_cast<size_t>(i)]; }
  Bitset& Row(int i) { return rows_[static_cast<size_t>(i)]; }

  /// Sets the identity relation bits.
  void SetDiagonal() {
    for (int i = 0; i < n_; ++i) rows_[static_cast<size_t>(i)].Set(i);
  }

  BitMatrix& operator|=(const BitMatrix& other) {
    XPTC_DCHECK(n_ == other.n_);
    for (int i = 0; i < n_; ++i) rows_[static_cast<size_t>(i)] |= other.Row(i);
    return *this;
  }

  /// Relational composition: result(i,k) iff ∃j. this(i,j) ∧ other(j,k).
  BitMatrix Compose(const BitMatrix& other) const {
    XPTC_DCHECK(n_ == other.n_);
    BitMatrix result(n_);
    for (int i = 0; i < n_; ++i) {
      const Bitset& row = Row(i);
      Bitset& out = result.Row(i);
      for (int j = row.FindFirst(); j >= 0; j = row.FindNext(j)) {
        out |= other.Row(j);
      }
    }
    return result;
  }

  /// Transitive closure (not reflexive) by iterated squaring over rows
  /// (Warshall on bitset rows).
  BitMatrix TransitiveClosure() const {
    BitMatrix result = *this;
    for (int k = 0; k < n_; ++k) {
      const Bitset via = result.Row(k);  // copy: row k may gain bits
      for (int i = 0; i < n_; ++i) {
        if (result.Get(i, k)) result.Row(i) |= via;
      }
    }
    return result;
  }

  /// Converse relation (transpose).
  BitMatrix Transpose() const {
    BitMatrix result(n_);
    for (int i = 0; i < n_; ++i) {
      const Bitset& row = Row(i);
      for (int j = row.FindFirst(); j >= 0; j = row.FindNext(j)) {
        result.Set(j, i);
      }
    }
    return result;
  }

  bool operator==(const BitMatrix& other) const {
    return n_ == other.n_ && rows_ == other.rows_;
  }
  bool operator!=(const BitMatrix& other) const { return !(*this == other); }

  /// Set of sources: {i : ∃j. (i,j)}.
  Bitset Domain() const {
    Bitset out(n_);
    for (int i = 0; i < n_; ++i) {
      if (rows_[static_cast<size_t>(i)].Any()) out.Set(i);
    }
    return out;
  }

  /// Set of targets: {j : ∃i. (i,j)}.
  Bitset Range() const {
    Bitset out(n_);
    for (int i = 0; i < n_; ++i) out |= rows_[static_cast<size_t>(i)];
    return out;
  }

 private:
  int n_;
  std::vector<Bitset> rows_;
};

}  // namespace xptc

#endif  // XPTC_COMMON_BITSET_H_
