#ifndef XPTC_COMMON_SIMD_H_
#define XPTC_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <new>

namespace xptc {
namespace simd {

/// The word-kernel dispatch shim: every bulk boolean loop of the engine
/// (bitset ranged ops, axis-kernel gathers and sweeps) funnels
/// through one table of kernels over raw `uint64_t` word spans, selected
/// once at runtime.
///
/// Levels:
///  - kGeneric — portable word-at-a-time loops, always available. This is
///    the semantic reference: every other level must be bit-identical
///    (tests/simd_kernels_test.cc enforces it on random inputs).
///  - kAvx2   — 4 words per vector op, compiled as target("avx2,bmi2,
///    popcnt") functions (the translation unit itself is built for
///    baseline x86-64, so the binary still runs on older hosts) and
///    selected only when `__builtin_cpu_supports` reports all three.
///    Besides the vector ops, this level is where the hardware popcnt and
///    the BMI2 pext/pdep compaction live.
///  - kNeon   — 2 words per vector op on aarch64, where NEON is baseline.
///
/// Selection: the `XPTC_SIMD` CMake option compiles the vector levels in
/// or out entirely; at runtime the `XPTC_SIMD` environment variable
/// (`auto` | `generic` | `avx2` | `neon`) overrides CPU detection —
/// `XPTC_SIMD=generic ./bench` is how the scalar baseline is measured on
/// an AVX2 host. The active level is published as the `simd.level` gauge
/// (0 = generic, 1 = avx2, 2 = neon).
enum class Level : int {
  kGeneric = 0,
  kAvx2 = 1,
  kNeon = 2,
};

const char* LevelName(Level level);

/// One dispatch table. All kernels operate on `n` whole 64-bit words;
/// spans must not overlap (except dst == a / dst == b aliasing, which
/// every kernel tolerates because it reads each word before writing it).
/// Sub-word masking is the caller's job (Bitset splits ranges into masked
/// head/tail words and a whole-word middle run).
struct Kernels {
  Level level;

  // In-place binary: dst[i] = dst[i] OP a[i].
  void (*or_words)(uint64_t* dst, const uint64_t* a, size_t n);
  void (*and_words)(uint64_t* dst, const uint64_t* a, size_t n);
  void (*andnot_words)(uint64_t* dst, const uint64_t* a, size_t n);  // dst &= ~a
  void (*xor_words)(uint64_t* dst, const uint64_t* a, size_t n);

  // Unary assign: dst[i] = f(a[i]). `copy_words` is memcpy at every
  // level: a vector loop measured slower than the library copy.
  void (*copy_words)(uint64_t* dst, const uint64_t* a, size_t n);
  void (*not_words)(uint64_t* dst, const uint64_t* a, size_t n);  // dst = ~a

  // Fused three-operand assign: dst[i] = a[i] OP b[i]. One pass where the
  // unfused bytecode forms (copy + in-place op) take two.
  void (*assign_andnot_words)(uint64_t* dst, const uint64_t* a,
                              const uint64_t* b, size_t n);  // dst = a & ~b
  void (*assign_ornot_words)(uint64_t* dst, const uint64_t* a,
                             const uint64_t* b, size_t n);  // dst = a | ~b

  // Reductions. `any` and `subset` exit at the first deciding block, so a
  // failing subset check costs O(first differing word), not O(n).
  int64_t (*popcount_words)(const uint64_t* a, size_t n);
  bool (*any_words)(const uint64_t* a, size_t n);
  bool (*subset_words)(const uint64_t* a, const uint64_t* b,
                       size_t n);  // (a & ~b) == 0 everywhere
  // Masked bit gather: dst[w] bit b = src bit idx[64*w + b], for n output
  // words (so idx has 64*n entries); a negative index gives a 0 bit, every
  // other index must be a valid bit index into src. The streaming axis
  // kernels run this with idx pointing straight into a tree's id columns
  // (`parent_`, the sibling links with their kNoNode = -1 ends, the child
  // slots) — each image one sequential pass. AVX2 uses masked hardware
  // 32-bit gathers on the word halves; NEON has no gather and aliases the
  // generic loop.
  void (*gather_words)(uint64_t* dst, const uint64_t* src, const int32_t* idx,
                       size_t n);
  // Bit compaction: the bits of `src` at the positions `src_mask` selects
  // within bit range [slo, shi) are taken in order (pext) and OR-ed, in
  // the same order, onto the positions `dst_mask` selects within
  // [dlo, dhi) of `dst` (pdep). Both ranges must select equally many
  // bits; bits of dst outside the selected positions are untouched. The
  // parent-image kernel moves each child-slot run's result onto its
  // parent with this. AVX2 uses BMI2 pext/pdep; the generic body walks
  // the selected positions of both sides in lockstep.
  void (*compact_bits)(uint64_t* dst, const uint64_t* dst_mask, size_t dlo,
                       size_t dhi, const uint64_t* src,
                       const uint64_t* src_mask, size_t slo, size_t shi);
  // Ancestor interval stabbing over n whole words of nodes from node
  // `base` (a multiple of 64): node v = base + 64*w + b gets bit b of
  // dst[w] OR-ed with "some source s has v < s < end[64*w + b]". `src`
  // holds the sources of the same words, `end` the nodes' subtree ends
  // (each > v). `nab` is the first source at or after node base + 64*n,
  // or any value >= every end when there is none; the return value is the
  // first source at or after `base` (`nab` when the span holds none), so
  // spans chain from high to low. Per word, v is in the image iff a source
  // bit above b lies below end - base, or nab < end: every lane is
  // independent and only `nab` is carried, one ctz per word. AVX2 tests 4
  // nodes per vector; the generic body (NEON aliases it) runs the backward
  // loop that carries the nearest later source through every node, which
  // beats the branch-free scalar form of the lane test twofold.
  int32_t (*stab_words)(uint64_t* dst, const uint64_t* src, const int32_t* end,
                        int32_t base, size_t n, int32_t nab);

  // Ranged kernels over *bit* positions: unlike the word kernels above,
  // these take a [lo, hi) bit range and handle the masked head/tail words
  // internally, so callers (Bitset::SetRange/OrRange, the interval axis
  // kernels' per-subtree range fills) pay no mask bookkeeping per call.
  // `fill_range` sets every bit of words[lo, hi); `or_range` does
  // dst[lo, hi) |= src[lo, hi). Bits outside the range are untouched.
  // Requires lo <= hi; lo == hi is a no-op.
  void (*fill_range)(uint64_t* words, size_t lo, size_t hi);
  void (*or_range)(uint64_t* dst, const uint64_t* src, size_t lo, size_t hi);
};

/// The active dispatch table (detection + env override, cached after the
/// first call; also sets the `simd.level` gauge). Hot paths may cache the
/// reference — the table is immutable and has static storage duration.
const Kernels& Active();

Level ActiveLevel();

/// True iff `level` was compiled in and the CPU supports it.
bool LevelAvailable(Level level);

/// The table for a specific available level (CHECK-fails otherwise);
/// `kGeneric` is always available.
const Kernels& KernelsFor(Level level);

/// Forces the active level — the scalar-vs-SIMD equivalence tests and the
/// kernel microbenches switch levels mid-process with this. Requires
/// `LevelAvailable(level)`. Not thread-safe against concurrent kernel
/// users; call from single-threaded setup only.
void SetLevelForTesting(Level level);

/// Reverts `SetLevelForTesting` to detection + env override.
void ResetLevelForTesting();

/// STL allocator returning `Alignment`-byte aligned storage. `Bitset`
/// word vectors use 64 bytes — one cache line, and enough for any vector
/// extension the shim dispatches to — so kernel loads never straddle
/// lines needlessly.
template <typename T, size_t Alignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}  // NOLINT

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }
};

}  // namespace simd
}  // namespace xptc

#endif  // XPTC_COMMON_SIMD_H_
