#ifndef XPTC_XPATH_AXIS_KERNELS_H_
#define XPTC_XPATH_AXIS_KERNELS_H_

#include "common/bitset.h"
#include "tree/tree.h"
#include "xpath/ast.h"

namespace xptc {

/// Word-level axis image kernels, shared by the interpreting `Evaluator`
/// (xpath/eval.cc) and the compiled execution backend (src/exec/). One
/// implementation means one set of bugs and one perf contract. Per-axis
/// costs are tabulated in DESIGN.md §7; the density model is DESIGN.md §13.
///
/// Every kernel is *density-adaptive* where the tree layout allows it:
///
///  - sparse path: iterate the set bits of `sources` (batch-decoded a word
///    at a time — `Bitset::DecodeWord`, no lambda call per bit) and chase
///    the per-node links. Cost O(|sources| + |image|).
///  - dense path (child/parent/right/left): sequential bit-gathers through
///    the tree's id columns with the `gather_words` dispatch kernel
///    (common/simd.h). Child-image: out bit v = sources[parent_[v]];
///    right/left: out bit v = sources[prev_sibling_[v]] /
///    sources[next_sibling_[v]], kNoNode reading as 0. Parent-image runs
///    in child-slot space (Tree::SlotChildData): gather each child's bit
///    into its parent's slot run, OR every run with one carry-chain add per
///    64 slots, and compact each run's bit onto its parent
///    (`compact_bits`). Every output word is built in a register. Cost
///    O(window), bandwidth-bound instead of latency-bound.
///  - interval/streamed path (the closure axes, DESIGN.md §15):
///    descendant is a union of `fill_range` writes over preorder subtree
///    intervals [v+1, SubtreeEnd(v)) with covered intervals skipped;
///    ancestor is interval stabbing — one *backward* sweep testing each
///    node's `subtree_end_` against the sources after it: whole words go
///    through the `stab_words` dispatch kernel (AVX2: 4 independent
///    lanes per vector, testing the source bits above each node in its
///    word and the first source past the word, carried once per word),
///    masked head/tail words through the scalar loop that carries the
///    nearest later source per node;
///    following/preceding-sibling closures run in child-slot space like
///    the parent image: gather into slots, one carry-chain add per 64
///    slots turns each run into a segmented prefix (fsib) or, on
///    bit-reversed words from high to low, suffix (psib), then gather back
///    to preorder through `Tree::SlotOfData`. All are O(window/64 +
///    |sources|) single passes, no O(depth)-round fixpoint anywhere.
///
/// The auto dispatch picks the streamed path when `est_popcount *
/// dense_crossover >= window` (sampled estimate — a strided probe of at
/// most kDensityProbeWords words, not a full popcount pass) and records
/// the decision per axis on the `axis.<name>.sparse_path` /
/// `.dense_path` registry counters plus the active EXPLAIN trace.
///
/// The image is computed within the context subtree [lo, hi) of `tree`
/// (`hi == tree.SubtreeEnd(lo)`), with `lo` acting as the context root: it
/// has no parent and no siblings. `sources` must be a subset of the
/// context, and `out` must be all-zero inside the window on entry; bits
/// outside [lo, hi) are never written.
void AxisImageInto(const Tree& tree, Axis axis, const Bitset& sources,
                   NodeId lo, NodeId hi, Bitset* out);

namespace axis {

/// Dispatch policy for the density-adaptive kernels. `kAuto` (the default)
/// applies the measured popcount-vs-window crossover; `kSparse`/`kDense`
/// force one path — how the bench measures the ctz baseline and how the
/// unit tests cover both paths deterministically. `kInterval` forces the
/// interval/streamed closure kernels (descendant range-union, ancestor
/// backward sweep, sibling closures) while keeping child/parent on the
/// sparse chase. The `XPTC_AXIS_MODE` environment variable
/// (`auto` | `sparse` | `dense` | `interval`) picks the startup default.
enum class Mode : int {
  kAuto = 0,
  kSparse = 1,
  kDense = 2,
  kInterval = 3,
};

Mode ActiveMode();

/// Forces the dispatch mode. Not thread-safe against concurrent kernel
/// users; call from single-threaded setup only (same contract as
/// `simd::SetLevelForTesting`).
void SetModeForTesting(Mode mode);

/// Reverts `SetModeForTesting` to the environment/default policy.
void ResetModeForTesting();

/// Default crossover: auto dispatch takes the dense path when
/// `est_popcount * crossover >= window` — i.e. above 1/crossover density.
/// This constant is the fallback for trees without a calibrated value
/// (see `CalibrateCrossover`); bench/exp14_axis_streaming.cc re-measures
/// it every run.
inline constexpr int kDenseCrossover = 8;

/// Windows below this many nodes always take the sparse path: both paths
/// are a few dozen nanoseconds there and any density estimate would be
/// pure overhead.
inline constexpr int kDenseMinWindow = 256;

/// The density gate estimates the source popcount from a strided sample of
/// at most this many words instead of a full CountRange pass — the full
/// pre-scan was measurably regressing auto dispatch on sparse frontiers
/// (an O(window/64) extra pass per image).
inline constexpr int kDensityProbeWords = 64;

/// Per-tree dispatch calibration. The sparse/dense crossover is a ratio of
/// a pointer-chase cost to a streamed column-read cost, which varies with
/// tree shape (cache locality of the chase) and hardware; `TreeCache`
/// measures it once at admission and every evaluation on that tree
/// consults it through the calibrated `AxisImageInto` overload. The two
/// vertical axes get independent crossovers because their sparse chases
/// cost very differently — the child chase walks each source's child-slot
/// run, the parent chase is one lookup per source — and the gap widens as
/// the tree outgrows cache (a single shared ratio mispredicts whichever
/// axis it was not measured on). The parent crossover also gates the
/// adjacent-sibling gathers, whose sparse side is the same
/// one-lookup-per-source chase, and the streamed closure passes (ancestor,
/// sibling closures), whose cost model is the same
/// sequential-column-scan-vs-chase trade. A default-constructed
/// Calibration reproduces the fixed-constant policy.
struct Calibration {
  int child_dense_crossover = kDenseCrossover;
  int parent_dense_crossover = kDenseCrossover;
};

/// One-time microprobe: times the sparse chase at 1/64 density and the
/// dense column stream at full density for each vertical axis on `tree`,
/// and returns each measured per-chase / per-node cost ratio clamped to
/// [2, 64]. Trees below ~4k nodes return the default (both paths are
/// noise-level there and the probe would cost more than it saves). Calls
/// the kernel bodies directly — no dispatch counters or traces are
/// touched, so calibration never pollutes EXPLAIN output.
Calibration CalibrateCrossover(const Tree& tree);

/// Global toggle for collapsing `(axis)*` star loops into one-pass closure
/// kernels (lowering and the interpreter star fast paths both consult
/// it). Default on; exp16 turns it off to measure
/// the semi-naive fixpoint baseline. Same single-threaded-setup contract
/// as `SetModeForTesting`.
bool ClosureCollapseEnabled();
void SetClosureCollapseForTesting(bool enabled);
void ResetClosureCollapseForTesting();

}  // namespace axis

/// Calibrated overload: identical semantics, but the auto-dispatch density
/// gates use the per-axis calibrated crossovers instead of the fixed
/// default.
void AxisImageInto(const Tree& tree, Axis axis, const Bitset& sources,
                   NodeId lo, NodeId hi, Bitset* out,
                   const axis::Calibration& calibration);

}  // namespace xptc

#endif  // XPTC_XPATH_AXIS_KERNELS_H_
