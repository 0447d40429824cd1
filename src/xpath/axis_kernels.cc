#include "xpath/axis_kernels.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xptc {

namespace axis {

namespace {

Mode EnvMode() {
  static const Mode mode = [] {
    const char* env = std::getenv("XPTC_AXIS_MODE");
    if (env == nullptr || env[0] == '\0' || std::strcmp(env, "auto") == 0) {
      return Mode::kAuto;
    }
    if (std::strcmp(env, "sparse") == 0) return Mode::kSparse;
    if (std::strcmp(env, "dense") == 0) return Mode::kDense;
    if (std::strcmp(env, "interval") == 0) return Mode::kInterval;
    XPTC_CHECK(false) << "unsupported XPTC_AXIS_MODE '" << env
                      << "' (valid: auto, sparse, dense, interval)";
    return Mode::kAuto;
  }();
  return mode;
}

std::atomic<int> g_mode_override{-1};

std::atomic<bool> g_closure_collapse{true};

}  // namespace

Mode ActiveMode() {
  const int forced = g_mode_override.load(std::memory_order_relaxed);
  return forced < 0 ? EnvMode() : static_cast<Mode>(forced);
}

void SetModeForTesting(Mode mode) {
  g_mode_override.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void ResetModeForTesting() {
  g_mode_override.store(-1, std::memory_order_relaxed);
}

bool ClosureCollapseEnabled() {
  return g_closure_collapse.load(std::memory_order_relaxed);
}

void SetClosureCollapseForTesting(bool enabled) {
  g_closure_collapse.store(enabled, std::memory_order_relaxed);
}

void ResetClosureCollapseForTesting() {
  g_closure_collapse.store(true, std::memory_order_relaxed);
}

}  // namespace axis

namespace {

// Per-axis dispatch counters, fetched once (registry lookups lock; the
// kernels pay one relaxed atomic add per image). The same names flow into
// the active trace so EXPLAIN's trace-vs-registry cross-check covers them.
struct AxisMetrics {
  obs::Counter* sparse[kNumAxes];
  obs::Counter* dense[kNumAxes];
  std::string sparse_name[kNumAxes];
  std::string dense_name[kNumAxes];
  static AxisMetrics& Get() {
    static AxisMetrics* m = [] {
      auto* metrics = new AxisMetrics();
      obs::Registry& reg = obs::Registry::Default();
      for (int a = 0; a < kNumAxes; ++a) {
        const std::string name =
            std::string("axis.") + AxisToString(static_cast<Axis>(a));
        metrics->sparse_name[a] = name + ".sparse_path";
        metrics->dense_name[a] = name + ".dense_path";
        metrics->sparse[a] = &reg.counter(metrics->sparse_name[a]);
        metrics->dense[a] = &reg.counter(metrics->dense_name[a]);
      }
      return metrics;
    }();
    return *m;
  }
};

void RecordDispatch(Axis axis, bool dense) {
  AxisMetrics& m = AxisMetrics::Get();
  const int a = static_cast<int>(axis);
  (dense ? m.dense : m.sparse)[a]->Inc();
  if (obs::QueryTrace::Current() != nullptr) {
    obs::TraceAddCount((dense ? m.dense_name : m.sparse_name)[a].c_str(), 1);
  }
}

/// Sampled density estimate: `popcount(sources ∩ window) * crossover >=
/// window`, with the popcount *estimated* from a strided probe of at most
/// kDensityProbeWords words instead of a full CountRange pass — the full
/// O(window/64) pre-scan was a measurable regression on sparse frontiers
/// (it cost a whole extra pass over the very words the sparse chase was
/// about to decode). Deterministic: same sources → same probe words →
/// same decision. Sources are a subset of the window by the kernel
/// contract, so partial head/tail words need no masking.
bool DensityAboveCrossover(const Bitset& sources, NodeId lo, NodeId hi,
                           int crossover) {
  const int window = hi - lo;
  const uint64_t* words = sources.words();
  const size_t wlo = static_cast<size_t>(lo) >> 6;
  const size_t whi = static_cast<size_t>(hi - 1) >> 6;  // inclusive
  const size_t nwords = whi - wlo + 1;
  constexpr size_t kProbe = static_cast<size_t>(axis::kDensityProbeWords);
  if (nwords <= kProbe) {
    int64_t count = 0;
    for (size_t wi = wlo; wi <= whi; ++wi) {
      count += __builtin_popcountll(words[wi]);
    }
    return count * crossover >= window;
  }
  const size_t stride = nwords / kProbe;
  int64_t sampled = 0;
  for (size_t i = 0; i < kProbe; ++i) {
    sampled += __builtin_popcountll(words[wlo + i * stride]);
  }
  // Scale the sample back up to the window; integer math, overflow-safe
  // (sampled <= 64*64 bits, nwords and crossover are small).
  const int64_t estimated = sampled * static_cast<int64_t>(nwords) /
                            static_cast<int64_t>(kProbe);
  return estimated * crossover >= window;
}

/// Density gate for the column-streaming child/parent paths: the dense
/// pass costs O(window) column reads, the sparse pass O(popcount) chases —
/// so stream once the (estimated) source count passes 1/crossover of the
/// window. `kInterval` keeps child/parent on the sparse chase: it forces
/// only the closure-axis streamed kernels.
bool UseDense(const Bitset& sources, NodeId lo, NodeId hi, int crossover) {
  switch (axis::ActiveMode()) {
    case axis::Mode::kSparse:
    case axis::Mode::kInterval:
      return false;
    case axis::Mode::kDense:
      return true;
    case axis::Mode::kAuto:
      break;
  }
  const int window = hi - lo;
  if (window < axis::kDenseMinWindow) return false;
  return DensityAboveCrossover(sources, lo, hi, crossover);
}

/// Dispatch gate for the streamed closure kernels (ancestor backward
/// sweep, slot-space sibling closures): forced on by kDense *and* kInterval,
/// density-gated under kAuto — the streamed pass costs O(window) column
/// reads like the dense child/parent paths, so the same crossover applies.
bool UseStreamed(const Bitset& sources, NodeId lo, NodeId hi, int crossover) {
  switch (axis::ActiveMode()) {
    case axis::Mode::kSparse:
      return false;
    case axis::Mode::kDense:
    case axis::Mode::kInterval:
      return true;
    case axis::Mode::kAuto:
      break;
  }
  const int window = hi - lo;
  if (window < axis::kDenseMinWindow) return false;
  return DensityAboveCrossover(sources, lo, hi, crossover);
}

// The preorder columns are int32 node ids; the gather kernel indexes with
// raw int32 spans, so the column pointer is the index vector.
static_assert(sizeof(NodeId) == sizeof(int32_t),
              "streaming axis kernels gather through int32 id columns");

// The bit of `sources` at id `i`, or 0 for kNoNode.
uint64_t SourceBit(const uint64_t* src, NodeId i) {
  return i < 0 ? 0 : (src[static_cast<uint32_t>(i) >> 6] >> (i & 63)) & 1;
}

/// Gather form shared by the child, adjacent-sibling and sibling-closure
/// images: out bit v = src bit link[v] for every interior node v of the
/// window, with kNoNode links reading as 0. Interior nodes link only to
/// interior nodes, the context root (parents, siblings) or the window's
/// child slots, so the pass stays inside the window. Masked head/tail ids
/// run scalar, whole 64-id words go through the dispatched bit-gather with
/// the link column itself as the index vector.
void GatherImage(const NodeId* link, const uint64_t* src, NodeId lo,
                 NodeId hi, Bitset* out) {
  const NodeId first = lo + 1;  // the context root has no in-window links
  if (first >= hi) return;
  const NodeId head_end = std::min(hi, (first + 63) & ~63);
  for (NodeId v = first; v < head_end; ++v) {
    if (SourceBit(src, link[v])) out->Set(v);
  }
  const NodeId tail_begin = std::max(head_end, hi & ~63);
  if (head_end < tail_begin) {
    simd::Active().gather_words(
        out->mutable_words() + (head_end >> 6), src,
        reinterpret_cast<const int32_t*>(link + head_end),
        static_cast<size_t>(tail_begin - head_end) >> 6);
  }
  for (NodeId v = tail_begin; v < hi; ++v) {
    if (SourceBit(src, link[v])) out->Set(v);
  }
}

// Per-thread scratch words for the slot-space kernels, grown on demand.
uint64_t* SlotScratch(size_t words) {
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < words) scratch.resize(words);
  return scratch.data();
}

// ---------------------------------------------------------------------------
// Child image. Every node of (lo, hi) has its parent inside [lo, hi) (the
// window is a subtree), so the dense form is total on the interior:
// out bit v = sources bit parent_[v].

void ChildImageSparse(const Tree& tree, const Bitset& sources, NodeId lo,
                      NodeId hi, Bitset* out) {
  // Each source's children are one contiguous run of the slot column.
  const NodeId* slot_child = tree.SlotChildData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      const int end = tree.SlotBegin(idx[k] + 1);
      for (int s = tree.SlotBegin(idx[k]); s < end; ++s) {
        out->Set(slot_child[s]);
      }
    }
  });
}

void ChildImageDense(const Tree& tree, const Bitset& sources, NodeId lo,
                     NodeId hi, Bitset* out) {
  GatherImage(tree.ParentData(), sources.words(), lo, hi, out);
}

// ---------------------------------------------------------------------------
// Parent image. The dense form runs in the tree's child-slot space, where
// each parent's children sit in one run of slots: gather the children's
// source bits through the slot column, OR each run together, and compact
// each run's result onto its parent. Every output word is built in a
// register; no per-node read-modify-write of the output.

void ParentImageSparse(const Tree& tree, const Bitset& sources, NodeId lo,
                       NodeId hi, Bitset* out) {
  const NodeId* parent = tree.ParentData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      if (idx[k] != lo) out->Set(parent[idx[k]]);
    }
  });
}

void ParentImageDense(const Tree& tree, const Bitset& sources, NodeId lo,
                      NodeId hi, Bitset* out) {
  // The window's parents own the slot range [s0, s1), which starts at a run
  // start and ends at a run end.
  const size_t s0 = static_cast<size_t>(tree.SlotBegin(lo));
  const size_t s1 = static_cast<size_t>(tree.SlotBegin(hi));
  if (s0 == s1) return;  // the context root is a leaf
  const size_t w0 = s0 >> 6;
  const size_t nwords = ((s1 + 63) >> 6) - w0;
  // The slot column is padded with kNoNode to whole words, so the gather
  // covers the head and tail words whole; slots outside [s0, s1) are
  // other windows' children, which are never sources here.
  uint64_t* bits = SlotScratch(nwords);
  const simd::Kernels& k = simd::Active();
  k.gather_words(bits, sources.words(),
                 reinterpret_cast<const int32_t*>(tree.SlotChildData()) +
                     w0 * 64,
                 nwords);
  // Segmented OR, one carry-chain add per word: every source bit below
  // its run's last slot generates a carry (propagate + generate = 2) that
  // runs through the rest of the run (propagate bits) and is absorbed on
  // the last slot (a 0 in both operands), whose sum bit becomes 1. The
  // result per run sits on its last slot: the carry that arrived there
  // OR the last slot's own source bit.
  const uint64_t* last = tree.LastSlotWords() + w0;
  uint64_t carry = 0;
  for (size_t j = 0; j < nwords; ++j) {
    const uint64_t propagate = ~last[j];
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(propagate) + (bits[j] & propagate) +
        carry;
    carry = static_cast<uint64_t>(sum >> 64);
    bits[j] = (static_cast<uint64_t>(sum) | bits[j]) & last[j];
  }
  // Runs ending in [s0, s1) and parents in [lo, hi) correspond one to one
  // and in the same order.
  k.compact_bits(out->mutable_words(), tree.HasChildWords(),
                 static_cast<size_t>(lo), static_cast<size_t>(hi), bits,
                 last, s0 & 63, s1 - (w0 << 6));
}

// ---------------------------------------------------------------------------
// The remaining axes: batch-decoded set-bit iteration over the raw link
// columns, next to the streamed or gather-form duals the density gate
// picks on dense frontiers.

void AncestorImage(const Tree& tree, const Bitset& sources, NodeId lo,
                   NodeId hi, Bitset* out) {
  // Climb parent chains, stopping at the first already-marked ancestor
  // (everything above it is marked too): O(sources + |image|) total.
  const NodeId* parent = tree.ParentData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      NodeId v = idx[k];
      while (v != lo) {
        v = parent[v];
        if (out->Get(v)) break;
        out->Set(v);
      }
    }
  });
}

void AncestorImageSweep(const Tree& tree, const Bitset& sources, NodeId lo,
                        NodeId hi, Bitset* out) {
  // Interval stabbing, streamed: v is a strict ancestor of some source iff
  // the *nearest* source strictly after v (in preorder) still falls inside
  // v's subtree interval — sources past SubtreeEnd(v) are past every
  // earlier source too. One backward pass: the whole words of the window
  // go through the dispatched `stab_words` kernel, which tests each node
  // against the source bits above it in its word and against `nearest`,
  // the first source past the word, and carries only `nearest` between
  // words. The masked head and tail words run the same backward pass
  // scalar, carrying `nearest` through each node. O(window) column reads
  // total versus the O(sources × depth) parent chase.
  const NodeId* subtree_end = tree.SubtreeEndData();
  const uint64_t* src = sources.words();
  uint64_t* dst = out->mutable_words();
  NodeId nearest = hi;  // sentinel: no later source (subtree_end <= hi)
  // Nodes [from, to) of one word, from the top down.
  const auto partial_word = [&](NodeId from, NodeId to) {
    if (from >= to) return;
    const NodeId base = from & ~63;
    uint64_t probe = src[base >> 6] << (64 - (to - base));  // to - 1 on top
    uint64_t acc = 0;
    for (NodeId v = to - 1; v >= from; --v) {
      acc = (acc << 1) | static_cast<uint64_t>(nearest < subtree_end[v]);
      nearest = static_cast<int64_t>(probe) < 0 ? v : nearest;
      probe <<= 1;
    }
    dst[base >> 6] |= acc << (from - base);
  };
  const NodeId head_end = std::min(hi, (lo + 63) & ~63);
  const NodeId tail_begin = std::max(head_end, hi & ~63);
  partial_word(tail_begin, hi);
  if (head_end < tail_begin) {
    nearest = simd::Active().stab_words(
        dst + (head_end >> 6), src + (head_end >> 6),
        reinterpret_cast<const int32_t*>(subtree_end + head_end), head_end,
        static_cast<size_t>(tail_begin - head_end) >> 6, nearest);
  }
  partial_word(lo, head_end);
}

void DescendantImage(const Tree& tree, const Bitset& sources, NodeId lo,
                     NodeId hi, Bitset* out) {
  // The image is a union of preorder intervals [v+1, SubtreeEnd(v)),
  // each one `fill_range` write. Sources inside an already-covered
  // interval are nested subtrees and contribute nothing new, so jump
  // straight past each interval — near-optimal at both density extremes
  // (sparse: O(|S|) interval writes; dense: the first source's interval
  // covers almost everything and the scan ends in O(1) hops).
  for (int v = sources.FindFirstInRange(lo, hi); v >= 0;) {
    const NodeId end = tree.SubtreeEnd(v);
    out->SetRange(v + 1, end);
    v = end >= hi ? -1 : sources.FindFirstInRange(end, hi);
  }
}

void DescendantImageDense(const Tree& tree, const Bitset& sources, NodeId lo,
                          NodeId hi, Bitset* out) {
  // Forward propagation over the parent column: v is in the image iff its
  // parent is a source or in the image, and parent[v] < v in preorder so
  // the parent's output bit is final when v is reached. Kept as the
  // forced-kDense cross-check of the interval form above (which auto
  // always prefers — see UseStreamed).
  const NodeId* parent = tree.ParentData();
  const uint64_t* src = sources.words();
  uint64_t* dst = out->mutable_words();
  for (NodeId v = lo + 1; v < hi; ++v) {
    const NodeId p = parent[v];
    const uint64_t bit = ((src[static_cast<uint32_t>(p) >> 6] |
                           dst[static_cast<uint32_t>(p) >> 6]) >>
                          (p & 63)) &
                         1;
    dst[static_cast<uint32_t>(v) >> 6] |= bit << (v & 63);
  }
}

// Bit i of x moves to bit 63 - i.
uint64_t ReverseBits(uint64_t x) {
  constexpr uint64_t k1 = 0x5555555555555555, k2 = 0x3333333333333333,
                     k4 = 0x0F0F0F0F0F0F0F0F;
  x = __builtin_bswap64(x);
  x = ((x >> 4) & k4) | ((x & k4) << 4);
  x = ((x >> 2) & k2) | ((x & k2) << 2);
  return ((x >> 1) & k1) | ((x & k1) << 1);
}

template <bool kForward>
void SiblingClosureDense(const Tree& tree, const Bitset& sources, NodeId lo,
                         NodeId hi, Bitset* out) {
  // Slot space again: the window's child slots [s0, s1) hold each
  // parent's children as one run in sibling order, so v is in the
  // fsib-image iff some earlier slot of v's run holds a source (psib: some
  // later slot). Gather the source bits into slots, turn each run into a
  // segmented exclusive prefix with one carry-chain add per 64 slots, and
  // gather the result back to preorder through the slot-of column.
  const size_t s0 = static_cast<size_t>(tree.SlotBegin(lo));
  const size_t s1 = static_cast<size_t>(tree.SlotBegin(hi));
  if (s0 == s1) return;  // the context root is a leaf
  const size_t w0 = s0 >> 6;
  const size_t w1 = (s1 + 63) >> 6;
  // Indexed by absolute slot, so the slot-of column gathers from it
  // directly; only words [w0, w1) are written and read.
  uint64_t* bits = SlotScratch(w1);
  simd::Active().gather_words(
      bits + w0, sources.words(),
      reinterpret_cast<const int32_t*>(tree.SlotChildData()) + w0 * 64,
      w1 - w0);
  // Every source bit below the chain's stop slot generates a carry that
  // runs on (propagate bits) to the stop, where both operands are 0 and it
  // dies; the carry *into* each slot, sum ^ a ^ b, is "an earlier slot of
  // this run, in chain order, is a source". Forward the stops are the
  // runs' last slots; psib runs the same chain from high words to low on
  // bit-reversed words, whose stops are the runs' first slots. Slots
  // outside [s0, s1) hold no source but the context root's, whose run
  // lies wholly below s0.
  const uint64_t* last = tree.LastSlotWords();
  uint64_t carry = 0;
  for (size_t i = w0; i < w1; ++i) {
    const size_t j = kForward ? i : w0 + w1 - 1 - i;
    // A run's first slot follows the previous run's last slot.
    const uint64_t first = (last[j] << 1) | (j > 0 ? last[j - 1] >> 63 : 1);
    const uint64_t stop = kForward ? last[j] : ReverseBits(first);
    const uint64_t a = ~stop;
    const uint64_t b = (kForward ? bits[j] : ReverseBits(bits[j])) & a;
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(a) + b + carry;
    carry = static_cast<uint64_t>(sum >> 64);
    const uint64_t carry_in = static_cast<uint64_t>(sum) ^ a ^ b;
    bits[j] = kForward ? carry_in : ReverseBits(carry_in);
  }
  GatherImage(tree.SlotOfData(), bits, lo, hi, out);
}

template <bool kForward>
void AdjacentSiblingImage(const Tree& tree, const Bitset& sources, NodeId lo,
                          NodeId hi, Bitset* out) {
  const NodeId* link =
      kForward ? tree.NextSiblingData() : tree.PrevSiblingData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      if (idx[k] == lo) continue;  // the context root has no siblings
      const NodeId s = link[idx[k]];
      if (s != kNoNode) out->Set(s);
    }
  });
}

template <bool kForward>
void TransitiveSiblingImage(const Tree& tree, const Bitset& sources, NodeId lo,
                            NodeId hi, Bitset* out) {
  // Walk each sibling chain, stopping at the first already-marked sibling
  // (the rest of that chain is already marked).
  const NodeId* link =
      kForward ? tree.NextSiblingData() : tree.PrevSiblingData();
  sources.ForEachSetBitBatch(lo, hi, [&](const int32_t* idx, int count) {
    for (int k = 0; k < count; ++k) {
      if (idx[k] == lo) continue;
      for (NodeId s = link[idx[k]]; s != kNoNode && !out->Get(s);
           s = link[s]) {
        out->Set(s);
      }
    }
  });
}

/// The non-counting implementation body; `AxisImageInto` wraps it with the
/// dispatch decision and the per-axis counters (counted once per public
/// call — the or-self axes delegate here, not through the public entry).
/// Returns true when the streamed/dense column path ran (the `.dense_path`
/// counter), false on the per-set-bit paths.
bool AxisImageImpl(const Tree& tree, Axis axis, const Bitset& sources,
                   NodeId lo, NodeId hi, Bitset* out,
                   const axis::Calibration& cal) {
  switch (axis) {
    case Axis::kSelf:
      out->CopyRange(sources, lo, hi);
      break;
    case Axis::kChild:
      if (UseDense(sources, lo, hi, cal.child_dense_crossover)) {
        ChildImageDense(tree, sources, lo, hi, out);
        return true;
      }
      ChildImageSparse(tree, sources, lo, hi, out);
      break;
    case Axis::kParent:
      if (UseDense(sources, lo, hi, cal.parent_dense_crossover)) {
        ParentImageDense(tree, sources, lo, hi, out);
        return true;
      }
      ParentImageSparse(tree, sources, lo, hi, out);
      break;
    case Axis::kDescendant:
      // The interval-union form is near-optimal at both density extremes,
      // so auto (and kInterval) always takes it; forced kDense runs the
      // parent-column propagation pass as an independent cross-check.
      if (axis::ActiveMode() == axis::Mode::kDense) {
        DescendantImageDense(tree, sources, lo, hi, out);
        return true;
      }
      DescendantImage(tree, sources, lo, hi, out);
      break;
    case Axis::kAncestor:
      // The streamed sweep and the sibling closures read sequential columns
      // the way the dense parent image does, so they share its crossover.
      if (UseStreamed(sources, lo, hi, cal.parent_dense_crossover)) {
        AncestorImageSweep(tree, sources, lo, hi, out);
        return true;
      }
      AncestorImage(tree, sources, lo, hi, out);
      break;
    case Axis::kDescendantOrSelf: {
      const bool dense =
          AxisImageImpl(tree, Axis::kDescendant, sources, lo, hi, out, cal);
      out->OrRange(sources, lo, hi);
      return dense;
    }
    case Axis::kAncestorOrSelf: {
      const bool dense =
          AxisImageImpl(tree, Axis::kAncestor, sources, lo, hi, out, cal);
      out->OrRange(sources, lo, hi);
      return dense;
    }
    case Axis::kNextSibling:
      // Dense: v is the next sibling of a source iff its previous sibling
      // is one (dually for left). One link lookup per source against one
      // gathered bit per node: the sparse side is the parent image's
      // chase, so its crossover gates.
      if (UseDense(sources, lo, hi, cal.parent_dense_crossover)) {
        GatherImage(tree.PrevSiblingData(), sources.words(), lo, hi, out);
        return true;
      }
      AdjacentSiblingImage<true>(tree, sources, lo, hi, out);
      break;
    case Axis::kPrevSibling:
      if (UseDense(sources, lo, hi, cal.parent_dense_crossover)) {
        GatherImage(tree.NextSiblingData(), sources.words(), lo, hi, out);
        return true;
      }
      AdjacentSiblingImage<false>(tree, sources, lo, hi, out);
      break;
    case Axis::kFollowingSibling:
      if (UseStreamed(sources, lo, hi, cal.parent_dense_crossover)) {
        SiblingClosureDense<true>(tree, sources, lo, hi, out);
        return true;
      }
      TransitiveSiblingImage<true>(tree, sources, lo, hi, out);
      break;
    case Axis::kPrecedingSibling:
      if (UseStreamed(sources, lo, hi, cal.parent_dense_crossover)) {
        SiblingClosureDense<false>(tree, sources, lo, hi, out);
        return true;
      }
      TransitiveSiblingImage<false>(tree, sources, lo, hi, out);
      break;
    case Axis::kFollowing: {
      // following(n) = {m : m >= SubtreeEnd(n)} in preorder ids, so the
      // image is the id suffix [min SubtreeEnd over sources, hi). Once a
      // source id passes the running minimum, SubtreeEnd(v) > v >= min can
      // no longer improve it, so the scan stops early.
      NodeId threshold = hi;
      for (int v = sources.FindFirstInRange(lo, hi);
           v >= 0 && v < threshold && v < hi; v = sources.FindNext(v)) {
        threshold = std::min(threshold, tree.SubtreeEnd(v));
      }
      out->SetRange(std::max(threshold, lo), hi);
      break;
    }
    case Axis::kPreceding: {
      // preceding(n) = {m : SubtreeEnd(m) <= n}; only the largest source
      // id matters. Its preceding set is every earlier-in-context node
      // except its ancestors (whose subtrees extend past it).
      const int last = sources.FindLastInRange(lo, hi);
      if (last > lo) {
        out->SetRange(lo, last);
        for (NodeId a = tree.Parent(last);; a = tree.Parent(a)) {
          out->Reset(a);
          if (a == lo) break;
        }
      }
      break;
    }
  }
  return false;
}

}  // namespace

void AxisImageInto(const Tree& tree, Axis axis, const Bitset& sources,
                   NodeId lo, NodeId hi, Bitset* out) {
  const bool dense =
      AxisImageImpl(tree, axis, sources, lo, hi, out, axis::Calibration{});
  RecordDispatch(axis, dense);
}

void AxisImageInto(const Tree& tree, Axis axis, const Bitset& sources,
                   NodeId lo, NodeId hi, Bitset* out,
                   const axis::Calibration& calibration) {
  const bool dense =
      AxisImageImpl(tree, axis, sources, lo, hi, out, calibration);
  RecordDispatch(axis, dense);
}

namespace axis {

namespace {

/// Trees below this size skip the microprobe: the kernels are noise-level
/// there (and the unit/EXPLAIN fixtures stay byte-identical in behavior).
constexpr int kCalibrateMinNodes = 4096;

}  // namespace

Calibration CalibrateCrossover(const Tree& tree) {
  Calibration cal;
  const int n = tree.size();
  if (n < kCalibrateMinNodes) return cal;
  // Sparse probe at 1/64 density, dense probe saturated; both full-window.
  // The kernel bodies are called directly — no RecordDispatch, so the
  // probe never shows up in axis.* counters or EXPLAIN traces.
  Bitset sparse_src(n);
  for (NodeId v = 0; v < n; v += 64) sparse_src.Set(v);
  const int sparse_count = sparse_src.Count();
  Bitset dense_src(n, true);
  Bitset out(n);
  const auto time_ns = [&out](auto&& fn) {
    int64_t best = std::numeric_limits<int64_t>::max();
    for (int rep = 0; rep < 3; ++rep) {
      out.ResetAll();
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min<int64_t>(
          best,
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    }
    return best;
  };
  // Each vertical kernel pair is probed separately: the child chase
  // visits every child of a source while the parent chase does one lookup,
  // and the chase costs drift apart as the tree outgrows cache — one
  // shared ratio routes one axis's sparse frontiers dense (or dense
  // frontiers sparse) and loses that whole win.
  const auto ratio_of = [&](auto&& sparse_fn, auto&& dense_fn) {
    const int64_t sparse_ns = time_ns(sparse_fn);
    const int64_t dense_ns = time_ns(dense_fn);
    const double per_chase =
        static_cast<double>(sparse_ns) / std::max(sparse_count, 1);
    const double per_node = static_cast<double>(dense_ns) / n;
    const double ratio = per_node > 0
                             ? per_chase / per_node
                             : static_cast<double>(kDenseCrossover);
    return static_cast<int>(
        std::clamp(std::lround(ratio), long{2}, long{64}));
  };
  cal.child_dense_crossover =
      ratio_of([&] { ChildImageSparse(tree, sparse_src, 0, n, &out); },
               [&] { ChildImageDense(tree, dense_src, 0, n, &out); });
  cal.parent_dense_crossover =
      ratio_of([&] { ParentImageSparse(tree, sparse_src, 0, n, &out); },
               [&] { ParentImageDense(tree, dense_src, 0, n, &out); });
  return cal;
}

}  // namespace axis

}  // namespace xptc
