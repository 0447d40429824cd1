// Density-dispatch equivalence tests for the shared axis image kernels
// (xpath/axis_kernels.h). Every axis is checked against a per-node
// reference — mark the axis image of each source node individually — on
// several tree shapes, with the dispatch forced to the sparse path, forced
// to the dense path, and left on auto, over both the full tree and nested
// subtree windows, with sparse and dense source sets. The sparse and dense
// paths must be bit-for-bit interchangeable: the bench gates and the fuzz
// oracles rely on the dispatch being unobservable in results.

#include "xpath/axis_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "common/rng.h"
#include "common/simd.h"
#include "obs/metrics.h"
#include "tree/generate.h"
#include "tree/tree.h"
#include "xpath/ast.h"

namespace xptc {
namespace {

struct ModeGuard {
  ~ModeGuard() { axis::ResetModeForTesting(); }
};

constexpr Axis kAllAxes[] = {
    Axis::kSelf,           Axis::kChild,
    Axis::kParent,         Axis::kDescendant,
    Axis::kAncestor,       Axis::kDescendantOrSelf,
    Axis::kAncestorOrSelf, Axis::kNextSibling,
    Axis::kPrevSibling,    Axis::kFollowingSibling,
    Axis::kPrecedingSibling, Axis::kFollowing,
    Axis::kPreceding,
};
static_assert(sizeof(kAllAxes) / sizeof(kAllAxes[0]) == kNumAxes);

// Marks the axis image of one source node `v` (context [lo, hi), context
// root `lo`: no parent, no siblings) — the obvious per-node semantics the
// set-at-a-time kernels must reproduce.
void MarkNodeImage(const Tree& tree, Axis axis, NodeId v, NodeId lo,
                   NodeId hi, Bitset* out) {
  switch (axis) {
    case Axis::kSelf:
      out->Set(v);
      break;
    case Axis::kChild:
      // The children are the subtrees tiling (v, SubtreeEnd(v)), so the
      // reference does not read the child-slot column the kernels use.
      for (NodeId c = v + 1; c < tree.SubtreeEnd(v); c = tree.SubtreeEnd(c)) {
        out->Set(c);
      }
      break;
    case Axis::kParent:
      if (v != lo) out->Set(tree.Parent(v));
      break;
    case Axis::kDescendant:
      for (NodeId m = v + 1; m < tree.SubtreeEnd(v); ++m) out->Set(m);
      break;
    case Axis::kAncestor:
      for (NodeId a = v; a != lo;) {
        a = tree.Parent(a);
        out->Set(a);
      }
      break;
    case Axis::kDescendantOrSelf:
      MarkNodeImage(tree, Axis::kDescendant, v, lo, hi, out);
      out->Set(v);
      break;
    case Axis::kAncestorOrSelf:
      MarkNodeImage(tree, Axis::kAncestor, v, lo, hi, out);
      out->Set(v);
      break;
    case Axis::kNextSibling:
      if (v != lo && tree.NextSibling(v) != kNoNode) {
        out->Set(tree.NextSibling(v));
      }
      break;
    case Axis::kPrevSibling:
      if (v != lo && tree.PrevSibling(v) != kNoNode) {
        out->Set(tree.PrevSibling(v));
      }
      break;
    case Axis::kFollowingSibling:
      if (v != lo) {
        for (NodeId s = tree.NextSibling(v); s != kNoNode;
             s = tree.NextSibling(s)) {
          out->Set(s);
        }
      }
      break;
    case Axis::kPrecedingSibling:
      if (v != lo) {
        for (NodeId s = tree.PrevSibling(v); s != kNoNode;
             s = tree.PrevSibling(s)) {
          out->Set(s);
        }
      }
      break;
    case Axis::kFollowing:
      for (NodeId m = tree.SubtreeEnd(v); m < hi; ++m) out->Set(m);
      break;
    case Axis::kPreceding:
      for (NodeId m = lo; m < v; ++m) {
        if (tree.SubtreeEnd(m) <= v) out->Set(m);
      }
      break;
  }
}

Bitset ReferenceImage(const Tree& tree, Axis axis, const Bitset& sources,
                      NodeId lo, NodeId hi) {
  Bitset out(tree.size());
  for (int v = sources.FindFirstInRange(lo, hi); v >= 0 && v < hi;
       v = sources.FindNext(v)) {
    MarkNodeImage(tree, axis, v, lo, hi, &out);
  }
  return out;
}

Bitset RandomSources(const Tree& tree, NodeId lo, NodeId hi, double density,
                     Rng* rng) {
  Bitset out(tree.size());
  for (NodeId v = lo; v < hi; ++v) {
    if (rng->NextBool(density)) out.Set(v);
  }
  return out;
}

// Every axis × {sparse, dense, auto} dispatch × {sparse, dense} sources,
// on the full tree and on nested subtree windows, must equal the per-node
// reference bit for bit.
void CheckTree(const Tree& tree, Rng* rng) {
  ModeGuard guard;
  // The full tree plus every subtree window big enough to be interesting
  // (capped to keep the sweep quick).
  std::vector<NodeId> roots = {0};
  for (NodeId v = 1; v < tree.size() && roots.size() < 6; ++v) {
    if (tree.SubtreeSize(v) >= 8) roots.push_back(v);
  }
  for (NodeId lo : roots) {
    const NodeId hi = tree.SubtreeEnd(lo);
    for (double density : {0.03, 0.6}) {
      const Bitset sources = RandomSources(tree, lo, hi, density, rng);
      for (Axis axis : kAllAxes) {
        const Bitset expected = ReferenceImage(tree, axis, sources, lo, hi);
        for (axis::Mode mode : {axis::Mode::kSparse, axis::Mode::kDense,
                                axis::Mode::kAuto, axis::Mode::kInterval}) {
          axis::SetModeForTesting(mode);
          Bitset got(tree.size());
          AxisImageInto(tree, axis, sources, lo, hi, &got);
          ASSERT_EQ(got, expected)
              << AxisToString(axis) << " mode=" << static_cast<int>(mode)
              << " window=[" << lo << "," << hi << ") density=" << density
              << " n=" << tree.size();
        }
      }
    }
  }
}

TEST(AxisKernelsTest, AllAxesMatchReferenceAcrossShapesAndModes) {
  Alphabet alphabet;
  Rng rng(20260807);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  for (TreeShape shape :
       {TreeShape::kUniformRecursive, TreeShape::kChain, TreeShape::kStar,
        TreeShape::kFullBinary, TreeShape::kCaterpillar}) {
    for (int n : {1, 5, 63, 64, 65, 300, 1000}) {
      TreeGenOptions options;
      options.num_nodes = n;
      options.shape = shape;
      const Tree tree = GenerateTree(options, labels, &rng);
      CheckTree(tree, &rng);
    }
  }
}

// Deep chains (the vertical closure kernels' worst fixpoint shape: one
// interval / one backward sweep replaces ~depth rounds) and a wide star
// (the sibling-chain kernels' worst shape) at 10k+ nodes, with sparse
// source sets so the per-node reference stays near-linear. Covers the
// interval descendant union, the ancestor stabbing sweep, and both
// sibling chain directions on full-tree and subtree windows.
TEST(AxisKernelsTest, DeepChainAndWideStarClosureKernels) {
  ModeGuard guard;
  Alphabet alphabet;
  Rng rng(20260808);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  for (TreeShape shape : {TreeShape::kChain, TreeShape::kStar}) {
    TreeGenOptions options;
    options.num_nodes = 12289;  // odd: exercises the tail-word masking
    options.shape = shape;
    const Tree tree = GenerateTree(options, labels, &rng);
    // Full tree plus one interior subtree window (chain: a deep suffix;
    // star: degenerate one-node subtrees, so the window is the leaf case).
    std::vector<NodeId> roots = {0};
    if (tree.SubtreeSize(tree.size() / 3) >= 2) {
      roots.push_back(tree.size() / 3);
    }
    for (NodeId lo : roots) {
      const NodeId hi = tree.SubtreeEnd(lo);
      Bitset sources(tree.size());
      for (int i = 0; i < 32; ++i) sources.Set(rng.NextInt(lo, hi - 1));
      for (Axis axis : kAllAxes) {
        const Bitset expected = ReferenceImage(tree, axis, sources, lo, hi);
        for (axis::Mode mode : {axis::Mode::kSparse, axis::Mode::kDense,
                                axis::Mode::kAuto, axis::Mode::kInterval}) {
          axis::SetModeForTesting(mode);
          Bitset got(tree.size());
          AxisImageInto(tree, axis, sources, lo, hi, &got);
          ASSERT_EQ(got, expected)
              << AxisToString(axis) << " mode=" << static_cast<int>(mode)
              << " shape=" << static_cast<int>(shape) << " window=[" << lo
              << "," << hi << ")";
        }
      }
    }
  }
}

// Per-tree calibration: trees below the probe threshold keep the default
// constant; large trees produce a crossover inside the clamp range, and
// calibrated dispatch stays bit-for-bit identical to the default.
TEST(AxisKernelsTest, CalibratedCrossoverStaysExact) {
  ModeGuard guard;
  Alphabet alphabet;
  Rng rng(20260809);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  TreeGenOptions small_options;
  small_options.num_nodes = 256;
  const Tree small = GenerateTree(small_options, labels, &rng);
  const axis::Calibration small_cal = axis::CalibrateCrossover(small);
  EXPECT_EQ(small_cal.child_dense_crossover, axis::kDenseCrossover);
  EXPECT_EQ(small_cal.parent_dense_crossover, axis::kDenseCrossover);

  TreeGenOptions options;
  options.num_nodes = 16384;
  const Tree tree = GenerateTree(options, labels, &rng);
  const axis::Calibration calibration = axis::CalibrateCrossover(tree);
  EXPECT_GE(calibration.child_dense_crossover, 2);
  EXPECT_LE(calibration.child_dense_crossover, 64);
  EXPECT_GE(calibration.parent_dense_crossover, 2);
  EXPECT_LE(calibration.parent_dense_crossover, 64);

  for (double density : {0.02, 0.5}) {
    const Bitset sources = RandomSources(tree, 0, tree.size(), density, &rng);
    for (Axis axis : kAllAxes) {
      Bitset default_out(tree.size());
      AxisImageInto(tree, axis, sources, 0, tree.size(), &default_out);
      Bitset calibrated_out(tree.size());
      AxisImageInto(tree, axis, sources, 0, tree.size(), &calibrated_out,
                    calibration);
      ASSERT_EQ(default_out, calibrated_out)
          << AxisToString(axis) << " density=" << density;
    }
  }
}

// The dense parent image works in child-slot space: a window [lo, hi) owns
// the slots [SlotBegin(lo), SlotBegin(hi)), which in general start and end
// mid-word, while the window itself starts and ends mid-word in node
// space. Windows with both slot ends mid-word, at sizes on both sides of
// kDenseMinWindow, must match the reference under forced-dense and auto
// dispatch at every SIMD level (the gather and the compaction have scalar
// and vector forms), for the parent image and the other gather-form
// images. The ancestor sweep splits a window into masked head and tail
// words and a whole-word run for the dispatched stab kernel, so windows
// whose node ends both fall mid-word with whole words between them are
// added and counted.
TEST(AxisKernelsTest, DenseImagesOnMidWordSlotWindows) {
  ModeGuard guard;
  struct LevelGuard {
    ~LevelGuard() { simd::ResetLevelForTesting(); }
  } level_guard;
  Alphabet alphabet;
  Rng rng(20260810);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  std::vector<simd::Level> levels = {simd::Level::kGeneric};
  for (simd::Level level : {simd::Level::kAvx2, simd::Level::kNeon}) {
    if (simd::LevelAvailable(level)) levels.push_back(level);
  }
  const Axis axes[] = {Axis::kParent,      Axis::kChild,
                       Axis::kNextSibling, Axis::kPrevSibling,
                       Axis::kAncestor,    Axis::kAncestorOrSelf};
  int windows_checked = 0;
  int stab_windows = 0;  // node ends mid-word, whole words between them
  for (TreeShape shape :
       {TreeShape::kUniformRecursive, TreeShape::kCaterpillar,
        TreeShape::kFullBinary}) {
    TreeGenOptions options;
    options.num_nodes = 6000;
    options.shape = shape;
    const Tree tree = GenerateTree(options, labels, &rng);
    std::vector<NodeId> roots;
    int large = 0;
    for (NodeId v = 1; v < tree.size() && roots.size() < 8; ++v) {
      const NodeId end = tree.SubtreeEnd(v);
      if (tree.SlotBegin(v) % 64 == 0 || tree.SlotBegin(end) % 64 == 0 ||
          end - v < 16) {
        continue;
      }
      const bool is_large = end - v >= axis::kDenseMinWindow;
      if (!is_large && roots.size() - large >= 4) continue;
      large += is_large;
      roots.push_back(v);
    }
    ASSERT_GT(large, 0) << "shape " << static_cast<int>(shape);
    const auto whole_words_between = [](NodeId lo, NodeId hi) {
      return lo % 64 != 0 && hi % 64 != 0 &&
             ((lo + 63) & ~63) < (hi & ~63);
    };
    for (NodeId v = 1, added = 0; v < tree.size() && added < 4; ++v) {
      if (whole_words_between(v, tree.SubtreeEnd(v)) &&
          std::find(roots.begin(), roots.end(), v) == roots.end()) {
        roots.push_back(v);
        ++added;
      }
    }
    for (NodeId lo : roots) {
      const NodeId hi = tree.SubtreeEnd(lo);
      stab_windows += whole_words_between(lo, hi);
      for (double density : {0.05, 0.5, 1.0}) {
        const Bitset sources = RandomSources(tree, lo, hi, density, &rng);
        for (Axis axis : axes) {
          const Bitset expected = ReferenceImage(tree, axis, sources, lo, hi);
          for (simd::Level level : levels) {
            simd::SetLevelForTesting(level);
            for (axis::Mode mode : {axis::Mode::kDense, axis::Mode::kAuto}) {
              axis::SetModeForTesting(mode);
              Bitset got(tree.size());
              AxisImageInto(tree, axis, sources, lo, hi, &got);
              ASSERT_EQ(got, expected)
                  << AxisToString(axis) << " level="
                  << simd::LevelName(level)
                  << " mode=" << static_cast<int>(mode) << " window=[" << lo
                  << "," << hi << ") slots=[" << tree.SlotBegin(lo) << ","
                  << tree.SlotBegin(hi) << ") density=" << density;
            }
          }
        }
      }
      ++windows_checked;
    }
  }
  EXPECT_GE(windows_checked, 12);
  EXPECT_GE(stab_windows, 9);
}

// Builds `root(g(f...), g(f...), leaf)`: each group `g` holds fans with the
// given child counts, and every 7th fan leaf gets one child of its own.
// Fan runs of 1..257 slots land at varied offsets within slot words, so
// runs cross word boundaries, and runs of 200+ slots carry across several
// words; the one-child leaves make single-slot runs.
Tree FanForest(const std::vector<std::vector<int>>& groups, Symbol a,
               Symbol b) {
  TreeBuilder builder;
  builder.Begin(a);
  int leaves = 0;
  for (const std::vector<int>& fans : groups) {
    builder.Begin(b);
    for (int fan : fans) {
      builder.Begin(a);
      for (int i = 0; i < fan; ++i) {
        builder.Begin(++leaves % 2 == 0 ? a : b);
        if (leaves % 7 == 0) builder.Leaf(a);
        builder.End();
      }
      builder.End();
    }
    builder.End();
  }
  builder.Leaf(b);
  builder.End();
  return std::move(builder).Finish().ValueOrDie();
}

// The sibling closures run in child-slot space: each window's slot range
// is scanned as segmented runs with a carry that crosses slot words, then
// gathered back to preorder. Compared against per-node sibling-chain walks
// (MarkNodeImage) under every mode that reaches the slot-space kernel —
// forced dense, interval, and auto — at every SIMD level, on windows whose
// slot ranges start and end mid-word, with runs that cross words, single-
// slot runs, and star runs of 200+ slots.
TEST(AxisKernelsTest, SiblingClosuresOnMidWordSlotWindows) {
  ModeGuard guard;
  struct LevelGuard {
    ~LevelGuard() { simd::ResetLevelForTesting(); }
  } level_guard;
  Alphabet alphabet;
  Rng rng(20260811);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  std::vector<simd::Level> levels = {simd::Level::kGeneric};
  for (simd::Level level : {simd::Level::kAvx2, simd::Level::kNeon}) {
    if (simd::LevelAvailable(level)) levels.push_back(level);
  }
  std::vector<Tree> trees;
  trees.push_back(FanForest({{1, 1, 3, 200, 1, 65, 64, 2, 257, 1, 9},
                             {130, 1, 1, 1, 70, 5, 63},
                             {31, 33, 210}},
                            labels[0], labels[1]));
  for (TreeShape shape : {TreeShape::kStar, TreeShape::kUniformRecursive,
                          TreeShape::kCaterpillar}) {
    TreeGenOptions options;
    options.num_nodes = 3000;
    options.shape = shape;
    trees.push_back(GenerateTree(options, labels, &rng));
  }
  int mid_word_windows = 0;
  int single_slot_runs = 0;
  int cross_word_runs = 0;
  int long_runs = 0;
  for (const Tree& tree : trees) {
    // The full tree, plus windows whose slot range starts and ends
    // mid-word; each run in a checked window is tallied once.
    std::vector<NodeId> roots = {0};
    for (NodeId v = 1; v < tree.size() && roots.size() < 12; ++v) {
      const int s0 = tree.SlotBegin(v);
      const int s1 = tree.SlotBegin(tree.SubtreeEnd(v));
      if (s1 - s0 >= 2 && s0 % 64 != 0 && s1 % 64 != 0) roots.push_back(v);
    }
    mid_word_windows += static_cast<int>(roots.size()) - 1;
    for (NodeId p = 0; p < tree.size(); ++p) {
      const int begin = tree.SlotBegin(p);
      const int end = tree.SlotBegin(p + 1);
      single_slot_runs += end - begin == 1;
      cross_word_runs += end > begin && begin / 64 != (end - 1) / 64;
      long_runs += end - begin >= 200;
    }
    for (NodeId lo : roots) {
      const NodeId hi = tree.SubtreeEnd(lo);
      for (double density : {0.02, 0.3, 0.9, 1.0}) {
        const Bitset sources = RandomSources(tree, lo, hi, density, &rng);
        for (Axis axis : {Axis::kFollowingSibling, Axis::kPrecedingSibling}) {
          const Bitset expected = ReferenceImage(tree, axis, sources, lo, hi);
          for (simd::Level level : levels) {
            simd::SetLevelForTesting(level);
            for (axis::Mode mode : {axis::Mode::kDense, axis::Mode::kAuto,
                                    axis::Mode::kInterval}) {
              axis::SetModeForTesting(mode);
              Bitset got(tree.size());
              AxisImageInto(tree, axis, sources, lo, hi, &got);
              ASSERT_EQ(got, expected)
                  << AxisToString(axis) << " level="
                  << simd::LevelName(level)
                  << " mode=" << static_cast<int>(mode) << " window=[" << lo
                  << "," << hi << ") slots=[" << tree.SlotBegin(lo) << ","
                  << tree.SlotBegin(hi) << ") density=" << density
                  << " n=" << tree.size();
            }
          }
        }
      }
    }
  }
  EXPECT_GE(mid_word_windows, 20);
  EXPECT_GT(single_slot_runs, 0);
  EXPECT_GT(cross_word_runs, 0);
  EXPECT_GE(long_runs, 3);
}

// The auto crossover must pick the dense path for saturated windows and
// the sparse path for near-empty ones (observable via registry counters).
TEST(AxisKernelsTest, AutoDispatchFollowsDensity) {
  ModeGuard guard;
  axis::ResetModeForTesting();
  Alphabet alphabet;
  Rng rng(7);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  TreeGenOptions options;
  options.num_nodes = 4096;
  const Tree tree = GenerateTree(options, labels, &rng);

  Bitset all(tree.size());
  all.SetRange(0, tree.size());
  Bitset one(tree.size());
  one.Set(0);

  auto& reg = obs::Registry::Default();
  auto delta = [&](const char* name, auto&& fn) {
    const int64_t before = reg.counter(name).value();
    fn();
    return reg.counter(name).value() - before;
  };

  Bitset out(tree.size());
  EXPECT_EQ(delta("axis.child.dense_path",
                  [&] {
                    out.ResetAll();
                    AxisImageInto(tree, Axis::kChild, all, 0, tree.size(),
                                  &out);
                  }),
            1);
  EXPECT_EQ(delta("axis.parent.dense_path",
                  [&] {
                    out.ResetAll();
                    AxisImageInto(tree, Axis::kParent, all, 0, tree.size(),
                                  &out);
                  }),
            1);
  EXPECT_EQ(delta("axis.child.sparse_path",
                  [&] {
                    out.ResetAll();
                    AxisImageInto(tree, Axis::kChild, one, 0, tree.size(),
                                  &out);
                  }),
            1);
}

// Tiny windows always take the sparse path under auto: the popcount
// pre-pass would dominate there.
TEST(AxisKernelsTest, AutoDispatchKeepsSmallWindowsSparse) {
  ModeGuard guard;
  axis::ResetModeForTesting();
  Alphabet alphabet;
  Rng rng(8);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  TreeGenOptions options;
  options.num_nodes = axis::kDenseMinWindow - 1;
  const Tree tree = GenerateTree(options, labels, &rng);
  Bitset all(tree.size());
  all.SetRange(0, tree.size());
  auto& reg = obs::Registry::Default();
  const int64_t before = reg.counter("axis.child.sparse_path").value();
  Bitset out(tree.size());
  AxisImageInto(tree, Axis::kChild, all, 0, tree.size(), &out);
  EXPECT_EQ(reg.counter("axis.child.sparse_path").value() - before, 1);
}

// Mode forcing helpers round-trip and the SIMD level does not change
// dispatch results: forced-dense child images agree between the active
// and generic kernels (the gather has scalar and vector forms).
TEST(AxisKernelsTest, DenseChildAgreesAcrossSimdLevels) {
  ModeGuard guard;
  axis::SetModeForTesting(axis::Mode::kDense);
  Alphabet alphabet;
  Rng rng(9);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  TreeGenOptions options;
  options.num_nodes = 3000;
  options.shape = TreeShape::kUniformRecursive;
  const Tree tree = GenerateTree(options, labels, &rng);
  const Bitset sources = RandomSources(tree, 0, tree.size(), 0.5, &rng);

  Bitset generic_out(tree.size());
  simd::SetLevelForTesting(simd::Level::kGeneric);
  AxisImageInto(tree, Axis::kChild, sources, 0, tree.size(), &generic_out);
  simd::ResetLevelForTesting();

  Bitset active_out(tree.size());
  AxisImageInto(tree, Axis::kChild, sources, 0, tree.size(), &active_out);
  EXPECT_EQ(generic_out, active_out);
}

}  // namespace
}  // namespace xptc
