// E16 — one-pass closure axis kernels (PR 9): interval/streamed closure
// evaluation vs the semi-naive star fixpoint it replaces.
//
// Two claims are measured:
//
//  1. Closure collapse: lowering `(axis)*` star bodies to the one-pass
//     closure ops (kDescFill / kAncMark / kSibChain) replaces an
//     O(depth)-round fixpoint with a single streamed kernel pass. On a
//     depth-4096 chain the vertical stars must be >= 10x faster (the
//     fixpoint pays its round budget of full-bitset work, then a per-node
//     reachability pass over the rest); on shallow shapes
//     the collapse must never lose (the fixpoint converges in a few
//     rounds there, so the bar is parity, not a blowout).
//
//  2. Per-tree calibration never loses: the calibrated auto dispatch
//     (TreeCache's measured sparse/dense crossover) stays within 5% of
//     the fixed-constant policy on the exp14-style axis matrix.
//
// Every timed comparison is bit-for-bit checked across the fixpoint
// program, the collapsed program, and the interpreter in both toggle
// states; any mismatch dumps a replayable
// .case file and exits 1.
//
// BENCH_axis.json section schema ("exp16_closure_axes"):
//   {"smoke": bool,
//    "closure": {"cases": [{"shape": str, "n": int, "axis": str,
//                "fix_us": f, "clo_us": f, "speedup": f,
//                "star_rounds": int, "match": bool}, ...]},
//    "calibration": {"n": int, "child_crossover": int,
//                    "parent_crossover": int,
//                    "rows": [{"axis": str, "density": f, "default_us": f,
//                              "calibrated_us": f, "ratio": f}, ...],
//                    "calibration_within_1p05": bool},
//    "closure_not_slower": bool,     // CI gate: sum(clo) <= 1.02*sum(fix)
//    "closure_10x_chain4k": bool}    // CI gate: chain-4096 vertical stars

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "xpath/ast.h"
#include "xpath/axis_kernels.h"
#include "xpath/eval.h"

namespace xptc {
namespace {

// ---------------------------------------------------------------------------
// Part 1: star fixpoint vs collapsed closure op, per shape x axis.
//
// The plan is the raw `<(axis)*[L]>` — built from factories, not the
// parser/PlanCache, so the star survives to lowering and the toggle alone
// decides fixpoint vs closure. On the uniform/caterpillar shapes the seed
// label is BenchTree's `a` at ~1/3 density (the fixpoint converges in a
// few rounds there — parity territory). The chain is the adversarial
// regime: the seed is a SINGLE node at the far end of the star's
// direction of travel (deepest for child*, the root for parent*), so the
// fixpoint side runs `ExecEngine::kStarRoundBudget` rounds and the
// reachability pass walks the rest of the ~n nodes, while the closure
// kernel stays one word-parallel pass — that asymmetry is the 10x gate.

struct ClosureCase {
  std::string shape;
  int n = 0;
  Axis axis = Axis::kChild;
  double fix_seconds = 0;
  double clo_seconds = 0;
  int64_t star_rounds = 0;  // rounds the fixpoint actually ran
  bool match = false;
};

struct ShapeSpec {
  std::string name;
  TreeShape shape;
  int n;
};

// A depth-n chain with label `deep` on the deepest node, `root` on the
// root, and `mid` everywhere else — the sparse seeds for the vertical
// star cases.
Tree SparseChain(int n, Symbol mid, Symbol deep, Symbol root) {
  TreeBuilder builder;
  for (int i = 0; i < n; ++i) {
    builder.Begin(i == 0 ? root : (i == n - 1 ? deep : mid));
  }
  for (int i = 0; i < n; ++i) builder.End();
  return std::move(builder).Finish().ValueOrDie();
}

std::vector<ClosureCase> ClosureReport(bool* all_ok) {
  // The chain stays at 4096 even in smoke: the 10x gate is defined there,
  // and the fixpoint side is cheap at that size.
  std::vector<ShapeSpec> shapes = {
      {"chain", TreeShape::kChain, 4096},
      {"uniform", TreeShape::kUniformRecursive,
       bench::SmokeMode() ? 16384 : 65536},
      {"caterpillar", TreeShape::kCaterpillar,
       bench::SmokeMode() ? 4096 : 16384},
  };
  const std::vector<Axis> axes = {Axis::kChild, Axis::kParent,
                                  Axis::kNextSibling, Axis::kPrevSibling};
  const int inner = bench::SmokeMode() ? 3 : 10;
  std::vector<ClosureCase> results;
  Alphabet alphabet;
  const Symbol a = alphabet.Intern("a");
  const Symbol b = alphabet.Intern("b");
  const Symbol c = alphabet.Intern("c");
  for (const ShapeSpec& spec : shapes) {
    const bool is_chain = spec.shape == TreeShape::kChain;
    std::printf("\nClosure collapse on %s (n = %d%s): star fixpoint vs "
                "one-pass closure kernel:\n", spec.name.c_str(), spec.n,
                is_chain ? ", single-seed labels" : "");
    bench::PrintRow({"axis", "fix us", "closure us", "speedup", "rounds",
                     "match"});
    const Tree tree =
        is_chain ? SparseChain(spec.n, a, b, c)
                 : bench::BenchTree(&alphabet, spec.n, spec.shape, 11);
    EvalScratch scratch(tree);
    exec::ExecEngine engine(tree);
    for (Axis ax : axes) {
      // Chain vertical stars get the single far-end seed; everything else
      // filters on the ~1/3-density `a`.
      Symbol seed = a;
      if (is_chain && ax == Axis::kChild) seed = b;
      if (is_chain && ax == Axis::kParent) seed = c;
      NodePtr query = MakeSome(MakeFilter(MakeStar(MakeAxis(ax)),
                                          MakeLabel(seed)));
      // Toggle off: the star survives lowering — the pre-PR fixpoint
      // program. Toggle on (the default): lowering emits the closure op.
      axis::SetClosureCollapseForTesting(false);
      auto fix = exec::Program::Compile(query);
      axis::ResetClosureCollapseForTesting();
      auto clo = exec::Program::Compile(query);

      ClosureCase result;
      result.shape = spec.name;
      result.n = spec.n;
      result.axis = ax;
      Bitset fix_bits(0), clo_bits(0);
      result.fix_seconds = bench::MedianSecondsN(
          [&] { fix_bits = engine.Eval(*fix); }, inner);
      result.star_rounds = engine.last_run().star_rounds_used;
      result.clo_seconds = bench::MedianSecondsN(
          [&] { clo_bits = engine.Eval(*clo); }, inner);
      // Bit-for-bit: fixpoint, collapsed, and the interpreter with the
      // fast path both off and on.
      axis::SetClosureCollapseForTesting(false);
      Evaluator slow_eval(tree, &scratch);
      const Bitset interp_fix = slow_eval.EvalNode(*query);
      axis::ResetClosureCollapseForTesting();
      Evaluator fast_eval(tree, &scratch);
      const Bitset interp_clo = fast_eval.EvalNode(*query);
      result.match = fix_bits == clo_bits && fix_bits == interp_fix &&
                     fix_bits == interp_clo;

      bench::PrintRow(
          {AxisToString(ax), bench::Fmt(result.fix_seconds * 1e6, 1),
           bench::Fmt(result.clo_seconds * 1e6, 1),
           bench::Fmt(result.fix_seconds / result.clo_seconds, 1),
           std::to_string(result.star_rounds),
           result.match ? "yes" : "MISMATCH"});
      if (!result.match) {
        *all_ok = false;
        const std::string path = bench::DumpMismatchCase(
            tree, alphabet, NodeToString(*query, alphabet),
            "exp16 closure case: fixpoint vs closure vs interpreter");
        std::fprintf(stderr, "FATAL: engines disagree on %s/%s (case: %s)\n",
                     spec.name.c_str(), AxisToString(ax), path.c_str());
      }
      results.push_back(std::move(result));
    }
  }
  std::printf("Expected shape: chain child/parent rows >= 10x (the fixpoint "
              "pays its round budget, then a per-node pass), every other "
              "row >= ~1x; the rounds column is the rounds the fixpoint "
              "ran.\n");
  return results;
}

// ---------------------------------------------------------------------------
// Part 2: calibrated auto dispatch vs the fixed-constant policy.
//
// CalibrateCrossover replaces kDenseCrossover = 8 with a measured
// per-tree ratio; the acceptance bar is "never loses by > 5%" on the
// exp14-style matrix (child/parent x sparse/dense frontiers). Cells are
// re-measured up to 3 times keeping the best ratio — a systematic loss
// fails every attempt, a scheduler blip does not (same protocol as
// exp14's auto gate).

struct CalibrationRow {
  Axis axis = Axis::kChild;
  double density = 0;
  double default_seconds = 0;
  double calibrated_seconds = 0;
};

std::vector<CalibrationRow> CalibrationReport(int n,
                                              axis::Calibration* crossover,
                                              bool* within_1p05) {
  Alphabet alphabet;
  const Tree tree =
      bench::BenchTree(&alphabet, n, TreeShape::kUniformRecursive, 13);
  const axis::Calibration calibration = axis::CalibrateCrossover(tree);
  *crossover = calibration;
  std::printf("\nCalibrated crossovers on uniform n = %d: measured "
              "child %d / parent %d (fixed default %d):\n", n,
              calibration.child_dense_crossover,
              calibration.parent_dense_crossover, axis::kDenseCrossover);
  bench::PrintRow({"axis", "density", "default us", "calibrated us",
                   "ratio"});
  const int inner = bench::SmokeMode() ? 20 : 50;
  std::vector<CalibrationRow> rows;
  for (Axis ax : {Axis::kChild, Axis::kParent}) {
    for (double density : {0.02, 0.95}) {
      CalibrationRow row;
      row.axis = ax;
      row.density = density;
      Rng rng(17);
      Bitset sources(tree.size());
      for (int v = 0; v < tree.size(); ++v) {
        if (rng.NextBool(density)) sources.Set(v);
      }
      Bitset out_default(tree.size()), out_calibrated(tree.size());
      for (int attempt = 0; attempt < 3; ++attempt) {
        const double default_seconds = bench::MedianSecondsN(
            [&] {
              out_default.ResetAll();
              AxisImageInto(tree, ax, sources, 0, tree.size(), &out_default);
            },
            inner);
        const double calibrated_seconds = bench::MedianSecondsN(
            [&] {
              out_calibrated.ResetAll();
              AxisImageInto(tree, ax, sources, 0, tree.size(),
                            &out_calibrated, calibration);
            },
            inner);
        if (attempt == 0 ||
            calibrated_seconds / default_seconds <
                row.calibrated_seconds / row.default_seconds) {
          row.default_seconds = default_seconds;
          row.calibrated_seconds = calibrated_seconds;
        }
        if (row.calibrated_seconds <= row.default_seconds * 1.05) break;
      }
      if (!(out_default == out_calibrated)) {
        std::fprintf(stderr,
                     "FATAL: calibrated dispatch changed the %s image\n",
                     AxisToString(ax));
        std::exit(1);
      }
      if (row.calibrated_seconds > row.default_seconds * 1.05) {
        *within_1p05 = false;
      }
      bench::PrintRow({AxisToString(ax), bench::Fmt(density, 2),
                       bench::Fmt(row.default_seconds * 1e6, 2),
                       bench::Fmt(row.calibrated_seconds * 1e6, 2),
                       bench::Fmt(row.calibrated_seconds /
                                      row.default_seconds, 3)});
      rows.push_back(row);
    }
  }
  std::printf("Expected shape: every ratio <= 1.05 — the measured "
              "crossover may shift the dense handoff but must never "
              "lose to the constant.\n");
  return rows;
}

// ---------------------------------------------------------------------------
// JSON section.

std::string SectionJson(const std::vector<ClosureCase>& closure,
                        const std::vector<CalibrationRow>& calibration,
                        int calibration_n, const axis::Calibration& crossover,
                        bool calibration_ok, bool closure_not_slower,
                        bool closure_10x) {
  std::ostringstream os;
  os << "{\"smoke\": " << (bench::SmokeMode() ? "true" : "false");
  os << ", \"closure\": {\"cases\": [";
  for (size_t i = 0; i < closure.size(); ++i) {
    const ClosureCase& c = closure[i];
    if (i > 0) os << ", ";
    os << "{\"shape\": \"" << c.shape << "\", \"n\": " << c.n
       << ", \"axis\": \"" << AxisToString(c.axis) << "\""
       << ", \"fix_us\": " << bench::Fmt(c.fix_seconds * 1e6, 2)
       << ", \"clo_us\": " << bench::Fmt(c.clo_seconds * 1e6, 2)
       << ", \"speedup\": " << bench::Fmt(c.fix_seconds / c.clo_seconds, 2)
       << ", \"star_rounds\": " << c.star_rounds
       << ", \"match\": " << (c.match ? "true" : "false") << "}";
  }
  os << "]}, \"calibration\": {\"n\": " << calibration_n
     << ", \"child_crossover\": " << crossover.child_dense_crossover
     << ", \"parent_crossover\": " << crossover.parent_dense_crossover
     << ", \"rows\": [";
  for (size_t i = 0; i < calibration.size(); ++i) {
    const CalibrationRow& row = calibration[i];
    if (i > 0) os << ", ";
    os << "{\"axis\": \"" << AxisToString(row.axis) << "\""
       << ", \"density\": " << bench::Fmt(row.density, 2)
       << ", \"default_us\": " << bench::Fmt(row.default_seconds * 1e6, 3)
       << ", \"calibrated_us\": "
       << bench::Fmt(row.calibrated_seconds * 1e6, 3)
       << ", \"ratio\": "
       << bench::Fmt(row.calibrated_seconds / row.default_seconds, 3)
       << "}";
  }
  os << "], \"calibration_within_1p05\": "
     << (calibration_ok ? "true" : "false") << "}";
  os << ", \"closure_not_slower\": "
     << (closure_not_slower ? "true" : "false");
  os << ", \"closure_10x_chain4k\": " << (closure_10x ? "true" : "false")
     << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Registered microbenchmarks (complexity fits on demand): both the
// collapsed closure and the fixpoint, finished by the reachability pass
// past its round budget, should be ~linear in n on chains.

void BM_ClosureChain(benchmark::State& state) {
  Alphabet alphabet;
  NodePtr query = MakeSome(MakeFilter(MakeStar(MakeAxis(Axis::kChild)),
                                      MakeLabel(alphabet.Intern("a"))));
  auto program = exec::Program::Compile(query);
  const Tree tree = bench::BenchTree(
      &alphabet, static_cast<int>(state.range(0)), TreeShape::kChain, 11);
  exec::ExecEngine engine(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Eval(*program));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClosureChain)->RangeMultiplier(4)->Range(256, 16384)
    ->Complexity();

void BM_FixpointChain(benchmark::State& state) {
  Alphabet alphabet;
  NodePtr query = MakeSome(MakeFilter(MakeStar(MakeAxis(Axis::kChild)),
                                      MakeLabel(alphabet.Intern("a"))));
  axis::SetClosureCollapseForTesting(false);
  auto program = exec::Program::Compile(query);
  axis::ResetClosureCollapseForTesting();
  const Tree tree = bench::BenchTree(
      &alphabet, static_cast<int>(state.range(0)), TreeShape::kChain, 11);
  exec::ExecEngine engine(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Eval(*program));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FixpointChain)->RangeMultiplier(4)->Range(256, 16384)
    ->Complexity();

}  // namespace
}  // namespace xptc

int main(int argc, char** argv) {
  xptc::bench::PrintHeader(
      "E16: one-pass closure axis kernels",
      "closure axes ([[axis*]]) evaluate in one interval/streamed kernel "
      "pass instead of an O(depth)-round star fixpoint [T2]",
      "raw <(axis)*[a]> plans compiled with the collapse off (fixpoint "
      "kStar) and on (closure op) on chain/uniform/caterpillar trees; "
      "calibrated-vs-default auto dispatch on the exp14 axis matrix");
  bool all_ok = true;
  const auto closure = xptc::ClosureReport(&all_ok);

  const int calibration_n = 65536;
  xptc::axis::Calibration crossover;
  bool calibration_ok = true;
  const auto calibration =
      xptc::CalibrationReport(calibration_n, &crossover, &calibration_ok);

  // Gate 1: in aggregate the closure kernels must not lose to the
  // fixpoint (2% tolerance — shallow shapes are parity cases where the
  // fixpoint converges in a couple of rounds).
  double fix_total = 0, clo_total = 0;
  for (const auto& c : closure) {
    fix_total += c.fix_seconds;
    clo_total += c.clo_seconds;
  }
  const bool closure_not_slower = clo_total <= fix_total * 1.02;
  // Gate 2: the headline claim — vertical stars on the depth-4096 chain
  // are >= 10x faster collapsed.
  bool closure_10x = true;
  for (const auto& c : closure) {
    if (c.shape == "chain" &&
        (c.axis == xptc::Axis::kChild || c.axis == xptc::Axis::kParent) &&
        c.fix_seconds < c.clo_seconds * 10) {
      closure_10x = false;
      std::fprintf(stderr,
                   "FATAL: chain-%d %s* closure speedup %.1fx < 10x\n", c.n,
                   xptc::AxisToString(c.axis),
                   c.fix_seconds / c.clo_seconds);
    }
  }

  xptc::bench::UpdateBenchJson(
      xptc::bench::AxisJsonPath(), "exp16_closure_axes",
      xptc::SectionJson(closure, calibration, calibration_n, crossover,
                        calibration_ok, closure_not_slower, closure_10x));
  xptc::bench::UpdateBenchJson(xptc::bench::AxisJsonPath(), "obs_registry",
                               xptc::obs::Registry::Default().Json());
  std::printf("(recorded in %s)\n", xptc::bench::AxisJsonPath().c_str());
  if (!all_ok) return 1;
  if (!closure_not_slower) {
    std::fprintf(stderr,
                 "FATAL: closure kernels slower than the star fixpoint in "
                 "aggregate (%.3f ms vs %.3f ms)\n", clo_total * 1e3,
                 fix_total * 1e3);
    return 1;
  }
  if (!closure_10x) return 1;
  if (!calibration_ok) {
    std::fprintf(stderr,
                 "FATAL: calibrated dispatch lost to the fixed crossover "
                 "by more than 5%% (see rows above)\n");
    return 1;
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
