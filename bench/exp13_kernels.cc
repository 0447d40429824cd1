// E13 — SIMD word kernels and the bytecode superoptimizer (ISSUE 6).
//
// Two claims are measured:
//
//  1. Kernel vectorization: the engine's bulk boolean loops (ranged
//     OR/AND/ANDN/NOT and the fused AND-NOT/OR-NOT assigns) run through
//     the runtime dispatch shim (common/simd.h); on an AVX2 host the
//     vector level should be >= 2x the generic word-at-a-time level on
//     L1/L2-resident operands (n >= 64k bits). `copy` (memcpy on both
//     levels) and `count` (a scalar popcount loop on both — AVX2 has no
//     integer popcount — with hardware popcnt only in the AVX2 body) are
//     reported for context but carry no expectation.
//
//  2. Superoptimization: beam-searched rewrites of compiled programs
//     (and-not fusion, dead-code drops, star-invariant hoists) give a
//     measurable end-to-end win on the exp12-style DAG workloads — whose
//     `... and not b` / `or not X` combinators are exactly the fusable
//     shapes — and are never slower anywhere (the `superopt_not_slower`
//     CI gate, 2% tolerance for timer noise).
//
// Any bit-for-bit mismatch between base and optimized programs dumps a
// replayable .case file and exits 1; a violated not-slower gate exits 1.
//
// BENCH_kernels.json section schema ("exp13_kernels"):
//   {"smoke": bool,
//    "simd": {"active": str, "rows": [{"kernel": str, "bits": int,
//             "generic_ns": f, "active_ns": f, "speedup": f}, ...],
//             "ranged_2x_at_64k": bool},
//    "superopt": {"n": int, "cases": [{"name": str, "instrs_before": int,
//                 "instrs_after": int, "fused": int, "dropped": int,
//                 "hoisted": int, "sunk": int, "base_us": f, "opt_us": f,
//                 "speedup": f,
//                 "rewritten": bool, "match": bool}, ...]},
//    "superopt_not_slower": bool}

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bitset.h"
#include "common/rng.h"
#include "common/simd.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "exec/superopt.h"
#include "obs/metrics.h"
#include "xpath/parser.h"

namespace xptc {
namespace {

// ---------------------------------------------------------------------------
// Part 1: ranged-kernel microbench, generic level vs the detected level.
//
// Benchmarks run through the Bitset layer (not raw kernel pointers), so
// the measured path is the production one: ForEachRangeRun's head/tail
// split plus the dispatched whole-word run.

struct KernelRow {
  std::string kernel;
  int bits = 0;
  double generic_ns = 0;
  double active_ns = 0;
  bool ranged = false;  // participates in the >= 2x expectation
};

Bitset RandomBits(int bits, Rng* rng, double density = 0.4) {
  Bitset out(bits);
  for (int i = 0; i < bits; ++i) {
    if (rng->NextBool(density)) out.Set(i);
  }
  return out;
}

double KernelNs(simd::Level level, int bits, int which, int reps) {
  simd::SetLevelForTesting(level);
  Rng rng(11);
  const Bitset a = RandomBits(bits, &rng);
  Bitset b = RandomBits(bits, &rng);
  if (which == 8) b |= a;  // subset holds: the probe scans every word
  Bitset dst = RandomBits(bits, &rng);
  int64_t sink = 0;
  const double seconds = bench::MedianSecondsN(
      [&] {
        switch (which) {
          case 0: dst.OrRange(a, 0, bits); break;
          case 1: dst.AndRange(a, 0, bits); break;
          case 2: dst.SubtractRange(a, 0, bits); break;
          case 3: dst.NotRange(a, 0, bits); break;
          case 4: dst.AndNotRange(a, b, 0, bits); break;
          case 5: dst.OrNotRange(a, b, 0, bits); break;
          case 6: dst.CopyRange(a, 0, bits); break;
          case 7: sink += dst.CountRange(0, bits); break;
          case 8: sink += a.IsSubsetOfRange(b, 0, bits); break;
        }
      },
      reps);
  benchmark::DoNotOptimize(sink);
  simd::ResetLevelForTesting();
  return seconds * 1e9;
}

std::vector<KernelRow> KernelReport(bool* ranged_2x_at_64k) {
  const simd::Level active = simd::ActiveLevel();
  std::printf("\nRanged kernels, generic vs %s (production Bitset path):\n",
              simd::LevelName(active));
  bench::PrintRow({"kernel", "bits", "generic ns", "active ns", "speedup"});
  struct KernelCase {
    const char* name;
    int which;
    bool ranged;
  };
  const KernelCase kernels[] = {
      {"or", 0, true},      {"and", 1, true},    {"subtract", 2, true},
      {"not", 3, true},     {"andnot", 4, true}, {"ornot", 5, true},
      {"copy", 6, false},   {"count", 7, false}, {"subset", 8, false},
  };
  std::vector<int> sizes = {65536, 1 << 20};
  if (bench::SmokeMode()) sizes = {16384, 65536};
  *ranged_2x_at_64k = active != simd::Level::kGeneric;
  std::vector<KernelRow> rows;
  for (int bits : sizes) {
    const int reps = bits > 100000 ? 1000 : 8000;
    for (const KernelCase& kc : kernels) {
      KernelRow row;
      row.kernel = kc.name;
      row.bits = bits;
      row.ranged = kc.ranged;
      row.generic_ns = KernelNs(simd::Level::kGeneric, bits, kc.which, reps);
      row.active_ns = KernelNs(active, bits, kc.which, reps);
      const double speedup = row.generic_ns / row.active_ns;
      bench::PrintRow({kc.name, std::to_string(bits),
                       bench::Fmt(row.generic_ns, 1),
                       bench::Fmt(row.active_ns, 1),
                       bench::Fmt(speedup, 2) + "x"});
      // The 2x expectation is judged at 64k bits, where operands are
      // cache-resident and the kernel is compute-bound; at 1M bits the
      // loop is memory-bound and the vector win legitimately compresses.
      if (kc.ranged && bits == 65536 && active != simd::Level::kGeneric &&
          speedup < 2.0) {
        *ranged_2x_at_64k = false;
      }
      rows.push_back(std::move(row));
    }
  }
  if (active == simd::Level::kGeneric) {
    std::printf("(no vector level available on this host/build — generic "
                "measured against itself, no 2x expectation)\n");
  } else {
    std::printf("Expected shape: >= 2x on the boolean ranged kernels at "
                "n >= 64k; copy and count have no vector form: copy "
                "stays ~1x, count gains only the hardware popcnt.\n");
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Part 2: superoptimizer end to end — base vs optimized programs on the
// exp12-style DAG workload plus fusion- and star-shaped queries.

// exp12's DAG builder: `(B and a) or (B and not b) or (B and c) or not B`
// per wrap — four pointer-distinct occurrences of B, and the `and not` /
// `or not` combinators the superoptimizer fuses.
std::string Duplicate(const std::string& base, int wraps) {
  std::string text = base;
  for (int i = 0; i < wraps; ++i) {
    text = "((" + text + " and a) or (" + text + " and not b) or (" + text +
           " and c) or not " + text + ")";
  }
  return text;
}

struct SuperoptCase {
  std::string name;
  std::string text;
  int instrs_before = 0;
  int instrs_after = 0;
  int fused = 0;
  int dropped = 0;
  int hoisted = 0;
  int sunk = 0;
  double base_seconds = 0;
  double opt_seconds = 0;
  bool rewritten = false;
  bool match = false;
};

std::vector<SuperoptCase> SuperoptReport(int n, bool* all_match) {
  std::printf("\nSuperoptimizer, base vs optimized programs (uniform random "
              "tree, n = %d):\n", n);
  bench::PrintRow({"case", "instrs", "opt instrs", "base us", "opt us",
                   "speedup", "match"});
  std::vector<SuperoptCase> cases = {
      {"dag_filter_x16", Duplicate("<child[a]/desc[b and <child[c]>]>", 2)},
      {"dag_star_x4", Duplicate("<(child[a]/desc)*[b]>", 1)},
      {"dag_mixed_x4",
       Duplicate("<desc[c]/anc[a]> and <child[b]/foll[c]>", 1)},
      {"fuse_chain", "(a and not b) and (c and not <child[a]>) and "
                     "(<desc[b]> or not c)"},
      {"star_not_body", "<(child)*[not a]> and not <desc[b and not c]>"},
      {"unchanged_star", "<(child)*[a]>"},
  };
  Alphabet alphabet;
  const Tree tree =
      bench::BenchTree(&alphabet, n, TreeShape::kUniformRecursive, 7);
  exec::ExecEngine engine(tree);
  const int inner = bench::SmokeMode() ? 3 : 10;
  for (SuperoptCase& sc : cases) {
    NodePtr query = ParseNode(sc.text, &alphabet).ValueOrDie();
    auto base = exec::Program::Compile(query);
    auto opt = exec::Superoptimize(base);
    sc.instrs_before = static_cast<int>(base->code().size());
    sc.instrs_after = static_cast<int>(opt->code().size());
    sc.rewritten = opt->pre_superopt() != nullptr;
    if (sc.rewritten) {
      sc.fused = opt->superopt_stats().fused;
      sc.dropped = opt->superopt_stats().dropped;
      sc.hoisted = opt->superopt_stats().hoisted;
      sc.sunk = opt->superopt_stats().sunk;
    }
    Bitset base_bits(0), opt_bits(0);
    sc.base_seconds = bench::MedianSecondsN(
        [&] { base_bits = engine.EvalGeneral(*base); }, inner);
    sc.opt_seconds = bench::MedianSecondsN(
        [&] { opt_bits = engine.EvalGeneral(*opt); }, inner);
    sc.match = base_bits == opt_bits;
    bench::PrintRow({sc.name, std::to_string(sc.instrs_before),
                     std::to_string(sc.instrs_after),
                     bench::Fmt(sc.base_seconds * 1e6, 1),
                     bench::Fmt(sc.opt_seconds * 1e6, 1),
                     bench::Fmt(sc.base_seconds / sc.opt_seconds, 2) + "x",
                     sc.match ? "yes" : "MISMATCH"});
    if (!sc.match) {
      *all_match = false;
      const std::string path = bench::DumpMismatchCase(
          tree, alphabet, sc.text,
          "exp13 superopt case: base vs optimized program");
      std::fprintf(stderr, "FATAL: programs disagree on %s (case: %s)\n",
                   sc.name.c_str(), path.c_str());
    }
  }
  std::printf("Expected shape: the DAG and fusion cases lose instructions "
              "and run measurably faster (fused single-pass kernels); "
              "`unchanged_star` is returned pointer-equal and must tie.\n");
  return cases;
}

// ---------------------------------------------------------------------------
// JSON section.

std::string SectionJson(const std::vector<KernelRow>& kernels,
                        bool ranged_2x_at_64k,
                        const std::vector<SuperoptCase>& superopt, int n,
                        bool superopt_not_slower) {
  std::ostringstream os;
  os << "{\"smoke\": " << (bench::SmokeMode() ? "true" : "false");
  os << ", \"simd\": {\"active\": \""
     << simd::LevelName(simd::ActiveLevel()) << "\", \"rows\": [";
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& row = kernels[i];
    if (i > 0) os << ", ";
    os << "{\"kernel\": \"" << row.kernel << "\", \"bits\": " << row.bits
       << ", \"generic_ns\": " << bench::Fmt(row.generic_ns, 1)
       << ", \"active_ns\": " << bench::Fmt(row.active_ns, 1)
       << ", \"speedup\": "
       << bench::Fmt(row.generic_ns / row.active_ns, 2) << "}";
  }
  os << "], \"ranged_2x_at_64k\": " << (ranged_2x_at_64k ? "true" : "false")
     << "}, \"superopt\": {\"n\": " << n << ", \"cases\": [";
  for (size_t i = 0; i < superopt.size(); ++i) {
    const SuperoptCase& sc = superopt[i];
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << sc.name << "\""
       << ", \"instrs_before\": " << sc.instrs_before
       << ", \"instrs_after\": " << sc.instrs_after
       << ", \"fused\": " << sc.fused << ", \"dropped\": " << sc.dropped
       << ", \"hoisted\": " << sc.hoisted << ", \"sunk\": " << sc.sunk
       << ", \"base_us\": " << bench::Fmt(sc.base_seconds * 1e6, 2)
       << ", \"opt_us\": " << bench::Fmt(sc.opt_seconds * 1e6, 2)
       << ", \"speedup\": "
       << bench::Fmt(sc.base_seconds / sc.opt_seconds, 2)
       << ", \"rewritten\": " << (sc.rewritten ? "true" : "false")
       << ", \"match\": " << (sc.match ? "true" : "false") << "}";
  }
  os << "]}, \"superopt_not_slower\": "
     << (superopt_not_slower ? "true" : "false") << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Registered microbenchmarks (per-level scaling on demand).

void BM_OrRangeActive(benchmark::State& state) {
  Rng rng(3);
  const int bits = static_cast<int>(state.range(0));
  const Bitset a = RandomBits(bits, &rng);
  Bitset dst = RandomBits(bits, &rng);
  for (auto _ : state) {
    dst.OrRange(a, 0, bits);
    benchmark::DoNotOptimize(dst);
  }
  state.SetComplexityN(bits);
}
BENCHMARK(BM_OrRangeActive)->RangeMultiplier(8)->Range(4096, 1 << 21)
    ->Complexity();

}  // namespace
}  // namespace xptc

int main(int argc, char** argv) {
  xptc::bench::PrintHeader(
      "E13: SIMD kernels + bytecode superoptimizer",
      "vectorized word kernels cut the constant factor of every bulk "
      "boolean pass, and beam-searched bytecode rewrites (fusion, dead "
      "code, hoisting) are equivalent and never slower [ISSUE 6]",
      "ranged kernels generic-vs-detected level at 64k/1M bits; compiled "
      "programs base-vs-superoptimized on exp12-style DAG workloads at "
      "fixed n, bit-for-bit checked");
  bool ranged_2x_at_64k = false;
  const auto kernels = xptc::KernelReport(&ranged_2x_at_64k);
  const int n = xptc::bench::SmokeMode() ? 2000 : 50000;
  bool all_match = true;
  const auto superopt = xptc::SuperoptReport(n, &all_match);
  // Regression gate (see ci.yml): optimized programs must not lose to
  // their base forms in aggregate; 2% tolerance absorbs timer noise on
  // the pointer-equal (unchanged) cases.
  double base_total = 0, opt_total = 0;
  for (const auto& sc : superopt) {
    base_total += sc.base_seconds;
    opt_total += sc.opt_seconds;
  }
  const bool superopt_not_slower = opt_total <= base_total * 1.02;
  std::printf("\nsuperopt_not_slower: %s (base %.3f ms vs opt %.3f ms)\n",
              superopt_not_slower ? "true" : "false", base_total * 1e3,
              opt_total * 1e3);
  if (!ranged_2x_at_64k &&
      xptc::simd::ActiveLevel() != xptc::simd::Level::kGeneric) {
    std::printf("WARNING: a ranged kernel fell under 2x at 64k bits on "
                "this host (see table)\n");
  }
  xptc::bench::UpdateBenchJson(
      xptc::bench::KernelsJsonPath(), "exp13_kernels",
      xptc::SectionJson(kernels, ranged_2x_at_64k, superopt, n,
                        superopt_not_slower));
  xptc::bench::UpdateBenchJson(xptc::bench::KernelsJsonPath(),
                               "obs_registry",
                               xptc::obs::Registry::Default().Json());
  std::printf("(recorded in %s)\n", xptc::bench::KernelsJsonPath().c_str());
  if (!all_match) return 1;
  if (!superopt_not_slower) {
    std::fprintf(stderr,
                 "FATAL: superoptimized programs slower than base in "
                 "aggregate (%.3f ms vs %.3f ms)\n",
                 opt_total * 1e3, base_total * 1e3);
    return 1;
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
