// E13 — SIMD word kernels.
//
// Kernel vectorization: the engine's bulk boolean loops (ranged
// OR/AND/ANDN/NOT and the fused AND-NOT/OR-NOT assigns) run through the
// runtime dispatch shim (common/simd.h); on an AVX2 host the vector level
// should be >= 2x the generic word-at-a-time level on L1/L2-resident
// operands (n >= 64k bits). `copy` (memcpy on both levels) and `count` (a
// scalar popcount loop on both — AVX2 has no integer popcount — with
// hardware popcnt only in the AVX2 body) are reported for context but
// carry no expectation.
//
// BENCH_kernels.json section schema ("exp13_kernels"):
//   {"smoke": bool,
//    "simd": {"active": str, "rows": [{"kernel": str, "bits": int,
//             "generic_ns": f, "active_ns": f, "speedup": f}, ...],
//             "ranged_2x_at_64k": bool}}

#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bitset.h"
#include "common/rng.h"
#include "common/simd.h"
#include "obs/metrics.h"

namespace xptc {
namespace {

// ---------------------------------------------------------------------------
// Ranged-kernel microbench, generic level vs the detected level.
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
// JSON section.

std::string SectionJson(const std::vector<KernelRow>& kernels,
                        bool ranged_2x_at_64k) {
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
     << "}}";
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
      "E13: SIMD kernels",
      "vectorized word kernels cut the constant factor of every bulk "
      "boolean pass",
      "ranged kernels generic-vs-detected level at 64k/1M bits");
  bool ranged_2x_at_64k = false;
  const auto kernels = xptc::KernelReport(&ranged_2x_at_64k);
  if (!ranged_2x_at_64k &&
      xptc::simd::ActiveLevel() != xptc::simd::Level::kGeneric) {
    std::printf("WARNING: a ranged kernel fell under 2x at 64k bits on "
                "this host (see table)\n");
  }
  xptc::bench::UpdateBenchJson(
      xptc::bench::KernelsJsonPath(), "exp13_kernels",
      xptc::SectionJson(kernels, ranged_2x_at_64k));
  xptc::bench::UpdateBenchJson(xptc::bench::KernelsJsonPath(),
                               "obs_registry",
                               xptc::obs::Registry::Default().Json());
  std::printf("(recorded in %s)\n", xptc::bench::KernelsJsonPath().c_str());
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
