// E12 — compiled query execution (src/exec/): DAG bytecode plans and
// linear-time stars vs the PR-1 tree-walking interpreter.
//
// Three claims are measured, all consequences of T2's complexity picture:
//
//  1. DAG collapse: the interpreter re-walks every *occurrence* of a
//     repeated subexpression (pointer-identity memo over a parse tree that
//     duplicates the subtree), while lowering hash-conses the plan so each
//     distinct subexpression is one instruction. On DAG-heavy queries the
//     compiled register machine should be >= 2x the interpreter.
//
//  2. Downward linearity: time per node of downward queries stays flat as
//     n grows to 200k (T2's linear combined complexity).
//
//  3. Linear stars: a star whose fixpoint takes depth-many rounds — deep
//     chains, caterpillars and stars over two labels, so guards such as
//     [a or b] hold along whole runs — runs `ExecEngine::kStarRoundBudget`
//     register-machine rounds and is finished by the (node x body-state)
//     reachability pass, O(|body| * n) whatever the depth. The
//     `adversarial_linear` gate: ns/node at the larger n is at most 1.5x
//     the smaller on every (text, shape), and every row whose fixpoint
//     needs more rounds than the budget (the interpreter's round count)
//     reports the pass.
//
// Results are appended to BENCH_compiled.json (schema below); any
// bit-for-bit mismatch between engines dumps a replayable .case file and
// aborts the bench with exit 1, as does a failed gate.
//
// BENCH_compiled.json section schema ("exp12_compiled"):
//   {"smoke": bool,
//    "dag": {"n": int, "cases": [{"name": str, "ast_nodes": int,
//            "instrs": int, "regs": int, "dag_hits": int, "interp_us": f,
//            "compiled_us": f, "speedup": f, "match": bool}, ...]},
//    "downward": {"cases": [{"query": str, "rows": [{"n": int,
//                 "interp_ms": f, "compiled_ms": f,
//                 "compiled_ns_per_node": f, "match": bool}, ...]}, ...]},
//    "adversarial": {"budget": int, "rows": [{"text": str, "shape": str,
//                    "n": int, "interp_ms": f, "interp_rounds": int,
//                    "compiled_ms": f, "ns_per_node": f,
//                    "star_rounds": int, "reachability_pass": bool,
//                    "match": bool}, ...]},
//    "compiled_not_slower": bool,    // CI gate (see ci.yml)
//    "adversarial_linear": bool}     // CI gate (see ci.yml)

#include <benchmark/benchmark.h>

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
#include "tree/generate.h"
#include "xpath/eval.h"
#include "xpath/parser.h"

namespace xptc {
namespace {

// ---------------------------------------------------------------------------
// Part 1: DAG-heavy queries — interpreter vs compiled register machine.
//
// Each case repeats a base subexpression B many times in a boolean
// combination. The parse tree duplicates B per occurrence, so the
// interpreter pays |occurrences| x cost(B); hash-consed lowering computes B
// once.

struct DagCase {
  std::string name;
  std::string text;
};

// `(B and a) or (B and not b) or (B and c) or not B` — four pointer-
// distinct occurrences of B per wrap; `wraps` nests the construction.
std::string Duplicate(const std::string& base, int wraps) {
  std::string text = base;
  for (int i = 0; i < wraps; ++i) {
    text = "((" + text + " and a) or (" + text + " and not b) or (" + text +
           " and c) or not " + text + ")";
  }
  return text;
}

std::vector<DagCase> DagCases() {
  const std::string filter_base = "<child[a]/desc[b and <child[c]>]>";
  const std::string star_base = "<(child[a]/desc)*[b]>";
  const std::string mixed_base = "<desc[c]/anc[a]> and <child[b]/foll[c]>";
  return {
      {"dag_filter_x16", Duplicate(filter_base, 2)},
      {"dag_star_x4", Duplicate(star_base, 1)},
      {"dag_mixed_x4", Duplicate(mixed_base, 1)},
  };
}

struct DagResult {
  DagCase dag_case;
  exec::CompileStats stats;
  double interp_seconds = 0;
  double compiled_seconds = 0;
  bool match = false;
};

std::vector<DagResult> DagReport(int n, bool* all_match) {
  std::printf("\nDAG-heavy queries: interpreter vs compiled register "
              "machine (uniform random tree, n = %d):\n", n);
  bench::PrintRow({"case", "|ast|", "instrs", "interp us", "compiled us",
                   "speedup", "match"});
  Alphabet alphabet;
  const Tree tree =
      bench::BenchTree(&alphabet, n, TreeShape::kUniformRecursive, 7);
  // Warm engines on both sides: the interpreter reuses an EvalScratch (its
  // production steady state under BatchEngine), the compiled side reuses
  // one ExecEngine register file; programs are compiled once (the plan-
  // cache steady state).
  EvalScratch scratch(tree);
  exec::ExecEngine engine(tree);
  const int inner = bench::SmokeMode() ? 3 : 10;
  std::vector<DagResult> results;
  for (const DagCase& dag_case : DagCases()) {
    NodePtr query = ParseNode(dag_case.text, &alphabet).ValueOrDie();
    auto program = exec::Program::Compile(query);
    DagResult result;
    result.dag_case = dag_case;
    result.stats = program->stats();
    Bitset interp_bits(0), compiled_bits(0);
    result.interp_seconds = bench::MedianSecondsN(
        [&] {
          Evaluator evaluator(tree, &scratch);
          interp_bits = evaluator.EvalNode(*query);
        },
        inner);
    result.compiled_seconds = bench::MedianSecondsN(
        [&] { compiled_bits = engine.Eval(*program); }, inner);
    result.match = interp_bits == compiled_bits;
    bench::PrintRow(
        {dag_case.name, std::to_string(result.stats.ast_nodes),
         std::to_string(result.stats.num_instrs),
         bench::Fmt(result.interp_seconds * 1e6, 1),
         bench::Fmt(result.compiled_seconds * 1e6, 1),
         bench::Fmt(result.interp_seconds / result.compiled_seconds, 1),
         result.match ? "yes" : "MISMATCH"});
    if (!result.match) {
      *all_match = false;
      const std::string path = bench::DumpMismatchCase(
          tree, alphabet, dag_case.text,
          "exp12 DAG case: interpreter vs compiled register machine");
      std::fprintf(stderr, "FATAL: engines disagree on %s (case: %s)\n",
                   dag_case.name.c_str(), path.c_str());
    }
    results.push_back(std::move(result));
  }
  std::printf("Expected shape: speedup >= 2 on every case — the interpreter "
              "re-evaluates each textual occurrence of the repeated "
              "subexpression, the compiled plan computes it once.\n");
  return results;
}

// ---------------------------------------------------------------------------
// Part 2: downward queries — n vs time up to 200k nodes.

struct DownwardRow {
  int n = 0;
  double interp_seconds = 0;
  double compiled_seconds = 0;
  bool match = false;
};

struct DownwardCase {
  std::string name;
  std::string text;
  std::vector<DownwardRow> rows;
};

std::vector<DownwardCase> DownwardReport(bool* all_match) {
  std::vector<DownwardCase> cases = {
      {"down_boolean", "<child[a]/desc[b]> and not <dos[c]>", {}},
      {"down_star", "<(child[a])*[b]> or <desc[c and <child[a]>]>", {}},
  };
  std::vector<int> sizes = {12500, 25000, 50000, 100000, 200000};
  if (bench::SmokeMode()) sizes = {1000, 4000};
  Alphabet alphabet;
  for (DownwardCase& down_case : cases) {
    std::printf("\nDownward query %s:\n", down_case.name.c_str());
    bench::PrintRow({"n", "interp ms", "compiled ms", "ns/node", "match"});
    NodePtr query = ParseNode(down_case.text, &alphabet).ValueOrDie();
    auto program = exec::Program::Compile(query);
    for (int n : sizes) {
      const Tree tree =
          bench::BenchTree(&alphabet, n, TreeShape::kUniformRecursive, 5);
      EvalScratch scratch(tree);
      exec::ExecEngine engine(tree);
      DownwardRow row;
      row.n = n;
      Bitset interp_bits(0), compiled_bits(0);
      row.interp_seconds = bench::MedianSeconds([&] {
        Evaluator evaluator(tree, &scratch);
        interp_bits = evaluator.EvalNode(*query);
      });
      row.compiled_seconds = bench::MedianSeconds(
          [&] { compiled_bits = engine.Eval(*program); });
      row.match = interp_bits == compiled_bits;
      bench::PrintRow({std::to_string(n),
                       bench::Fmt(row.interp_seconds * 1e3, 3),
                       bench::Fmt(row.compiled_seconds * 1e3, 3),
                       bench::Fmt(row.compiled_seconds / n * 1e9, 1),
                       row.match ? "yes" : "MISMATCH"});
      if (!row.match) {
        *all_match = false;
        const std::string path = bench::DumpMismatchCase(
            tree, alphabet, down_case.text,
            "exp12 downward case: interpreter vs compiled engine");
        std::fprintf(stderr, "FATAL: engines disagree on %s at n=%d (%s)\n",
                     down_case.name.c_str(), n, path.c_str());
      }
      down_case.rows.push_back(row);
    }
  }
  std::printf("\nExpected shape: the ns/node column stays flat as n grows "
              "16x — T2's linear combined complexity.\n");
  return cases;
}

// ---------------------------------------------------------------------------
// Part 3: the adversarial regime — stars whose fixpoint takes depth-many
// rounds.
//
// Each text seeds its star at the far end of the direction its body walks
// (the root for parent steps, the leaves for child steps, the last
// siblings for right steps). With two labels the guard [a or b] holds
// everywhere, so on a chain or caterpillar the fixpoint needs ~depth
// rounds and on a star tree ~fan-out rounds: Θ(n²/64) words for a
// set-at-a-time engine that never stops. The interpreter is one such
// engine; its round count says whether the budget was outrun.

constexpr const char* kAdversarialTexts[] = {
    "<(parent[a or b])*[not <parent>]>",
    "<(child[a or b])*[not <child>]>",
    "<(right[a or b])*[not <right>]>",
    "<(parent/parent[a or b])*[not <parent>]>",
    "<(fsib/child)*[not <child>]>",
    "<((child[a])*/child)*[not <child>]>",
};

struct AdversarialRow {
  std::string text;
  std::string shape;
  int n = 0;
  double interp_seconds = 0;
  int64_t interp_rounds = 0;
  double compiled_seconds = 0;
  int64_t star_rounds = 0;
  bool reachability_pass = false;
  bool match = false;

  double ns_per_node() const { return compiled_seconds / n * 1e9; }
};

std::vector<AdversarialRow> AdversarialReport(bool* all_match,
                                              bool* linear) {
  const int64_t budget = exec::ExecEngine::kStarRoundBudget;
  std::printf("\nAdversarial stars on deep two-label trees (star-round "
              "budget %lld):\n", static_cast<long long>(budget));
  bench::PrintRow({"shape", "n", "interp ms", "interp rnds", "compiled ms",
                   "ns/node", "rounds", "pass", "match"});
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  obs::Counter& interp_rounds =
      obs::Registry::Default().counter("eval.star_rounds");
  std::vector<int> sizes = {65536, 262144};
  if (bench::SmokeMode()) sizes = {4096, 16384};
  const struct {
    const char* name;
    TreeShape shape;
  } shapes[] = {{"chain", TreeShape::kChain},
                {"caterpillar", TreeShape::kCaterpillar},
                {"star", TreeShape::kStar}};
  std::vector<AdversarialRow> rows;
  for (const char* text : kAdversarialTexts) {
    std::printf("%s\n", text);
    NodePtr query = ParseNode(text, &alphabet).ValueOrDie();
    auto program = exec::Program::Compile(query);
    for (const auto& shape : shapes) {
      for (int n : sizes) {
        Rng rng(12);
        TreeGenOptions options;
        options.num_nodes = n;
        options.shape = shape.shape;
        const Tree tree = GenerateTree(options, labels, &rng);
        EvalScratch scratch(tree);
        exec::ExecEngine engine(tree);
        AdversarialRow row;
        row.text = text;
        row.shape = shape.name;
        row.n = n;
        Bitset interp_bits(0), compiled_bits(0);
        // The interpreter gets one rep: it is quadratic here.
        const int64_t rounds_before = interp_rounds.value();
        row.interp_seconds = bench::MedianSeconds(
            [&] {
              Evaluator evaluator(tree, &scratch);
              interp_bits = evaluator.EvalNode(*query);
            },
            1);
        row.interp_rounds = interp_rounds.value() - rounds_before;
        row.compiled_seconds = bench::MedianSeconds(
            [&] { compiled_bits = engine.Eval(*program); }, 7);
        row.star_rounds = engine.last_run().star_rounds_used;
        row.reachability_pass =
            engine.last_run().dispatch ==
            exec::ExecEngine::RunInfo::Dispatch::kDownwardFallback;
        row.match = interp_bits == compiled_bits;
        bench::PrintRow({shape.name, std::to_string(n),
                         bench::Fmt(row.interp_seconds * 1e3, 2),
                         std::to_string(row.interp_rounds),
                         bench::Fmt(row.compiled_seconds * 1e3, 3),
                         bench::Fmt(row.ns_per_node(), 1),
                         std::to_string(row.star_rounds),
                         row.reachability_pass ? "yes" : "no",
                         row.match ? "yes" : "MISMATCH"});
        if (!row.match) {
          *all_match = false;
          const std::string path = bench::DumpMismatchCase(
              tree, alphabet, text, "exp12 adversarial star case");
          std::fprintf(stderr, "FATAL: engines disagree on %s, %s n=%d (%s)\n",
                       text, shape.name, n, path.c_str());
        }
        if (row.interp_rounds > budget && !row.reachability_pass) {
          *linear = false;
          std::fprintf(stderr,
                       "FATAL: %s on %s n=%d outran the budget (%lld "
                       "rounds) without the reachability pass\n",
                       text, shape.name, n,
                       static_cast<long long>(row.interp_rounds));
        }
        rows.push_back(row);
      }
      const AdversarialRow& small = rows[rows.size() - 2];
      const AdversarialRow& large = rows.back();
      if (large.ns_per_node() > 1.5 * small.ns_per_node()) {
        *linear = false;
        std::fprintf(stderr,
                     "FATAL: %s on %s: %.1f ns/node at n=%d vs %.1f at "
                     "n=%d (> 1.5x)\n",
                     text, shape.name, large.ns_per_node(), large.n,
                     small.ns_per_node(), small.n);
      }
    }
  }
  std::printf("Expected shape: interp ms grows ~quadratically wherever the "
              "interpreter's rounds grow with n; compiled ns/node stays "
              "flat, with the pass reported on every row past the "
              "budget.\n");
  return rows;
}

// ---------------------------------------------------------------------------
// JSON section.

std::string SectionJson(const std::vector<DagResult>& dag, int dag_n,
                        const std::vector<DownwardCase>& downward,
                        const std::vector<AdversarialRow>& adversarial,
                        bool compiled_not_slower, bool adversarial_linear) {
  std::ostringstream os;
  os << "{\"smoke\": " << (bench::SmokeMode() ? "true" : "false");
  os << ", \"dag\": {\"n\": " << dag_n << ", \"cases\": [";
  for (size_t i = 0; i < dag.size(); ++i) {
    const DagResult& r = dag[i];
    if (i > 0) os << ", ";
    os << "{\"name\": \"" << r.dag_case.name << "\""
       << ", \"ast_nodes\": " << r.stats.ast_nodes
       << ", \"instrs\": " << r.stats.num_instrs
       << ", \"regs\": " << r.stats.num_regs
       << ", \"dag_hits\": " << r.stats.dag_hits
       << ", \"interp_us\": " << bench::Fmt(r.interp_seconds * 1e6, 2)
       << ", \"compiled_us\": " << bench::Fmt(r.compiled_seconds * 1e6, 2)
       << ", \"speedup\": "
       << bench::Fmt(r.interp_seconds / r.compiled_seconds, 2)
       << ", \"match\": " << (r.match ? "true" : "false") << "}";
  }
  os << "]}, \"downward\": {\"cases\": [";
  for (size_t c = 0; c < downward.size(); ++c) {
    const DownwardCase& down_case = downward[c];
    if (c > 0) os << ", ";
    os << "{\"query\": \"" << down_case.name << "\", \"rows\": [";
    for (size_t i = 0; i < down_case.rows.size(); ++i) {
      const DownwardRow& row = down_case.rows[i];
      if (i > 0) os << ", ";
      os << "{\"n\": " << row.n
         << ", \"interp_ms\": " << bench::Fmt(row.interp_seconds * 1e3, 4)
         << ", \"compiled_ms\": " << bench::Fmt(row.compiled_seconds * 1e3, 4)
         << ", \"compiled_ns_per_node\": "
         << bench::Fmt(row.compiled_seconds / row.n * 1e9, 2)
         << ", \"match\": " << (row.match ? "true" : "false") << "}";
    }
    os << "]}";
  }
  os << "]}, \"adversarial\": {\"budget\": "
     << exec::ExecEngine::kStarRoundBudget << ", \"rows\": [";
  for (size_t i = 0; i < adversarial.size(); ++i) {
    const AdversarialRow& row = adversarial[i];
    if (i > 0) os << ", ";
    os << "{\"text\": \"" << row.text << "\""
       << ", \"shape\": \"" << row.shape << "\""
       << ", \"n\": " << row.n
       << ", \"interp_ms\": " << bench::Fmt(row.interp_seconds * 1e3, 3)
       << ", \"interp_rounds\": " << row.interp_rounds
       << ", \"compiled_ms\": " << bench::Fmt(row.compiled_seconds * 1e3, 4)
       << ", \"ns_per_node\": " << bench::Fmt(row.ns_per_node(), 2)
       << ", \"star_rounds\": " << row.star_rounds
       << ", \"reachability_pass\": "
       << (row.reachability_pass ? "true" : "false")
       << ", \"match\": " << (row.match ? "true" : "false") << "}";
  }
  os << "]}, \"compiled_not_slower\": "
     << (compiled_not_slower ? "true" : "false")
     << ", \"adversarial_linear\": "
     << (adversarial_linear ? "true" : "false") << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Registered microbenchmarks (complexity fits on demand).

void BM_Compiled(benchmark::State& state) {
  Alphabet alphabet;
  NodePtr query =
      ParseNode(Duplicate("<child[a]/desc[b and <child[c]>]>", 2), &alphabet)
          .ValueOrDie();
  auto program = exec::Program::Compile(query);
  const Tree tree = bench::BenchTree(
      &alphabet, static_cast<int>(state.range(0)),
      TreeShape::kUniformRecursive, 5);
  exec::ExecEngine engine(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Eval(*program));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Compiled)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

}  // namespace
}  // namespace xptc

int main(int argc, char** argv) {
  xptc::bench::PrintHeader(
      "E12: compiled query execution",
      "lowering to DAG bytecode makes evaluation cost track distinct "
      "subexpressions, and stars finish in time linear in the tree however "
      "deep their fixpoint [T2]",
      "DAG-heavy queries interpreter-vs-compiled at fixed n; downward "
      "queries on uniform trees n = 12.5k..200k; adversarial stars on "
      "two-label chains, caterpillars and stars at 64k and 256k nodes");
  const int dag_n = xptc::bench::SmokeMode() ? 2000 : 50000;
  bool all_match = true;
  bool adversarial_linear = true;
  const auto dag = xptc::DagReport(dag_n, &all_match);
  const auto downward = xptc::DownwardReport(&all_match);
  const auto adversarial =
      xptc::AdversarialReport(&all_match, &adversarial_linear);
  // Regression gate (see ci.yml): total compiled time must not exceed the
  // PR-1 interpreter on the same workload.
  double interp_total = 0, compiled_total = 0;
  for (const auto& r : dag) {
    interp_total += r.interp_seconds;
    compiled_total += r.compiled_seconds;
  }
  for (const auto& down_case : downward) {
    for (const auto& row : down_case.rows) {
      interp_total += row.interp_seconds;
      compiled_total += row.compiled_seconds;
    }
  }
  for (const auto& row : adversarial) {
    interp_total += row.interp_seconds;
    compiled_total += row.compiled_seconds;
  }
  const bool compiled_not_slower = compiled_total <= interp_total;
  xptc::bench::UpdateBenchJson(
      xptc::bench::CompiledJsonPath(), "exp12_compiled",
      xptc::SectionJson(dag, dag_n, downward, adversarial,
                        compiled_not_slower, adversarial_linear));
  // The full registry export rides along (dispatch counts, star rounds,
  // instruction totals for every run above) — the section's counter-valued
  // fields are a named slice of these.
  xptc::bench::UpdateBenchJson(xptc::bench::CompiledJsonPath(),
                               "obs_registry",
                               xptc::obs::Registry::Default().Json());
  std::printf("(recorded in %s)\n", xptc::bench::CompiledJsonPath().c_str());
  if (!all_match) return 1;
  if (!compiled_not_slower) {
    std::fprintf(stderr,
                 "FATAL: compiled engine slower than the interpreter in "
                 "aggregate (%.3f ms vs %.3f ms)\n",
                 compiled_total * 1e3, interp_total * 1e3);
    return 1;
  }
  if (!adversarial_linear) return 1;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
