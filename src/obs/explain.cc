#include "obs/explain.h"

#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "exec/engine.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tree/generate.h"
#include "tree/xml.h"
#include "workload/plan_cache.h"
#include "workload/tree_cache.h"
#include "xpath/ast.h"
#include "xpath/fragment.h"

namespace xptc {
namespace obs {

namespace {

Result<TreeShape> ShapeFromString(const std::string& name) {
  static constexpr TreeShape kShapes[] = {
      TreeShape::kUniformRecursive, TreeShape::kChain,
      TreeShape::kStar,             TreeShape::kFullBinary,
      TreeShape::kFullKAry,         TreeShape::kComb,
      TreeShape::kCaterpillar};
  for (TreeShape shape : kShapes) {
    if (name == TreeShapeToString(shape)) return shape;
  }
  std::string valid;
  for (TreeShape shape : kShapes) {
    if (!valid.empty()) valid += ", ";
    valid += TreeShapeToString(shape);
  }
  return Status::InvalidArgument("unknown tree shape '" + name +
                                 "' (valid: " + valid + ")");
}

/// Sums attribute `key` over the whole trace tree (instrumentation sites
/// attach counts to whichever span was current, so the registry-level total
/// is the sum over all nodes).
int64_t SumAttr(const TraceNode& node, const std::string& key) {
  int64_t total = 0;
  if (const int64_t* v = node.FindAttr(key)) total += *v;
  for (const auto& child : node.children) total += SumAttr(*child, key);
  return total;
}

/// Counts exact-match notes over the whole trace tree (cache provenance
/// notes must reconcile with the registry's hit/miss counters).
int64_t CountNotes(const TraceNode& node, const std::string& note) {
  int64_t total = 0;
  for (const std::string& n : node.notes) {
    if (n == note) ++total;
  }
  for (const auto& child : node.children) total += CountNotes(*child, note);
  return total;
}

int64_t DeltaCounter(const Snapshot& delta, const std::string& name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

/// The trace and the registry observe the same events through different
/// channels (trace: per-span attrs and notes, only when a trace is active;
/// registry: process-wide counters, always). Explain runs single-threaded
/// with everything under one trace, so every shared observable must agree
/// bit for bit — any drift means an instrumentation site updated one
/// channel and not the other.
bool TraceMatchesRegistry(const TraceNode& root, const Snapshot& delta,
                          std::vector<std::string>* mismatches) {
  struct Pair {
    const char* counter;     // registry name
    const char* trace_attr;  // summed trace attribute; nullptr → note
    const char* trace_note;  // counted exact note; nullptr → attr
  };
  static constexpr Pair kPairs[] = {
      {"exec.star_rounds", "star_rounds_used", nullptr},
      {"exec.instrs_executed", "instrs_executed", nullptr},
      {"eval.star_rounds", "star_rounds", nullptr},
      {"eval.within_l1_hits", "w.l1_hits", nullptr},
      {"eval.within_l2_hits", "w.l2_hits", nullptr},
      {"eval.within_computed", "w.computed", nullptr},
      {"plan_cache.hits", nullptr, "plan_cache: text hit"},
      {"plan_cache.misses", nullptr, "plan_cache: text miss, parsed + interned"},
      {"plan_cache.program_hits", nullptr,
       "plan_cache: program hit (canonical root)"},
      {"plan_cache.program_misses", nullptr, "plan_cache: program miss, lowered"},
  };
  bool ok = true;
  for (const Pair& pair : kPairs) {
    const int64_t from_trace = pair.trace_attr != nullptr
                                   ? SumAttr(root, pair.trace_attr)
                                   : CountNotes(root, pair.trace_note);
    const int64_t from_registry = DeltaCounter(delta, pair.counter);
    if (from_trace != from_registry) {
      ok = false;
      mismatches->push_back(std::string(pair.counter) + ": trace=" +
                            std::to_string(from_trace) + " registry=" +
                            std::to_string(from_registry));
    }
  }
  // Dispatch decisions: each trace note `dispatch: <name>` must correspond
  // to exactly one increment of the matching exec.dispatch.<name> counter.
  for (const char* name : {"register_machine", "reachability_pass"}) {
    const int64_t from_trace =
        CountNotes(root, std::string("dispatch: ") + name);
    const int64_t from_registry =
        DeltaCounter(delta, std::string("exec.dispatch.") + name);
    if (from_trace != from_registry) {
      ok = false;
      mismatches->push_back(std::string("exec.dispatch.") + name +
                            ": trace=" + std::to_string(from_trace) +
                            " registry=" + std::to_string(from_registry));
    }
  }
  // Axis density dispatch: every kernel invocation adds 1 to exactly one of
  // axis.<name>.{sparse,dense}_path on both channels.
  for (int a = 0; a < kNumAxes; ++a) {
    const std::string base =
        std::string("axis.") + AxisToString(static_cast<Axis>(a));
    for (const char* path : {".sparse_path", ".dense_path"}) {
      const std::string counter = base + path;
      const int64_t from_trace = SumAttr(root, counter);
      const int64_t from_registry = DeltaCounter(delta, counter);
      if (from_trace != from_registry) {
        ok = false;
        mismatches->push_back(counter + ": trace=" +
                              std::to_string(from_trace) + " registry=" +
                              std::to_string(from_registry));
      }
    }
  }
  return ok;
}

/// Counters only, timing-free: `*_ns` counters (lowering wall time) vary
/// run to run and would break the golden output; histograms are all
/// timings; gauges are levels owned by long-lived components, not flows a
/// single query moved.
std::string DeterministicDeltaJson(const Snapshot& delta) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : delta.counters) {
    if (name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
      continue;
    }
    if (!first) out.append(", ");
    first = false;
    out.push_back('"');
    out.append(name);
    out.append("\": ");
    out.append(std::to_string(v));
  }
  out.push_back('}');
  return out;
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<ExplainOutput> ExplainQuery(const ExplainOptions& options) {
  Alphabet alphabet;

  // --- Document ---------------------------------------------------------
  std::shared_ptr<Tree> tree;
  std::string document_line;
  if (!options.xml.empty()) {
    XPTC_ASSIGN_OR_RETURN(Tree parsed, ParseXml(options.xml, &alphabet));
    tree = std::make_shared<Tree>(std::move(parsed));
    document_line = "xml n=" + std::to_string(tree->size());
  } else {
    if (options.gen_nodes <= 0) {
      return Status::InvalidArgument("gen_nodes must be positive");
    }
    XPTC_ASSIGN_OR_RETURN(TreeShape shape, ShapeFromString(options.gen_shape));
    Rng rng(options.gen_seed);
    TreeGenOptions gen;
    gen.num_nodes = options.gen_nodes;
    gen.shape = shape;
    tree = std::make_shared<Tree>(
        GenerateTree(gen, DefaultLabels(&alphabet, options.gen_labels), &rng));
    document_line = "generated shape=" + options.gen_shape +
                    " n=" + std::to_string(tree->size()) +
                    " seed=" + std::to_string(options.gen_seed) +
                    " labels=" + std::to_string(options.gen_labels);
  }

  // --- Traced pipeline: parse → lower → execute → cross-check -----------
  const Snapshot before = Registry::Default().Collect();

  QueryTrace trace;
  PlanCache cache;
  TreeCache tree_cache(tree);
  exec::ExecEngine engine(*tree, &tree_cache);
  PlanCache::CompiledQuery compiled;
  Bitset compiled_result;
  Bitset interp_result;
  {
    QueryTrace::Scope scope(&trace);
    {
      TraceSpan parse_span("plan_cache.parse_compiled");
      XPTC_ASSIGN_OR_RETURN(compiled,
                            cache.ParseCompiled(options.query, &alphabet));
      const exec::CompileStats& stats = compiled.program->stats();
      parse_span.Attr("instrs", stats.num_instrs);
      parse_span.Attr("regs", stats.num_regs);
      parse_span.Attr("dag_hits", stats.dag_hits);
    }
    compiled_result = engine.Eval(*compiled.program);
    {
      TraceSpan interp_span("interpreter.select");
      interp_result = compiled.query->Select(*tree);
      interp_span.Attr("result_count",
                       static_cast<int64_t>(interp_result.Count()));
    }
  }

  const Snapshot delta = Registry::Default().Collect().Delta(before);
  const bool match = compiled_result == interp_result;

  ExplainOutput out;
  out.match = match;
  out.trace_json = trace.ToJson(/*with_times=*/false);
  out.registry_json = DeterministicDeltaJson(delta);
  std::vector<std::string> mismatches;
  out.consistent = TraceMatchesRegistry(trace.root(), delta, &mismatches);

  // --- Rendering --------------------------------------------------------
  const Query& query = *compiled.query;
  const exec::Program& program = *compiled.program;
  const exec::ExecEngine::RunInfo& run = engine.last_run();
  const char* dispatch = exec::ExecEngine::DispatchName(run.dispatch);

  if (options.json) {
    std::string& r = out.rendered;
    r = "{\n  \"query\": ";
    AppendJsonEscaped(&r, options.query);
    r.append(",\n  \"document\": ");
    AppendJsonEscaped(&r, document_line);
    r.append(",\n  \"dialect\": {\"plan\": \"");
    r.append(DialectToString(query.dialect()));
    r.append("\", \"source\": \"");
    r.append(DialectToString(query.source_dialect()));
    r.append("\"},\n  \"dispatch\": \"");
    r.append(dispatch);
    r.append("\",\n  \"star_rounds_used\": ");
    r.append(std::to_string(run.star_rounds_used));
    r.append(",\n  \"star_round_budget\": ");
    r.append(std::to_string(exec::ExecEngine::kStarRoundBudget));
    r.append(",\n  \"result_count\": ");
    r.append(std::to_string(compiled_result.Count()));
    r.append(",\n  \"match\": ");
    r.append(match ? "true" : "false");
    r.append(",\n  \"consistent\": ");
    r.append(out.consistent ? "true" : "false");
    r.append(",\n  \"registry_delta\": ");
    r.append(out.registry_json);
    r.append(",\n  \"trace\": ");
    r.append(trace.ToJson(options.with_times));
    r.append("}\n");
    return out;
  }

  std::ostringstream os;
  os << "EXPLAIN " << options.query << "\n";
  os << "document: " << document_line << "\n";
  os << "dialect: plan=" << DialectToString(query.dialect())
     << " source=" << DialectToString(query.source_dialect()) << "\n";
  os << "plan: " << NodeToString(*query.plan(), alphabet) << "\n";
  os << "\n";

  const exec::CompileStats& stats = program.stats();
  os << "program: " << program.code().size() << " instrs, "
     << program.num_regs() << " regs, result r" << program.result_reg()
     << ", main [0," << program.main_end() << "), dag_hits=" << stats.dag_hits
     << "\n";
  for (size_t i = 0; i < program.code().size(); ++i) {
    os << "  " << i << ": "
       << program.InstrToString(static_cast<int>(i), alphabet);
    if (i < run.instr_execs.size()) {
      os << "   [execs " << run.instr_execs[i] << "]";
    }
    os << "\n";
  }
  os << "\n";
  os << "dispatch: " << dispatch << "\n";
  os << "star rounds: used " << run.star_rounds_used << ", budget "
     << exec::ExecEngine::kStarRoundBudget << " per star\n";
  os << "result: " << compiled_result.Count() << "/" << tree->size()
     << " nodes\n";
  os << "cross-check: "
     << (match ? "interpreter bit-for-bit match" : "INTERPRETER MISMATCH")
     << "\n";
  os << "\n";
  os << "trace:\n" << trace.ToText(options.with_times);
  os << "\n";
  os << "registry delta (counters): " << out.registry_json << "\n";
  os << "consistent: " << (out.consistent ? "true" : "false") << "\n";
  for (const std::string& m : mismatches) {
    os << "  inconsistent " << m << "\n";
  }
  out.rendered = os.str();
  return out;
}

}  // namespace obs
}  // namespace xptc
