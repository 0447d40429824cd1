#include "testing/oracle.h"

#include <set>
#include <sstream>
#include <utility>

#include "common/threadpool.h"
#include "compile/compile.h"
#include "compile/to_dfta.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "logic/fo_eval.h"
#include "logic/xpath_to_fo.h"
#include "obs/trace.h"
#include "workload/batch.h"
#include "xpath/engine.h"
#include "xpath/eval.h"
#include "xpath/eval_naive.h"
#include "xpath/eval_seed.h"

namespace xptc {
namespace testing {

namespace {

/// Dialect containment along the paper's hierarchy (Core ⊂ Regular ⊂
/// Regular(W)).
bool DialectWithin(Dialect inner, Dialect outer) {
  return static_cast<int>(inner) <= static_cast<int>(outer);
}

/// The label universe a compiled automaton must be total over: every label
/// of the tree plus every label the query mentions.
std::vector<Symbol> CaseUniverse(const Tree& tree, const NodeExpr& query) {
  std::set<Symbol> labels;
  for (NodeId v = 0; v < tree.size(); ++v) labels.insert(tree.Label(v));
  CollectNodeLabels(query, &labels);
  return std::vector<Symbol>(labels.begin(), labels.end());
}

}  // namespace

bool Oracle::Handles(const Tree& tree, const NodeExpr& query) const {
  if (!DialectWithin(ClassifyNode(query), profile_.total_on)) return false;
  if (profile_.downward_only && !IsDownwardNode(query)) return false;
  if (profile_.compilable_only &&
      !XPathToNtwaCompiler::CheckSupported(query).ok()) {
    return false;
  }
  if (profile_.max_tree_nodes > 0 && tree.size() > profile_.max_tree_nodes) {
    return false;
  }
  if (profile_.max_query_size > 0 &&
      NodeSize(query) > profile_.max_query_size) {
    return false;
  }
  return true;
}

Result<SelectedSet> Oracle::TimedRun(const Tree& tree, const NodePtr& query) {
  if (flame_ == nullptr) {
    obs::Registry& reg = obs::Registry::Default();
    flame_ = &reg.histogram("oracle." + name() + ".run_ns");
    runs_counter_ = &reg.counter("oracle." + name() + ".runs");
  }
  runs_counter_->Inc();
  obs::TraceSpan span(name().c_str(), flame_);
  return Run(tree, query);
}

std::string Disagreement::Describe() const {
  std::ostringstream out;
  out << other << " vs " << reference << ": ";
  if (!error.ok()) {
    out << "error on handled case: " << error.ToString();
    return out.str();
  }
  out << "selected sets differ at nodes {";
  bool first = true;
  const int n = expected.size();
  for (NodeId v = 0; v < n; ++v) {
    if (expected.Get(v) != actual.Get(v)) {
      if (!first) out << ",";
      first = false;
      out << v << (expected.Get(v) ? "-" : "+");
    }
  }
  out << "} (+ = extra, - = missing in " << other << ")";
  return out.str();
}

void OracleRegistry::Register(std::unique_ptr<Oracle> oracle) {
  oracles_.push_back(std::move(oracle));
}

Oracle* OracleRegistry::Find(std::string_view name) const {
  for (const auto& oracle : oracles_) {
    if (oracle->name() == name) return oracle.get();
  }
  return nullptr;
}

std::optional<Disagreement> OracleRegistry::Check(const Tree& tree,
                                                  const NodePtr& query) {
  ++stats_.checks;
  Oracle* reference = nullptr;
  std::optional<SelectedSet> expected;
  for (const auto& oracle : oracles_) {
    if (!oracle->Handles(tree, *query)) continue;
    ++stats_.runs[oracle->name()];
    Result<SelectedSet> got = oracle->TimedRun(tree, query);
    if (!got.ok()) {
      // Static gates may over-approximate what Run can actually do
      // (state-space blow-ups); anything else is a finding.
      if (got.status().IsNotSupported() || got.status().IsOutOfRange()) {
        ++stats_.soft_skips;
        continue;
      }
      Disagreement d;
      d.reference = reference ? reference->name() : "(none)";
      d.other = oracle->name();
      if (expected.has_value()) d.expected = *expected;
      d.error = got.status();
      return d;
    }
    if (reference == nullptr) {
      reference = oracle.get();
      expected = std::move(got).ValueOrDie();
      continue;
    }
    ++stats_.comparisons;
    const SelectedSet& actual = got.ValueOrDie();
    if (!(actual == *expected)) {
      Disagreement d;
      d.reference = reference->name();
      d.other = oracle->name();
      d.expected = *expected;
      d.actual = actual;
      return d;
    }
  }
  return std::nullopt;
}

bool OracleRegistry::PairDisagrees(Oracle* reference, Oracle* other,
                                   const Tree& tree, const NodePtr& query) {
  if (!reference->Handles(tree, *query) || !other->Handles(tree, *query)) {
    return false;
  }
  stats_.runs[reference->name()]++;
  stats_.runs[other->name()]++;
  Result<SelectedSet> expected = reference->TimedRun(tree, query);
  if (!expected.ok()) return false;
  Result<SelectedSet> actual = other->TimedRun(tree, query);
  if (!actual.ok()) {
    // An unexpected hard error still counts as a disagreement so error
    // cases shrink too; residual fragment softness does not.
    return !(actual.status().IsNotSupported() ||
             actual.status().IsOutOfRange());
  }
  ++stats_.comparisons;
  return !(expected.ValueOrDie() == actual.ValueOrDie());
}

std::optional<Disagreement> OracleRegistry::CheckCandidate(
    const Tree& tree, const NodePtr& query, Oracle* candidate) {
  ++stats_.checks;
  if (!candidate->Handles(tree, *query)) return std::nullopt;
  for (const auto& oracle : oracles_) {
    if (oracle.get() == candidate || !oracle->Handles(tree, *query)) continue;
    ++stats_.runs[oracle->name()];
    Result<SelectedSet> expected = oracle->TimedRun(tree, query);
    if (!expected.ok()) {
      if (expected.status().IsNotSupported() ||
          expected.status().IsOutOfRange()) {
        ++stats_.soft_skips;
        continue;  // try the next oracle as reference
      }
      Disagreement d;
      d.reference = candidate->name();
      d.other = oracle->name();
      d.error = expected.status();
      return d;
    }
    ++stats_.runs[candidate->name()];
    Result<SelectedSet> actual = candidate->TimedRun(tree, query);
    if (!actual.ok()) {
      if (actual.status().IsNotSupported() || actual.status().IsOutOfRange()) {
        ++stats_.soft_skips;
        return std::nullopt;
      }
      Disagreement d;
      d.reference = oracle->name();
      d.other = candidate->name();
      d.expected = std::move(expected).ValueOrDie();
      d.error = actual.status();
      return d;
    }
    ++stats_.comparisons;
    if (!(actual.ValueOrDie() == expected.ValueOrDie())) {
      Disagreement d;
      d.reference = oracle->name();
      d.other = candidate->name();
      d.expected = std::move(expected).ValueOrDie();
      d.actual = std::move(actual).ValueOrDie();
      return d;
    }
    return std::nullopt;  // agreed with the reference
  }
  return std::nullopt;  // no reference applied
}

namespace {

// ---------------------------------------------------------------------------
// The pipeline adapters.

class NaiveOracle : public Oracle {
 public:
  NaiveOracle()
      : Oracle({.name = "naive",
                .total_on = Dialect::kRegularXPathW,
                // O(n³) per star; keep it to the sizes fuzzing uses.
                .max_tree_nodes = 96}) {}

  Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) override {
    return EvalNodeNaive(tree, *query);
  }
};

class SetsOracle : public Oracle {
 public:
  SetsOracle()
      : Oracle({.name = "sets", .total_on = Dialect::kRegularXPathW}) {}

  Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) override {
    return EvalNodeSet(tree, *query);
  }
};

class SeedOracle : public Oracle {
 public:
  SeedOracle()
      : Oracle({.name = "seed",
                .total_on = Dialect::kRegularXPathW,
                // Quadratic-ish W handling; bounded like naive.
                .max_tree_nodes = 96}) {}

  Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) override {
    return SeedEvalNodeSet(tree, *query);
  }
};

/// Runs each case through the full throughput path: Query::FromExpr (the
/// simplifier), a BatchEngine on a persistent 3-worker pool, per-tree
/// TreeCache and per-worker EvalScratch. One case = one 1×1 batch.
class BatchOracle : public Oracle {
 public:
  BatchOracle()
      : Oracle({.name = "batch", .total_on = Dialect::kRegularXPathW}),
        pool_(3) {}

  Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) override {
    BatchOptions options;
    options.pool = &pool_;
    BatchEngine engine(options);
    // Non-owning alias: the engine (and every scratch/cache bound to the
    // tree) dies before Run returns.
    engine.AddTree(std::shared_ptr<const Tree>(&tree, [](const Tree*) {}));
    std::vector<Query> queries;
    queries.push_back(Query::FromExpr(query));
    std::vector<std::vector<Bitset>> result = engine.Run(queries);
    return std::move(result[0][0]);
  }

 private:
  ThreadPool pool_;
};

/// The compiled execution backend: each case is lowered to a DAG bytecode
/// program (hash-consing, register allocation) and run through `Eval`, the
/// production path, so stars past their round budget cross-check the
/// reachability pass too.
class ExecOracle : public Oracle {
 public:
  ExecOracle()
      : Oracle({.name = "exec", .total_on = Dialect::kRegularXPathW}) {}

  Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) override {
    std::shared_ptr<const exec::Program> program =
        exec::Program::Compile(query);
    exec::ExecEngine engine(tree);
    return engine.Eval(*program);
  }
};

/// Translation to FO(MTC) + the naive logic-side model checker.
class FOOracle : public Oracle {
 public:
  explicit FOOracle(const DefaultRegistryOptions& options)
      : Oracle({.name = "fo",
                .total_on = Dialect::kRegularXPathW,
                .max_tree_nodes = options.fo_max_tree_nodes,
                .max_query_size = options.fo_max_query_size}) {}

  Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) override {
    FormulaPtr formula = NodeToFO(*query, 0);
    return EvalFormulaUnary(tree, *formula, 0);
  }
};

/// The nested tree-walking automata compiler, evaluated by n marked runs.
class NtwaOracle : public Oracle {
 public:
  NtwaOracle(Alphabet* alphabet, const DefaultRegistryOptions& options)
      : Oracle({.name = "ntwa",
                .total_on = Dialect::kRegularXPathW,
                .compilable_only = true,
                .max_tree_nodes = options.ntwa_max_tree_nodes,
                .max_query_size = options.ntwa_max_query_size}),
        alphabet_(alphabet) {}

  Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) override {
    XPathToNtwaCompiler compiler(alphabet_, CaseUniverse(tree, *query));
    XPTC_ASSIGN_OR_RETURN(CompiledQuery compiled, compiler.Compile(*query));
    return compiled.EvalAll(tree);
  }

 private:
  Alphabet* alphabet_;
};

/// Downward fragment through the bottom-up determinisation: a downward φ
/// satisfies φ ≡ W φ, so v ∈ [[φ]]_T iff the DFTA accepts T|v.
class DftaOracle : public Oracle {
 public:
  DftaOracle(Alphabet* alphabet, const DefaultRegistryOptions& options)
      : Oracle({.name = "dfta",
                .total_on = Dialect::kRegularXPathW,
                .downward_only = true,
                .compilable_only = true,
                .max_tree_nodes = options.dfta_max_tree_nodes,
                .max_query_size = options.dfta_max_query_size}),
        alphabet_(alphabet) {}

  Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) override {
    XPTC_ASSIGN_OR_RETURN(
        Dfta dfta,
        DownwardQueryToDfta(*query, alphabet_, CaseUniverse(tree, *query)));
    SelectedSet out(tree.size());
    for (NodeId v = 0; v < tree.size(); ++v) {
      if (dfta.Accepts(tree.ExtractSubtree(v))) out.Set(v);
    }
    return out;
  }

 private:
  Alphabet* alphabet_;
};

// ---------------------------------------------------------------------------
// Mutants: the naive reference evaluated on a query with one construct
// rewritten the way a single-line evaluator bug would mis-handle it.

PathPtr MutatePath(const PathPtr& path, Mutation mutation);

NodePtr MutateNode(const NodePtr& node, Mutation mutation) {
  switch (node->op) {
    case NodeOp::kLabel:
    case NodeOp::kTrue:
      return node;
    case NodeOp::kNot:
      return MakeNot(MutateNode(node->left, mutation));
    case NodeOp::kAnd: {
      NodePtr left = MutateNode(node->left, mutation);
      NodePtr right = MutateNode(node->right, mutation);
      if (mutation == Mutation::kAndAsOr) {
        return MakeOr(std::move(left), std::move(right));
      }
      return MakeAnd(std::move(left), std::move(right));
    }
    case NodeOp::kOr:
      return MakeOr(MutateNode(node->left, mutation),
                    MutateNode(node->right, mutation));
    case NodeOp::kSome:
      return MakeSome(MutatePath(node->path, mutation));
    case NodeOp::kWithin: {
      NodePtr body = MutateNode(node->left, mutation);
      if (mutation == Mutation::kDropWithin) return body;
      return MakeWithin(std::move(body));
    }
  }
  return node;
}

PathPtr MutatePath(const PathPtr& path, Mutation mutation) {
  switch (path->op) {
    case PathOp::kAxis:
      return path;
    case PathOp::kSeq:
      return MakeSeq(MutatePath(path->left, mutation),
                     MutatePath(path->right, mutation));
    case PathOp::kUnion:
      return MakeUnion(MutatePath(path->left, mutation),
                       MutatePath(path->right, mutation));
    case PathOp::kFilter:
      return MakeFilter(MutatePath(path->left, mutation),
                        MutateNode(path->pred, mutation));
    case PathOp::kStar: {
      PathPtr body = MutatePath(path->left, mutation);
      if (mutation == Mutation::kStarAsPlus) {
        return MakePlus(std::move(body));
      }
      return MakeStar(std::move(body));
    }
  }
  return path;
}

class MutantOracle : public Oracle {
 public:
  explicit MutantOracle(Mutation mutation)
      : Oracle({.name = std::string("mutant-") + MutationToString(mutation),
                .total_on = Dialect::kRegularXPathW,
                .max_tree_nodes = 96}),
        mutation_(mutation) {}

  Result<SelectedSet> Run(const Tree& tree, const NodePtr& query) override {
    return EvalNodeNaive(tree, *MutateNode(query, mutation_));
  }

 private:
  Mutation mutation_;
};

}  // namespace

const char* MutationToString(Mutation mutation) {
  switch (mutation) {
    case Mutation::kAndAsOr:
      return "and-as-or";
    case Mutation::kStarAsPlus:
      return "star-as-plus";
    case Mutation::kDropWithin:
      return "drop-within";
  }
  return "?";
}

std::unique_ptr<Oracle> MakeMutantOracle(Mutation mutation) {
  return std::make_unique<MutantOracle>(mutation);
}

std::unique_ptr<OracleRegistry> MakeDefaultRegistry(
    Alphabet* alphabet, const DefaultRegistryOptions& options) {
  auto registry = std::make_unique<OracleRegistry>();
  registry->Register(std::make_unique<NaiveOracle>());
  registry->Register(std::make_unique<SetsOracle>());
  registry->Register(std::make_unique<SeedOracle>());
  if (options.include_batch) {
    registry->Register(std::make_unique<BatchOracle>());
  }
  registry->Register(std::make_unique<ExecOracle>());
  if (options.include_heavy) {
    registry->Register(std::make_unique<FOOracle>(options));
    registry->Register(std::make_unique<NtwaOracle>(alphabet, options));
    registry->Register(std::make_unique<DftaOracle>(alphabet, options));
  }
  return registry;
}

}  // namespace testing
}  // namespace xptc
