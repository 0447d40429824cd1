// Tests for the compiled execution backend (src/exec/): lowering
// determinism, DAG sharing, register allocation, the bytecode register
// machine, the reachability pass that finishes over-budget stars, and the
// integration surfaces (BatchEngine::RunCompiled, PlanCache::ParseCompiled).
//
// The correctness bar throughout is bit-for-bit agreement with the
// interpreter (`Evaluator`) — the compiled engine is an alternative
// execution strategy for the same semantics, so every divergence is a
// bug by definition (this is also what the fuzz oracle `exec` enforces at
// campaign scale).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "tree/generate.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"
#include "xpath/eval.h"
#include "xpath/fragment.h"
#include "xpath/generator.h"
#include "xpath/parser.h"
#include "xpath/rewrite.h"

namespace xptc {
namespace {

using exec::ExecEngine;
using exec::Program;
using testing_util::CorpusTrees;
using testing_util::N;
using testing_util::T;

Bitset Interpret(const Tree& tree, const NodePtr& query) {
  Evaluator evaluator(tree);
  return evaluator.EvalNode(*query);
}

// ---------------------------------------------------------------- lowering

TEST(ExecProgramTest, LoweringIsDeterministic) {
  // Two independent parses hand the lowerer fresh (pointer-distinct) ASTs;
  // the disassembly — instruction sequence, register numbers, layout —
  // must come out identical.
  Alphabet alphabet;
  const char* texts[] = {
      "<child[a]>",
      "not <desc[a and <child[b]>]> or c",
      "<(child[a]/desc)*[b]>",
      "W(<desc[a]/foll[b]>) and <anc[c]>",
      "<((child[a])*)*[b]>",
  };
  for (const char* text : texts) {
    auto first = Program::Compile(N(text, &alphabet));
    auto second = Program::Compile(N(text, &alphabet));
    EXPECT_EQ(first->ToString(alphabet), second->ToString(alphabet))
        << "non-deterministic lowering of " << text;
  }
}

TEST(ExecProgramTest, DagSharingCollapsesRepeatedSubexpressions) {
  // The same subexpression written four times: hash-consing must collapse
  // it onto one computation, visible as lowering-memo hits and an
  // instruction count well below the AST size.
  Alphabet alphabet;
  const std::string repeated = "<child[a]/desc[b and <child[c]>]>";
  const std::string text = "(" + repeated + " and " + repeated + ") or (" +
                           repeated + " and not " + repeated + ")";
  auto program = Program::Compile(N(text, &alphabet));
  const exec::CompileStats& stats = program->stats();
  EXPECT_GT(stats.dag_hits, 0);
  EXPECT_LT(stats.num_instrs, stats.ast_nodes);
  // Sanity: sharing must not change the answer.
  Tree tree = T("a(b(c), a(b, c), c(a(b(c))))", &alphabet);
  ExecEngine engine(tree);
  NodePtr query = N(text, &alphabet);
  EXPECT_EQ(engine.Eval(*Program::Compile(query)), Interpret(tree, query));
  // Per-instruction counts are kept only for a traced run (EXPLAIN).
  EXPECT_TRUE(engine.last_run().instr_execs.empty());
}

TEST(ExecProgramTest, RegisterAllocationReusesRegisters) {
  // A long chain of steps defines many SSA values with short live ranges;
  // linear scan must recycle physical registers instead of giving every
  // value its own bitset.
  Alphabet alphabet;
  auto program = Program::Compile(
      N("<child[a]/desc[b]/child[c]/desc[a]/child[b]/desc[c]/child[a]>",
        &alphabet));
  const exec::CompileStats& stats = program->stats();
  EXPECT_GT(stats.num_vregs, stats.num_regs);
  EXPECT_LE(stats.num_regs, 8);
}

TEST(ExecProgramTest, AllNodesTargetsFoldAway) {
  // ⟨p⟩⊤ starts from the all-nodes set: `leaf` and a bare `<child>` read
  // the tree's has-child column instead of a parent image over a `true`
  // register, and a filter over all nodes is its predicate, not an `and`.
  Alphabet alphabet;
  const auto code = [&alphabet](const char* text) {
    const std::string listing =
        Program::Compile(N(text, &alphabet))->ToString(alphabet);
    return listing.substr(0, listing.find("star nfa"));
  };
  for (const char* text : {"leaf", "<child>", "not <child>"}) {
    const std::string listing = code(text);
    EXPECT_NE(listing.find("haschild"), std::string::npos) << listing;
    EXPECT_EQ(listing.find("axis parent"), std::string::npos) << listing;
    EXPECT_EQ(listing.find("= true"), std::string::npos) << listing;
  }
  const std::string filtered = code("<child[a]> or <desc[leaf]>");
  EXPECT_EQ(filtered.find("= and"), std::string::npos) << filtered;
  EXPECT_EQ(filtered.find("= true"), std::string::npos) << filtered;
  // Inside a star body the targets are the frontier, so the filter stays
  // (as `andnot`, since `leaf` is `not <child>`); its predicate is hoisted
  // to main and still folds.
  const std::string star = code("<(child[leaf])*[a]>");
  EXPECT_NE(star.find("haschild"), std::string::npos) << star;
  EXPECT_NE(star.find("= andnot"), std::string::npos) << star;
  // A star over all nodes is all nodes: no loop, no closure op.
  for (const char* text : {"<(child[<child>])*>", "<(child)*>"}) {
    const std::string seeded = code(text);
    EXPECT_NE(seeded.find("program: 1 instrs"), std::string::npos) << seeded;
    EXPECT_NE(seeded.find("= true"), std::string::npos) << seeded;
  }
}

// Walks `program` in execution order (bodies at their kStar sites) and
// counts kAnd/kOr instructions that read a register last written by kNot.
int NotFedBinaries(const Program& program, int begin, int end,
                   std::vector<exec::Op>* writer) {
  int found = 0;
  for (int i = begin; i < end; ++i) {
    const exec::Instr& ins = program.code()[static_cast<size_t>(i)];
    if (ins.op == exec::Op::kAnd || ins.op == exec::Op::kOr) {
      for (const int reg : {ins.a, ins.b}) {
        if ((*writer)[static_cast<size_t>(reg)] == exec::Op::kNot) ++found;
      }
    }
    if (ins.op == exec::Op::kStar) {
      (*writer)[static_cast<size_t>(ins.in)] = exec::Op::kStar;
      found += NotFedBinaries(program, ins.body_begin, ins.body_end, writer);
    }
    (*writer)[static_cast<size_t>(ins.dst)] = ins.op;
  }
  return found;
}

TEST(ExecProgramTest, NegatedOperandsFuseIntoAndNotOrNot) {
  // ∧/∨ with a negated operand on either side, and a filter [¬ψ] off the
  // all-nodes target, lower to kAndNot/kOrNot reading ψ directly; the
  // `not` survives only where some other reader needs it.
  Alphabet alphabet;
  const auto code = [&alphabet](const char* text) {
    const std::string listing =
        Program::Compile(N(text, &alphabet))->ToString(alphabet);
    return listing.substr(0, listing.find("star nfa"));
  };
  const struct {
    const char* text;
    int instrs;
  } cases[] = {
      {"<anc[a]> and not <child[b]>", 5},
      {"<(child/child)*[c and leaf]>", 6},
      {"<(child[not c]/child[not c])*[leaf]>", 8},
      {"<(fsib/child)*[a and leaf]>", 6},
      {"<desc[a and not <child[c]>]>", 5},
      {"<child/child[b]> or <desc[c and leaf]>", 8},
      {"not <anc/desc[a]> and <dos[b]>", 6},
  };
  for (const auto& c : cases) {
    auto program = Program::Compile(SimplifyNode(N(c.text, &alphabet)));
    EXPECT_EQ(static_cast<int>(program->code().size()), c.instrs)
        << program->ToString(alphabet);
    std::vector<exec::Op> writer(static_cast<size_t>(program->num_regs()),
                                 exec::Op::kTrue);
    EXPECT_EQ(NotFedBinaries(*program, 0, program->main_end(), &writer), 0)
        << program->ToString(alphabet);
  }
  // Both operand orders, both connectives: one fused op and no `not`.
  const struct {
    const char* text;
    const char* fused;
  } sides[] = {{"a and not b", "= andnot"}, {"not b and a", "= andnot"},
               {"a or not b", "= ornot"}, {"not b or a", "= ornot"}};
  for (const auto& side : sides) {
    const std::string listing = code(side.text);
    EXPECT_EQ(listing.find("= not"), std::string::npos) << listing;
    EXPECT_NE(listing.find(side.fused), std::string::npos) << listing;
  }
  // A `not` read by an axis step as well as by a fused `or` is kept once.
  const std::string shared = code("<child[not a]> and (b or not a)");
  EXPECT_NE(shared.find("= not"), std::string::npos) << shared;
  EXPECT_EQ(shared.find("= not", shared.find("= not") + 1), std::string::npos)
      << shared;
  EXPECT_NE(shared.find("= ornot"), std::string::npos) << shared;
}

// ------------------------------------------------------------------ engine

TEST(ExecEngineTest, AllNodesFoldsMatchInterpreterOnEveryShape) {
  // The has-child column, the filter and star folds, and and-not/or-not
  // fusion, outside and inside star bodies, on every generated shape down
  // to the one-node tree: each lowered program passes VerifyProgram and
  // matches the interpreter.
  Alphabet alphabet;
  const std::vector<Tree> trees = CorpusTrees(&alphabet, 3, 300, 83);
  const char* texts[] = {
      "leaf",
      "<child>",
      "not <child>",
      "<child> and a",
      "<child[a]>",
      "<desc[c and leaf]>",
      "<child/child[b]> or <desc[c and leaf]>",
      "<desc[a and not <child[c]>]>",
      "<parent[<child>]>",
      "<(child)*>",
      "<(child[leaf])*[a]>",
      "<(child[<child>])*[leaf]>",
      "<(child[not <child>])*>",
      "<(child/child)*[c and leaf]>",
      "<(child[not c]/child[not c])*[leaf]>",
      "<(fsib/child)*[a and leaf]>",
      "<(parent[<child>])*[b and leaf]>",
      "<(child[<child>])*>",
      "<child/(child)*>",
      "<(child)* | desc[a]>",
      "not a and <child[b]>",
      "<child[b]> and not a",
      "not a or <child[b]>",
      "<child[b]> or not a",
      "<child[not c]>",
      "<child[not c]/desc[b]>",
      "<(child[not c])*[a]>",
      "not a and not b",
      "not a or not b",
      "<child[not a]> and (b or not a)",
  };
  for (const char* text : texts) {
    NodePtr query = N(text, &alphabet);
    auto program = Program::Compile(query);
    std::string error;
    ASSERT_TRUE(exec::VerifyProgram(*program, &error)) << text << ": "
                                                       << error;
    for (const Tree& tree : trees) {
      ExecEngine engine(tree);
      ASSERT_EQ(engine.Eval(*program), Interpret(tree, query))
          << text << " n=" << tree.size();
    }
  }
}

TEST(ExecEngineTest, RegisterFileIsReusedAcrossProgramsAndRuns) {
  // One engine, several programs, repeated runs: results must match fresh
  // single-use engines bit for bit (catches any state leaking between runs
  // through the recycled register file).
  Alphabet alphabet;
  Tree tree = T("a(b(a, c(b)), c(a(b), b), a)", &alphabet);
  std::vector<std::shared_ptr<const Program>> programs;
  for (const char* text :
       {"<child[a]>", "<(child)*[b]> and not c", "<desc[c]/anc[b]>",
        "W(<desc[b]/foll[a]>)", "<child[a]>"}) {
    programs.push_back(Program::Compile(N(text, &alphabet)));
  }
  ExecEngine shared(tree);
  for (int round = 0; round < 3; ++round) {
    for (const auto& program : programs) {
      ExecEngine fresh(tree);
      EXPECT_EQ(shared.Eval(*program), fresh.Eval(*program));
    }
  }
}

TEST(ExecEngineTest, MatchesInterpreterOnRandomCorpus) {
  // Differential sweep over every dialect the register machine is total
  // on: random (tree, query) pairs, compiled answer vs interpreter answer.
  Alphabet alphabet;
  const std::vector<Tree> trees = CorpusTrees(&alphabet, 4, 20, 77);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 4);
  Rng rng(78);
  for (QueryFragment fragment :
       {QueryFragment::kCore, QueryFragment::kRegular,
        QueryFragment::kRegularW}) {
    for (int i = 0; i < 25; ++i) {
      NodePtr query =
          GenerateNode(OptionsForFragment(fragment, 3), labels, &rng);
      auto program = Program::Compile(query);
      for (const Tree& tree : trees) {
        ExecEngine engine(tree);
        ASSERT_EQ(engine.Eval(*program), Interpret(tree, query))
            << "fragment " << QueryFragmentToString(fragment) << " query "
            << NodeToString(*query, alphabet);
      }
    }
  }
}

// Deep trees over the labels a and b (or a alone), so a guard [a or b]
// holds along whole runs: a chain and a caterpillar (depth ~ n) and a star
// (n - 1 siblings), each far past the star-round budget.
std::vector<Tree> DeepTrees(Alphabet* alphabet, uint64_t seed,
                            int num_labels = 2) {
  const std::vector<Symbol> labels = DefaultLabels(alphabet, num_labels);
  Rng rng(seed);
  std::vector<Tree> trees;
  for (TreeShape shape :
       {TreeShape::kChain, TreeShape::kCaterpillar, TreeShape::kStar}) {
    TreeGenOptions options;
    options.num_nodes = 1500;
    options.shape = shape;
    trees.push_back(GenerateTree(options, labels, &rng));
  }
  return trees;
}

// Runs `query` through `Eval` on `tree` and checks it against the
// interpreter, whose semi-naive stars run the same rounds as the register
// machine's but never stop: the interpreter's round count (the
// `eval.star_rounds` delta) tells whether any star outran the budget.
// Returns true iff the reachability pass finished a star.
bool EvalMatchesInterpreter(const Tree& tree, const NodePtr& query,
                            const Alphabet& alphabet) {
  obs::Counter& interp_rounds =
      obs::Registry::Default().counter("eval.star_rounds");
  const int64_t before = interp_rounds.value();
  const Bitset reference = Interpret(tree, query);
  const int64_t rounds = interp_rounds.value() - before;
  auto program = Program::Compile(query);
  ExecEngine engine(tree);
  const std::string where =
      NodeToString(*query, alphabet) + " n=" + std::to_string(tree.size());
  EXPECT_EQ(engine.Eval(*program), reference) << where;
  const ExecEngine::RunInfo& run = engine.last_run();
  const bool finished_by_pass =
      run.dispatch == ExecEngine::RunInfo::Dispatch::kDownwardFallback;
  const int64_t budget = ExecEngine::kStarRoundBudget;
  // The register machine runs the interpreter's rounds until a star's
  // budget is spent, so it never runs more.
  EXPECT_LE(run.star_rounds_used, rounds) << where;
  if (finished_by_pass) {
    EXPECT_GT(rounds, budget) << where;
  }
  int stars = 0;
  for (const exec::Instr& ins : program->code()) {
    stars += ins.op == exec::Op::kStar;
  }
  if (stars == 1) {
    // One star: it stops at the budget exactly when its fixpoint needs
    // more rounds than that.
    EXPECT_EQ(finished_by_pass, rounds > budget) << where;
    EXPECT_EQ(run.star_rounds_used, std::min(rounds, budget)) << where;
  }
  return finished_by_pass;
}

// The adversarial star texts of E12 (EXPERIMENTS.md), each seeded at the
// far end of the direction its body walks.
constexpr const char* kAdversarialStars[] = {
    "<(parent[a or b])*[not <parent>]>",
    "<(child[a or b])*[not <child>]>",
    "<(right[a or b])*[not <right>]>",
    "<(parent/parent[a or b])*[not <parent>]>",
    "<(fsib/child)*[not <child>]>",
    "<((child[a])*/child)*[not <child>]>",
};

TEST(ExecEngineTest, ReachabilityPassFinishesAdversarialStars) {
  // Each adversarial body on each deep shape: the answer matches the
  // interpreter whether the budget held or the pass took over, and the
  // pass does take over on every shape.
  Alphabet alphabet;
  const std::vector<Tree> trees = DeepTrees(&alphabet, 79);
  int finished_by_pass[3] = {0, 0, 0};
  for (const char* text : kAdversarialStars) {
    const NodePtr query = N(text, &alphabet);
    for (size_t t = 0; t < trees.size(); ++t) {
      finished_by_pass[t] += EvalMatchesInterpreter(trees[t], query, alphabet);
    }
  }
  for (int count : finished_by_pass) EXPECT_GT(count, 0);
}

// A random star body over the unit moves, which advance one node per
// round, with guards that mostly hold on trees labelled a and b.
PathPtr UnitMoveBody(const std::vector<Symbol>& labels, int depth, Rng* rng) {
  const Axis units[] = {Axis::kChild, Axis::kParent, Axis::kNextSibling,
                        Axis::kPrevSibling};
  const int pick = depth == 0 ? 0 : rng->NextInt(0, 4);
  switch (pick) {
    case 0:
      return MakeAxis(units[rng->NextBelow(4)]);
    case 1:
      return MakeSeq(UnitMoveBody(labels, depth - 1, rng),
                     UnitMoveBody(labels, depth - 1, rng));
    case 2:
      return MakeUnion(UnitMoveBody(labels, depth - 1, rng),
                       UnitMoveBody(labels, depth - 1, rng));
    case 3:
      return MakeStar(UnitMoveBody(labels, depth - 1, rng));
    default: {
      const NodePtr a = MakeLabel(labels[0]);
      const NodePtr b = MakeLabel(labels[1]);
      const NodePtr guards[] = {MakeOr(a, b), MakeNot(b), a,
                                MakeOr(a, MakeSome(MakeAxis(Axis::kChild)))};
      return MakeFilter(UnitMoveBody(labels, depth - 1, rng),
                        guards[rng->NextBelow(4)]);
    }
  }
}

TEST(ExecEngineTest, ReachabilityPassMatchesInterpreterOnRandomDeepCorpus) {
  // Random Regular XPath star bodies, seeded at the root, the leaves or
  // the last siblings, on deep trees labelled a and b or a alone: guards
  // hold along long runs, so many stars outrun the budget.
  Alphabet alphabet;
  std::vector<Tree> trees = DeepTrees(&alphabet, 80);
  for (Tree& tree : DeepTrees(&alphabet, 80, 1)) {
    trees.push_back(std::move(tree));
  }
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  const NodePtr seeds[] = {MakeRootTest(), MakeLeafTest(),
                           MakeNot(MakeSome(MakeAxis(Axis::kNextSibling)))};
  Rng rng(81);
  int finished_by_pass = 0;
  for (int i = 0; i < 90; ++i) {
    // Generator bodies cover every axis; unit-move bodies outrun the budget.
    const PathPtr body =
        i % 2 == 0
            ? GeneratePath(OptionsForFragment(QueryFragment::kRegular, 2),
                           labels, &rng)
            : UnitMoveBody(labels, 3, &rng);
    const NodePtr query =
        MakeSome(MakeFilter(MakeStar(body), seeds[i % 3]));
    for (const Tree& tree : trees) {
      finished_by_pass += EvalMatchesInterpreter(tree, query, alphabet);
    }
  }
  EXPECT_GT(finished_by_pass, 0);
}

TEST(ExecEngineTest, StarScheduleRegressions) {
  // Nested stars, a star under a filter inside a star, and a star whose
  // body both descends and filters: on deep trees each loop may be
  // finished by the reachability pass, inner loops through the outer
  // body's NFA included.
  Alphabet alphabet;
  const char* queries[] = {
      "<(child[b])*[a]>",
      "<(child[a or b])*[a]>",
      "<(desc[b]/child)*[a]>",
      "<((child[b])*)*[a]>",
      "<((child)*/child[b])*[a]>",
      "<(child[<(child[b])*[a]>])*[b]>",
      "<((parent[a or b])*/parent)*[not <parent>]>",
  };
  int finished_by_pass = 0;
  for (const Tree& tree : DeepTrees(&alphabet, 82)) {
    for (const char* text : queries) {
      finished_by_pass +=
          EvalMatchesInterpreter(tree, N(text, &alphabet), alphabet);
    }
  }
  EXPECT_GT(finished_by_pass, 0);
}

TEST(ExecEngineTest, ReachabilityPassExpandsFollowingAndPrecedingBodies) {
  // foll and prec expand to three closure loops each (aos, then fsib or
  // psib, then dos) inside the body's NFA.
  Alphabet alphabet;
  int finished_by_pass = 0;
  for (const Tree& tree : DeepTrees(&alphabet, 83)) {
    for (const char* text :
         {"<(foll[a]/parent)*[not <child>]>", "<(parent/prec[b])*[a]>",
          "<(prec[a or b] | parent)*[not <parent>]>"}) {
      finished_by_pass +=
          EvalMatchesInterpreter(tree, N(text, &alphabet), alphabet);
    }
  }
  EXPECT_GT(finished_by_pass, 0);
}

TEST(ExecEngineTest, DeadlineIsHonouredDuringTheReachabilityPass) {
  // A 256k chain: the budgeted rounds take a fraction of the run and the
  // pass the rest. Deadlines spread over the run's length land some runs
  // in the pass, which must then stop at a pass probe: abandoned, with
  // every budgeted round done.
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  Rng rng(84);
  TreeGenOptions options;
  options.num_nodes = 1 << 18;
  options.shape = TreeShape::kChain;
  const Tree chain = GenerateTree(options, labels, &rng);
  auto program =
      Program::Compile(N("<(parent[a or b])*[not <parent>]>", &alphabet));
  ExecEngine engine(chain);
  int64_t start = ExecEngine::SteadyNowNs();
  engine.Eval(*program);
  const int64_t full_ns = ExecEngine::SteadyNowNs() - start;
  ASSERT_EQ(engine.last_run().dispatch,
            ExecEngine::RunInfo::Dispatch::kDownwardFallback);
  int expired_in_pass = 0;
  for (int sweep = 0; sweep < 4 && expired_in_pass == 0; ++sweep) {
    for (int k = 1; k < 16; ++k) {
      start = ExecEngine::SteadyNowNs();
      engine.SetDeadline(start + full_ns * k / 16);
      engine.Eval(*program);
      const ExecEngine::RunInfo& run = engine.last_run();
      if (run.deadline_expired &&
          run.star_rounds_used == ExecEngine::kStarRoundBudget) {
        EXPECT_EQ(run.dispatch,
                  ExecEngine::RunInfo::Dispatch::kDownwardFallback);
        ++expired_in_pass;
      }
    }
  }
  engine.SetDeadline(0);
  EXPECT_GT(expired_in_pass, 0);
  engine.Eval(*program);
  EXPECT_FALSE(engine.last_run().deadline_expired);
}

// ------------------------------------------------------------- integration

TEST(ExecIntegrationTest, BatchRunCompiledMatchesInterpreterRun) {
  Alphabet alphabet;
  Rng rng(81);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 4);
  std::vector<Query> queries;
  for (const char* text :
       {"<child[a]>", "<desc[a]> and <desc[b]>", "W(<desc[a]/foll[b]>)",
        "<(child)*[c]>", "not <anc[a]>", "b or <dos[c]>"}) {
    queries.push_back(Query::Parse(text, &alphabet).ValueOrDie());
  }
  BatchOptions options;
  options.num_workers = 2;
  BatchEngine engine(options);
  for (const Tree& tree : CorpusTrees(&alphabet, 4, 24, 82)) {
    engine.AddTree(std::make_shared<Tree>(tree));
  }
  const auto reference = engine.Run(queries);
  // Twice: the second call runs on warm per-(worker, tree) ExecEngines.
  for (int round = 0; round < 2; ++round) {
    const auto compiled = engine.RunCompiled(queries);
    ASSERT_EQ(compiled.size(), reference.size());
    for (size_t t = 0; t < reference.size(); ++t) {
      ASSERT_EQ(compiled[t].size(), reference[t].size());
      for (size_t q = 0; q < reference[t].size(); ++q) {
        ASSERT_EQ(compiled[t][q], reference[t][q])
            << "tree " << t << " query " << q << " round " << round;
      }
    }
  }
}

TEST(ExecIntegrationTest, PlanCacheSharesProgramsByCanonicalRoot) {
  Alphabet alphabet;
  PlanCache cache;
  auto first = cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  auto second = cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  ASSERT_NE(first.program, nullptr);
  EXPECT_EQ(first.program.get(), second.program.get());
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.program_misses, 1u);
  EXPECT_EQ(stats.program_hits, 1u);

  // Different text, same plan after simplification (`W φ ≡ φ` on the
  // downward fragment): the canonical root coincides, so the program is
  // shared and no second lowering runs.
  auto rewritten = cache.ParseCompiled("W(<child[a]>)", &alphabet)
                       .ValueOrDie();
  EXPECT_EQ(rewritten.query->plan().get(), first.query->plan().get());
  EXPECT_EQ(rewritten.program.get(), first.program.get());
  stats = cache.stats();
  EXPECT_EQ(stats.program_misses, 1u);
  EXPECT_EQ(stats.program_hits, 2u);

  // A genuinely new plan lowers anew, and the timer moves only on misses.
  auto other = cache.ParseCompiled("<desc[b]>", &alphabet).ValueOrDie();
  EXPECT_NE(other.program.get(), first.program.get());
  EXPECT_EQ(cache.stats().program_misses, 2u);
  EXPECT_GE(cache.stats().lowering_seconds, 0.0);
}

TEST(ExecIntegrationTest, PlanCachePurgeDropsPrograms) {
  Alphabet alphabet;
  PlanCache cache;
  cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  ASSERT_EQ(cache.stats().program_misses, 1u);
  cache.Purge(&alphabet);
  cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  EXPECT_EQ(cache.stats().program_misses, 2u);
}

TEST(ExecIntegrationTest, CompiledProgramOutlivesCacheEviction) {
  Alphabet alphabet;
  PlanCache cache(/*capacity=*/1);
  auto held = cache.ParseCompiled("<child[a]>", &alphabet).ValueOrDie();
  cache.ParseCompiled("<desc[b]>", &alphabet).ValueOrDie();  // evicts
  // The handed-out program stays usable after its LRU entry is gone.
  Tree tree = T("a(a, b)", &alphabet);
  ExecEngine engine(tree);
  EXPECT_EQ(engine.Eval(*held.program),
            Interpret(tree, held.query->plan()));
}

}  // namespace
}  // namespace xptc
