// Tests for the compiled execution backend (src/exec/): lowering
// determinism, DAG sharing, register allocation, the bytecode register
// machine, the one-pass downward engine, and the integration surfaces
// (BatchEngine::RunCompiled, PlanCache::ParseCompiled).
//
// The correctness bar throughout is bit-for-bit agreement with the
// interpreter (`Evaluator`) — the compiled engines are alternative
// execution strategies for the same semantics, so every divergence is a
// bug by definition (this is also what the fuzz oracles `exec`/`dexec`
// enforce at campaign scale).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "test_util.h"
#include "tree/generate.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"
#include "xpath/axis_kernels.h"
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
  EXPECT_EQ(engine.EvalGeneral(*Program::Compile(query)),
            Interpret(tree, query));
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

TEST(ExecProgramTest, DownwardProgramAttachedExactlyOnDownwardPlans) {
  Alphabet alphabet;
  auto downward =
      Program::Compile(N("<child[a]/desc[b]> and not <dos[c]>", &alphabet));
  ASSERT_NE(downward->downward(), nullptr);
  EXPECT_TRUE(downward->stats().downward);
  EXPECT_GT(downward->stats().bit_ops, 0);

  auto upward = Program::Compile(N("<anc[a]>", &alphabet));
  EXPECT_EQ(upward->downward(), nullptr);
  EXPECT_FALSE(upward->stats().downward);
}

TEST(ExecProgramTest, AllNodesTargetsFoldAway) {
  // ⟨p⟩⊤ starts from the all-nodes set: `leaf` and a bare `<child>` read
  // the tree's has-child column instead of a parent image over a `true`
  // register, and a filter over all nodes is its predicate, not an `and`.
  Alphabet alphabet;
  const auto code = [&alphabet](const char* text) {
    const std::string listing =
        Program::Compile(N(text, &alphabet))->ToString(alphabet);
    return listing.substr(0, listing.find("downward program"));
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
    return listing.substr(0, listing.find("downward program"));
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
  // matches the interpreter through both register-machine entry points.
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
      const Bitset reference = Interpret(tree, query);
      ASSERT_EQ(engine.EvalGeneral(*program), reference)
          << text << " n=" << tree.size();
      ASSERT_EQ(engine.Eval(*program), reference)
          << text << " (dispatched) n=" << tree.size();
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
      EXPECT_EQ(shared.EvalGeneral(*program), fresh.EvalGeneral(*program));
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
        ASSERT_EQ(engine.EvalGeneral(*program), Interpret(tree, query))
            << "fragment " << QueryFragmentToString(fragment) << " query "
            << NodeToString(*query, alphabet);
      }
    }
  }
}

TEST(ExecEngineTest, DownwardEngineMatchesGeneralOnRandomDownwardCorpus) {
  Alphabet alphabet;
  const std::vector<Tree> trees = CorpusTrees(&alphabet, 4, 20, 79);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 4);
  Rng rng(80);
  int downward_programs = 0;
  for (int i = 0; i < 60; ++i) {
    NodePtr query = GenerateNode(
        OptionsForFragment(QueryFragment::kDownward, 3), labels, &rng);
    auto program = Program::Compile(query);
    ASSERT_NE(program->downward(), nullptr)
        << NodeToString(*query, alphabet);
    ++downward_programs;
    for (const Tree& tree : trees) {
      ExecEngine engine(tree);
      const Bitset reference = Interpret(tree, query);
      ASSERT_EQ(engine.EvalDownward(*program), reference)
          << "downward engine diverged on "
          << NodeToString(*query, alphabet);
      ASSERT_EQ(engine.EvalGeneral(*program), reference)
          << "register machine diverged on "
          << NodeToString(*query, alphabet);
    }
  }
  EXPECT_EQ(downward_programs, 60);
}

TEST(ExecEngineTest, StarScheduleRegressions) {
  // Regression pin for the downward bit-program scheduler: the fixpoint
  // bit of `(child[ψ])*` is defined *after* its chain bits in emission
  // order, so a naive in-order sweep reads it as always-false and the star
  // collapses to `self`. These queries all die without the topological
  // (SCC-aware) schedule; nested stars additionally require the repeated
  // chaotic-iteration rounds.
  Alphabet alphabet;
  const char* queries[] = {
      "<(child[b])*[a]>",
      "<(child)*[a]>",
      "<(desc[b]/child)*[a]>",
      "<((child[b])*)*[a]>",
      "<((child)*/child[b])*[a]>",
      "<(child[<(child[b])*[a]>])*[b]>",
  };
  const char* terms[] = {
      "b(b(b(a)))",                  // chain: star must descend all of it
      "c(b(b(a)), a(b), b(c(a)))",
      "a",
      "b(a(b(a(b(a)))))",
  };
  for (const char* term : terms) {
    Tree tree = T(term, &alphabet);
    ExecEngine engine(tree);
    for (const char* text : queries) {
      NodePtr query = N(text, &alphabet);
      auto program = Program::Compile(query);
      ASSERT_NE(program->downward(), nullptr);
      const Bitset reference = Interpret(tree, query);
      EXPECT_EQ(engine.EvalDownward(*program), reference)
          << text << " on " << term;
      EXPECT_EQ(engine.EvalGeneral(*program), reference)
          << text << " on " << term;
    }
  }
}

TEST(ExecEngineTest, HybridDispatchFallsBackOnDeepSparseStars) {
  // `Eval` runs downward-compilable programs on the register machine with
  // a star-round budget. A deep chain whose star seed is one node at the
  // bottom forces ~depth rounds — the quadratic regime — so the engine
  // must abandon the run and re-execute as the one-pass sweep, with the
  // identical answer. A shallow tree stays on the register machine.
  //
  // A bare-axis star now lowers to a one-pass closure op (kAncMark here),
  // which never loops, so the fixpoint-budget machinery is exercised with
  // closure collapse disabled.
  axis::SetClosureCollapseForTesting(false);
  Alphabet alphabet;
  const Symbol a = alphabet.Intern("a");
  const Symbol b = alphabet.Intern("b");
  const int depth = 3000;
  TreeBuilder builder;
  for (int i = 0; i < depth; ++i) builder.Begin(i == depth - 1 ? b : a);
  for (int i = 0; i < depth; ++i) builder.End();
  const Tree chain = std::move(builder).Finish().ValueOrDie();
  NodePtr query = N("<(child)*[b]>", &alphabet);
  auto program = Program::Compile(query);
  ASSERT_NE(program->downward(), nullptr);
  ExecEngine engine(chain);
  const Bitset answer = engine.Eval(*program);
  EXPECT_TRUE(engine.last_used_downward());  // budget blew, sweep ran
  EXPECT_EQ(answer, Interpret(chain, query));
  EXPECT_EQ(answer, engine.EvalGeneral(*program));

  const Tree shallow = T("a(a(b), a, b(a))", &alphabet);
  ExecEngine shallow_engine(shallow);
  EXPECT_EQ(shallow_engine.Eval(*program), Interpret(shallow, query));
  EXPECT_FALSE(shallow_engine.last_used_downward());
  axis::ResetClosureCollapseForTesting();

  // With closure collapse on (the default), the same deep-chain star is a
  // single closure instruction: the register machine finishes with no
  // fixpoint rounds and no fallback, bit-for-bit identical.
  auto collapsed = Program::Compile(query);
  ExecEngine collapsed_engine(chain);
  EXPECT_EQ(collapsed_engine.Eval(*collapsed), answer);
  EXPECT_FALSE(collapsed_engine.last_used_downward());
  EXPECT_EQ(collapsed_engine.last_run().star_rounds_used, 0);
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
