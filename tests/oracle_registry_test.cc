// Tests of the differential-testing subsystem itself (src/testing/): the
// oracle registry's fragment/cost gating and cross-check policy, the
// corpus serialisation round-trip, the counterexample shrinker, and the
// mutation self-check (an injected one-line evaluator bug must be found,
// shrunk small, and reproducible from its .case line alone).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "testing/corpus.h"
#include "testing/fuzzer.h"
#include "testing/oracle.h"
#include "testing/shrink.h"
#include "tree/generate.h"
#include "xpath/ast.h"
#include "xpath/parser.h"
#include "test_util.h"

namespace xptc {
namespace {

using testing_util::N;
using testing_util::T;
using xptc::testing::CaseTree;
using xptc::testing::CorpusCase;
using xptc::testing::DefaultRegistryOptions;
using xptc::testing::Disagreement;
using xptc::testing::MakeDefaultRegistry;
using xptc::testing::MakeMutantOracle;
using xptc::testing::Mutation;
using xptc::testing::MutationToString;
using xptc::testing::Oracle;
using xptc::testing::OracleRegistry;
using xptc::testing::RunSelfCheck;
using xptc::testing::SelfCheckReport;

TEST(OracleRegistryTest, DefaultRegistryHasAllEightPipelines) {
  Alphabet alphabet;
  auto registry = MakeDefaultRegistry(&alphabet);
  EXPECT_EQ(registry->size(), 8);
  for (const char* name : {"naive", "sets", "seed", "batch", "exec", "fo",
                           "ntwa", "dfta"}) {
    EXPECT_NE(registry->Find(name), nullptr) << name;
  }
  EXPECT_EQ(registry->Find("nope"), nullptr);
}

TEST(OracleRegistryTest, HandlesRespectsFragmentAndCostGates) {
  Alphabet alphabet;
  auto registry = MakeDefaultRegistry(&alphabet);
  const Tree small = T("a(b,c)", &alphabet);

  // A downward query: everything with generous-enough gates handles it.
  NodePtr down = N("<child[b]>", &alphabet);
  EXPECT_TRUE(registry->Find("naive")->Handles(small, *down));
  EXPECT_TRUE(registry->Find("sets")->Handles(small, *down));
  EXPECT_TRUE(registry->Find("dfta")->Handles(small, *down));

  // An upward query leaves the downward fragment: the DFTA oracle must
  // bow out, the others stay.
  NodePtr up = N("<parent[a]>", &alphabet);
  EXPECT_TRUE(registry->Find("sets")->Handles(small, *up));
  EXPECT_FALSE(registry->Find("dfta")->Handles(small, *up));

  // A non-downward walk under a filter is outside the NTWA-compilable
  // fragment.
  NodePtr uncompilable = N("<child[<parent/parent>]>", &alphabet);
  EXPECT_FALSE(registry->Find("ntwa")->Handles(small, *uncompilable));
  EXPECT_TRUE(registry->Find("sets")->Handles(small, *uncompilable));

  // Cost gates: the heavy oracles refuse big trees, `sets` never does.
  Rng rng(5);
  TreeGenOptions tree_options;
  tree_options.num_nodes = 200;
  const Tree big =
      GenerateTree(tree_options, DefaultLabels(&alphabet, 2), &rng);
  EXPECT_FALSE(registry->Find("naive")->Handles(big, *down));
  EXPECT_FALSE(registry->Find("fo")->Handles(big, *down));
  EXPECT_TRUE(registry->Find("sets")->Handles(big, *down));
}

TEST(OracleRegistryTest, CheckAgreesOnHandwrittenCases) {
  Alphabet alphabet;
  auto registry = MakeDefaultRegistry(&alphabet);
  const std::vector<Tree> trees = testing_util::CorpusTrees(
      &alphabet, /*num_labels=*/3, /*max_nodes=*/12, /*seed=*/99);
  const std::vector<const char*> queries = {
      "a",
      "<child[b]>",
      "<desc[a and not b]>",
      "W(<desc[a]>)",
      "<(child)*[leaf]>",
      "not <parent> and <child[<right>]>",
      "W(W(<child[b]>)) or <anc[a]>",
  };
  for (const Tree& tree : trees) {
    for (const char* text : queries) {
      NodePtr query = N(text, &alphabet);
      const std::optional<Disagreement> disagreement =
          registry->Check(tree, query);
      ASSERT_FALSE(disagreement.has_value())
          << disagreement->Describe() << " for " << text << " on "
          << tree.ToTerm(alphabet);
    }
  }
  const OracleRegistry::Stats& stats = registry->stats();
  EXPECT_EQ(stats.checks,
            static_cast<int64_t>(trees.size() * queries.size()));
  EXPECT_GT(stats.comparisons, stats.checks);  // >1 oracle pair per case
}

TEST(OracleRegistryTest, MutantOracleDisagreesAndIsNamed) {
  Alphabet alphabet;
  DefaultRegistryOptions options;
  options.include_heavy = false;
  options.include_batch = false;
  auto registry = MakeDefaultRegistry(&alphabet, options);
  registry->Register(MakeMutantOracle(Mutation::kAndAsOr));

  const Tree tree = T("a(b,c)", &alphabet);
  NodePtr query = N("a and b", &alphabet);  // ∨ selects the root, ∧ nothing
  const std::optional<Disagreement> disagreement =
      registry->Check(tree, query);
  ASSERT_TRUE(disagreement.has_value());
  EXPECT_EQ(disagreement->other, std::string("mutant-and-as-or"));
  EXPECT_EQ(disagreement->reference, std::string("naive"));
}

TEST(CorpusTest, CaseLineRoundTrips) {
  const CorpusCase original{123456789u, "<a><b/></a>", "<child[b]>"};
  const std::string line = xptc::testing::FormatCaseLine(original);
  Result<CorpusCase> parsed = xptc::testing::ParseCaseLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, original.seed);
  EXPECT_EQ(parsed->xml, original.xml);
  EXPECT_EQ(parsed->query, original.query);
}

TEST(CorpusTest, MalformedCaseLinesRejected) {
  EXPECT_FALSE(xptc::testing::ParseCaseLine("").ok());
  EXPECT_FALSE(xptc::testing::ParseCaseLine("1\t<a/>").ok());
  EXPECT_FALSE(xptc::testing::ParseCaseLine("x\t<a/>\ttrue").ok());
  EXPECT_FALSE(xptc::testing::ParseCaseLine("1\t\ttrue").ok());
  EXPECT_FALSE(xptc::testing::ParseCaseLine("1\t<a/>\t").ok());
  EXPECT_FALSE(xptc::testing::ParseCaseLine("1\t<a/>\ttrue\textra").ok());
  EXPECT_FALSE(
      xptc::testing::ParseCaseLine("99999999999999999999999\t<a/>\ttrue")
          .ok());
}

TEST(CorpusTest, CompactXmlReparsesToEqualTree) {
  Alphabet alphabet;
  Rng rng(404);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  for (int shape = 0; shape < 7; ++shape) {
    TreeGenOptions options;
    options.num_nodes = 17;
    options.shape = static_cast<TreeShape>(shape);
    const Tree tree = GenerateTree(options, labels, &rng);
    const std::string xml = xptc::testing::CompactXml(tree, alphabet);
    EXPECT_EQ(xml.find('\n'), std::string::npos);  // single line
    const CorpusCase corpus_case{0, xml, "true"};
    Result<Tree> reparsed = CaseTree(corpus_case, &alphabet);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(*reparsed, tree);
  }
}

TEST(ShrinkTest, DeleteSubtreeRemovesExactlyTheSubtree) {
  Alphabet alphabet;
  const Tree tree = T("a(b(c,d),e)", &alphabet);
  // Node ids are preorder: a=0 b=1 c=2 d=3 e=4.
  EXPECT_EQ(xptc::testing::DeleteSubtree(tree, 1), T("a(e)", &alphabet));
  EXPECT_EQ(xptc::testing::DeleteSubtree(tree, 2), T("a(b(d),e)", &alphabet));
  EXPECT_EQ(xptc::testing::DeleteSubtree(tree, 4),
            T("a(b(c,d))", &alphabet));
}

TEST(ShrinkTest, NodeCandidatesNeverGrow) {
  Alphabet alphabet;
  for (const char* text :
       {"a and (b or not c)", "W(<desc[a]> and <child>)",
        "<(child[a] | desc)*[not b]>", "not W(W(a))"}) {
    NodePtr node = N(text, &alphabet);
    for (const NodePtr& candidate :
         xptc::testing::NodeShrinkCandidates(node)) {
      EXPECT_LE(NodeSize(*candidate), NodeSize(*node))
          << NodeToString(*candidate, alphabet) << " from " << text;
    }
  }
}

TEST(ShrinkTest, GreedyShrinkReachesAMinimalCase) {
  Alphabet alphabet;
  Rng rng(777);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  TreeGenOptions tree_options;
  tree_options.num_nodes = 30;
  const Tree tree = GenerateTree(tree_options, labels, &rng);
  NodePtr query = N("a and (b or <child[a]>) and not W(b)", &alphabet);
  // Artificial failure predicate with a known minimum: any tree of >= 2
  // nodes together with any query of >= 3 AST nodes "fails".
  const auto still_fails = [](const Tree& t, const NodePtr& q) {
    return t.size() >= 2 && NodeSize(*q) >= 3;
  };
  const xptc::testing::ShrunkCase shrunk =
      xptc::testing::ShrinkCounterexample(tree, query, still_fails,
                                          labels[0]);
  EXPECT_EQ(shrunk.tree.size(), 2);
  // Greedy one-step shrinking may bottom out one candidate above the true
  // minimum (a candidate jumping below the threshold is not taken), so
  // allow one node of slack over the predicate's minimum of 3.
  EXPECT_GE(NodeSize(*shrunk.query), 3);
  EXPECT_LE(NodeSize(*shrunk.query), 4);
  EXPECT_TRUE(still_fails(shrunk.tree, shrunk.query));
  // Label collapse: every surviving node carries the collapse label.
  for (NodeId v = 0; v < shrunk.tree.size(); ++v) {
    EXPECT_EQ(shrunk.tree.Label(v), labels[0]);
  }
}

// The mutation check of DESIGN.md §9: for each synthetic one-line
// evaluator bug, the campaign must find a counterexample, the shrinker
// must reduce it to <= 8 tree nodes and <= 6 query AST nodes, and the
// shrunk .case line alone must reproduce the disagreement.
TEST(SelfCheckTest, InjectedBugsAreFoundShrunkAndReproducible) {
  Alphabet alphabet;
  const std::vector<SelfCheckReport> reports =
      RunSelfCheck(&alphabet, /*seed=*/1, /*max_cases=*/20000);
  ASSERT_EQ(reports.size(), 3u);
  for (const SelfCheckReport& report : reports) {
    SCOPED_TRACE(MutationToString(report.mutation));
    ASSERT_TRUE(report.found) << "not found in " << report.cases << " cases";
    EXPECT_LE(report.finding.shrink.tree_nodes_after, 8);
    EXPECT_LE(report.finding.shrink.query_size_after, 6);

    // Reproduce from the serialised case alone: fresh parse of the xml and
    // query, fresh mutant registry, same disagreement.
    const std::string line =
        xptc::testing::FormatCaseLine(report.finding.shrunk);
    Result<CorpusCase> reparsed = xptc::testing::ParseCaseLine(line);
    ASSERT_TRUE(reparsed.ok());
    Result<Tree> tree = CaseTree(*reparsed, &alphabet);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    Result<NodePtr> query = ParseNode(reparsed->query, &alphabet);
    ASSERT_TRUE(query.ok()) << query.status().ToString();

    DefaultRegistryOptions options;
    options.include_heavy = false;
    options.include_batch = false;
    auto registry = MakeDefaultRegistry(&alphabet, options);
    registry->Register(MakeMutantOracle(report.mutation));
    const std::optional<Disagreement> disagreement =
        registry->Check(*tree, *query);
    ASSERT_TRUE(disagreement.has_value()) << line;
    EXPECT_EQ(disagreement->other,
              std::string("mutant-") + MutationToString(report.mutation));
  }
}

}  // namespace
}  // namespace xptc
