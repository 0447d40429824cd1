// Golden tests for the EXPLAIN facility (src/obs/explain.cc, surfaced by
// tools/xptc_explain). The full-text golden catches accidental drift in the
// trace format, the program listing, or the registry-delta rendering; the
// consistency assertions are the real product guarantee — every number the
// trace reports must equal the registry's counter delta bit for bit.

#include <gtest/gtest.h>

#include <string>

#include "obs/explain.h"

namespace xptc {
namespace obs {
namespace {

ExplainOptions GoldenOptions() {
  ExplainOptions options;
  options.query = "<(child)*[a]>";
  options.gen_nodes = 64;
  options.gen_shape = "uniform";
  options.gen_seed = 1;
  options.gen_labels = 4;
  return options;
}

constexpr char kGolden[] =
    R"(EXPLAIN <(child)*[a]>
document: generated shape=uniform n=64 seed=1 labels=4
dialect: plan=CoreXPath source=RegularXPath
plan: <dos[a]>

program: 2 instrs, 2 regs, result r1, main [0,2), dag_hits=0
  0: r0 = label a   [execs 1]
  1: r1 = axis aos r0   [execs 1]

dispatch: register_machine
star rounds: used 0, budget 256 per star
result: 28/64 nodes
cross-check: interpreter bit-for-bit match

trace:
query
  plan_cache.parse_compiled instrs=2 regs=2 dag_hits=0
    - plan_cache: text miss, parsed + interned
    - plan_cache: program miss, lowered
  exec.eval axis.aos.sparse_path=1 axis.aos.touches=28 star_rounds_used=0 star_round_budget=256 instrs_executed=2 result_count=28
    - dispatch: register_machine
  interpreter.select axis.aos.sparse_path=1 axis.aos.touches=28 result_count=28

registry delta (counters): {"axis.aos.sparse_path": 2, "exec.dispatch.register_machine": 1, "exec.evals": 1, "exec.instrs_executed": 2, "plan_cache.misses": 1, "plan_cache.program_misses": 1, "tree_cache.label_builds": 1}
consistent: true
)";

TEST(ExplainTest, GoldenTextOutput) {
  auto explained = ExplainQuery(GoldenOptions());
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->match);
  EXPECT_TRUE(explained->consistent);
  EXPECT_EQ(explained->rendered, kGolden);
}

TEST(ExplainTest, OutputIsDeterministicAcrossRuns) {
  // Same options twice: a fresh PlanCache/TreeCache per call and a
  // timing-free rendering must give byte-identical output even though the
  // process-wide registry keeps counting between calls.
  auto first = ExplainQuery(GoldenOptions());
  auto second = ExplainQuery(GoldenOptions());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->rendered, second->rendered);
  EXPECT_EQ(first->trace_json, second->trace_json);
  EXPECT_EQ(first->registry_json, second->registry_json);
}

TEST(ExplainTest, JsonModeCarriesTheSameMachineViews) {
  ExplainOptions options = GoldenOptions();
  options.json = true;
  auto explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->consistent);
  const std::string& r = explained->rendered;
  // The JSON rendering embeds exactly the machine views the struct exposes.
  EXPECT_NE(r.find("\"dispatch\": \"register_machine\""), std::string::npos);
  EXPECT_NE(r.find("\"match\": true"), std::string::npos);
  EXPECT_NE(r.find("\"consistent\": true"), std::string::npos);
  EXPECT_NE(r.find(explained->registry_json), std::string::npos);
  EXPECT_NE(r.find(explained->trace_json), std::string::npos);
}

TEST(ExplainTest, StarHeavyQueryKeepsTraceAndRegistryConsistent) {
  // A query that forces actual star fixpoint rounds plus the W-operator
  // cache: the consistency check now covers eval.star_rounds and the
  // within L1/L2/computed provenance counters, not just the zero case.
  ExplainOptions options;
  options.query = "W(<child[a]>) and <(child[b])*[c]>";
  options.gen_nodes = 256;
  options.gen_shape = "caterpillar";
  options.gen_seed = 3;
  auto explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->match);
  EXPECT_TRUE(explained->consistent) << explained->rendered;

  // A deep two-label chain: the star outruns its round budget, and the
  // reachability pass's dispatch note and counter must agree too.
  options.query = "<(parent[a or b])*[not <parent>]>";
  options.gen_nodes = 2000;
  options.gen_shape = "chain";
  options.gen_labels = 2;
  explained = ExplainQuery(options);
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_TRUE(explained->match);
  EXPECT_TRUE(explained->consistent) << explained->rendered;
  EXPECT_NE(explained->rendered.find("dispatch: reachability_pass"),
            std::string::npos)
      << explained->rendered;
}

TEST(ExplainTest, RejectsUnknownShapeAndBadQuery) {
  ExplainOptions options = GoldenOptions();
  options.gen_shape = "moebius";
  auto bad_shape = ExplainQuery(options);
  EXPECT_FALSE(bad_shape.ok());
  EXPECT_NE(bad_shape.status().message().find("valid:"), std::string::npos);

  options = GoldenOptions();
  options.query = "<(child[";
  EXPECT_FALSE(ExplainQuery(options).ok());
}

}  // namespace
}  // namespace obs
}  // namespace xptc
