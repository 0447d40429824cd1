// Tier-1 deterministic replay of the checked-in fuzzing corpus
// (tests/corpus/*.case): every case must load, parse, and cross-check
// clean on the full eight-oracle registry. Replay never re-runs the
// generators — the XML and query text in the case line are authoritative,
// so a finding file keeps reproducing even if generator internals change.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "server/service.h"
#include "testing/corpus.h"
#include "testing/fuzzer.h"
#include "testing/oracle.h"
#include "tree/xml.h"
#include "workload/plan_cache.h"

#ifndef XPTC_TEST_DATA_DIR
#error "XPTC_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace xptc {
namespace {

using xptc::testing::CorpusCase;
using xptc::testing::Disagreement;
using xptc::testing::LoadCorpusDir;
using xptc::testing::MakeDefaultRegistry;
using xptc::testing::ReplayCase;

const char kCorpusDir[] = XPTC_TEST_DATA_DIR "/corpus";

TEST(CorpusReplayTest, CorpusIsPresentAndWellFormed) {
  auto corpus = LoadCorpusDir(kCorpusDir);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_GE(corpus->size(), 25u);
  for (const auto& [path, corpus_case] : *corpus) {
    EXPECT_FALSE(corpus_case.xml.empty()) << path;
    EXPECT_FALSE(corpus_case.query.empty()) << path;
  }
}

TEST(CorpusReplayTest, EveryCaseReplaysCleanOnAllOracles) {
  Alphabet alphabet;
  auto registry = MakeDefaultRegistry(&alphabet);
  auto corpus = LoadCorpusDir(kCorpusDir);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  for (const auto& [path, corpus_case] : *corpus) {
    auto outcome = ReplayCase(registry.get(), &alphabet, corpus_case);
    ASSERT_TRUE(outcome.ok()) << path << ": " << outcome.status().ToString();
    ASSERT_FALSE(outcome->has_value())
        << path << ": " << (*outcome)->Describe();
  }
  // Replay must exercise more than the engine tier: the corpus is seeded
  // so the logic/automata oracles run on at least some cases.
  const auto& runs = registry->stats().runs;
  for (const char* name :
       {"naive", "sets", "seed", "exec", "fo", "ntwa", "dfta"}) {
    const auto it = runs.find(name);
    EXPECT_TRUE(it != runs.end() && it->second > 0)
        << "oracle never ran on the corpus: " << name;
  }
}

// Every corpus case also replays through the loopback query server: the
// case's XML becomes a corpus tree, the query goes over the binary wire,
// and the returned bitset must equal the library's direct evaluation
// bit-for-bit. A serving-layer bug (framing, bitset serialization, tree
// routing) cannot hide behind the oracles above because this comparison
// bypasses them entirely.
TEST(CorpusReplayTest, EveryCaseReplaysOverTheWireBitForBit) {
  auto corpus = LoadCorpusDir(kCorpusDir);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  server::QueryService service;
  std::vector<std::pair<std::string, const CorpusCase*>> loaded;
  for (const auto& [path, corpus_case] : *corpus) {
    auto id = service.AddTreeXml(corpus_case.xml);
    ASSERT_TRUE(id.ok()) << path << ": " << id.status().ToString();
    ASSERT_EQ(id.ValueOrDie(), static_cast<int>(loaded.size()));
    loaded.emplace_back(path, &corpus_case);
  }
  server::QueryServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  auto client = server::BlockingClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Independent library chain: own alphabet, own parse, own engine.
  Alphabet alphabet;
  PlanCache plans(256);
  for (size_t i = 0; i < loaded.size(); ++i) {
    const auto& [path, corpus_case] = loaded[i];
    auto tree = ParseXml(corpus_case->xml, &alphabet);
    ASSERT_TRUE(tree.ok()) << path;
    auto compiled = plans.ParseCompiled(corpus_case->query, &alphabet);
    ASSERT_TRUE(compiled.ok()) << path;
    exec::ExecEngine engine(*tree);
    const Bitset expected = engine.Eval(*compiled->program);

    auto resp = client->Query(corpus_case->query, {static_cast<int>(i)});
    ASSERT_TRUE(resp.ok()) << path << ": " << resp.status().ToString();
    ASSERT_EQ(resp->code, server::RespCode::kOk)
        << path << ": " << resp->payload;
    ASSERT_EQ(resp->results.size(), 1u) << path;
    EXPECT_TRUE(resp->results[0].bits == expected)
        << path << ": wire result differs from library result";
    EXPECT_EQ(resp->results[0].count, expected.Count()) << path;
  }
  server.Shutdown();
}

}  // namespace
}  // namespace xptc
