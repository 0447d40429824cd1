#include "workload/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alphabet.h"
#include "xpath/ast.h"
#include "xpath/fragment.h"
#include "xpath/intern.h"
#include "xpath/parser.h"

namespace xptc {
namespace {

TEST(PlanCacheTest, HitReturnsSamePlanAndCountsStats) {
  Alphabet alphabet;
  PlanCache cache;
  auto first = cache.Parse("<child[a]>", &alphabet).ValueOrDie();
  auto second = cache.Parse("<child[a]>", &alphabet).ValueOrDie();
  EXPECT_EQ(first.get(), second.get());  // the very same Query object
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, SurroundingWhitespaceIsNormalised) {
  Alphabet alphabet;
  PlanCache cache;
  auto bare = cache.Parse("<child[a]>", &alphabet).ValueOrDie();
  auto padded = cache.Parse("  <child[a]> \n", &alphabet).ValueOrDie();
  EXPECT_EQ(bare.get(), padded.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, CachedPlanMatchesDirectParse) {
  Alphabet alphabet;
  PlanCache cache;
  const std::string text = "W(<desc[b and W(<child[a]>)]>)";
  auto cached = cache.Parse(text, &alphabet).ValueOrDie();
  Query direct = Query::Parse(text, &alphabet).ValueOrDie();
  EXPECT_EQ(NodeToString(*cached->plan(), alphabet),
            NodeToString(*direct.plan(), alphabet));
  EXPECT_EQ(cached->dialect(), direct.dialect());
  EXPECT_EQ(cached->source_dialect(), direct.source_dialect());
}

TEST(PlanCacheTest, HashConsingSharesSubexpressionsAcrossQueries) {
  // Two distinct query texts containing the same subexpression: after
  // interning, the shared subtree must be pointer-identical, so every
  // pointer-keyed evaluator memo hits across the two plans.
  Alphabet alphabet;
  PlanCache cache;
  auto q1 = cache.Parse("<child[a]> and b", &alphabet).ValueOrDie();
  auto q2 = cache.Parse("<child[a]> or c", &alphabet).ValueOrDie();
  ASSERT_EQ(q1->plan()->op, NodeOp::kAnd);
  ASSERT_EQ(q2->plan()->op, NodeOp::kOr);
  EXPECT_EQ(q1->plan()->left.get(), q2->plan()->left.get())
      << "interner failed to share <child[a]> across two cached plans";
}

TEST(PlanCacheTest, IdenticalTextUnderDifferentAlphabetsIsDistinct) {
  Alphabet first, second;
  PlanCache cache;
  auto a = cache.Parse("<child[a]>", &first).ValueOrDie();
  auto b = cache.Parse("<child[a]>", &second).ValueOrDie();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsedAtCapacity) {
  Alphabet alphabet;
  PlanCache cache(/*capacity=*/2);
  auto a = cache.Parse("a", &alphabet).ValueOrDie();
  cache.Parse("b", &alphabet).ValueOrDie();
  cache.Parse("a", &alphabet).ValueOrDie();  // refresh a; b is now LRU
  cache.Parse("c", &alphabet).ValueOrDie();  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  // a survived the eviction...
  auto a2 = cache.Parse("a", &alphabet).ValueOrDie();
  EXPECT_EQ(a.get(), a2.get());
  // ...b did not: re-parsing it is a miss (a fresh object).
  const size_t misses_before = cache.stats().misses;
  cache.Parse("b", &alphabet).ValueOrDie();
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(PlanCacheTest, EvictedPlanRemainsUsable) {
  // shared_ptr ownership: eviction must not invalidate handed-out plans.
  Alphabet alphabet;
  PlanCache cache(/*capacity=*/1);
  auto a = cache.Parse("<child[a]>", &alphabet).ValueOrDie();
  cache.Parse("<child[b]>", &alphabet).ValueOrDie();  // evicts a's entry
  EXPECT_EQ(a->dialect(), Dialect::kCoreXPath);  // still alive and valid
}

TEST(PlanCacheTest, ParseErrorsAreNotCached) {
  Alphabet alphabet;
  PlanCache cache;
  EXPECT_FALSE(cache.Parse("<<", &alphabet).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Parse("<<", &alphabet).ok());  // still an error
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCacheTest, PathQueriesAreCachedSeparately) {
  Alphabet alphabet;
  PlanCache cache;
  auto p1 = cache.ParsePath("child/desc[a]", &alphabet).ValueOrDie();
  auto p2 = cache.ParsePath("child/desc[a]", &alphabet).ValueOrDie();
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  // A node query with coincidentally identical text would be a different
  // key (is_path differs) — no cross-contamination.
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, UnoptimizedAndOptimizedAreDistinctEntries) {
  Alphabet alphabet;
  PlanCache cache;
  auto opt = cache.Parse("W(<desc[a]>)", &alphabet).ValueOrDie();
  auto raw = cache.Parse("W(<desc[a]>)", &alphabet, /*optimize=*/false)
                 .ValueOrDie();
  EXPECT_NE(opt.get(), raw.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(raw->dialect(), raw->source_dialect());
}

TEST(PlanCacheTest, ConcurrentParsesAreSafeAndConverge) {
  // Many threads hammering the same small text set: no crashes, no torn
  // stats, and afterwards each text resolves to one stable plan.
  Alphabet alphabet;
  PlanCache cache;
  const std::vector<std::string> texts = {"<child[a]>", "<desc[b]>",
                                          "W(<desc[b]>)", "a and b"};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        for (const std::string& text : texts) {
          auto q = cache.Parse(text, &alphabet);
          ASSERT_TRUE(q.ok());
          ASSERT_NE(q.ValueOrDie(), nullptr);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 50u * texts.size());
  for (const std::string& text : texts) {
    auto a = cache.Parse(text, &alphabet).ValueOrDie();
    auto b = cache.Parse(text, &alphabet).ValueOrDie();
    EXPECT_EQ(a.get(), b.get());
  }
}

TEST(PlanCacheTest, RacingColdMissesDoNotDuplicateEntries) {
  // Regression: two threads missing on the same cold key both parse; the
  // insert path must re-check the index under the lock so the loser reuses
  // the winner's entry. The old code blindly inserted both, leaving a
  // stale duplicate in the LRU list whose eventual eviction erased the
  // LIVE entry's index slot (hot key became a permanent miss).
  for (int round = 0; round < 25; ++round) {
    Alphabet alphabet;
    PlanCache cache;
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        ASSERT_TRUE(cache.Parse("W(<desc[a]>)", &alphabet).ok());
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(cache.size(), 1u);  // one key -> exactly one LRU entry
    const PlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 4u);
  }
}

TEST(PlanCacheTest, PurgeDropsAlphabetEntriesAndInterner) {
  Alphabet keep, drop;
  PlanCache cache;
  auto kept = cache.Parse("<child[a]>", &keep).ValueOrDie();
  cache.Parse("<child[a]>", &drop).ValueOrDie();
  cache.Parse("<desc[b]>", &drop).ValueOrDie();
  EXPECT_EQ(cache.size(), 3u);
  cache.Purge(&drop);
  EXPECT_EQ(cache.size(), 1u);
  // The purged alphabet's entries are gone: same text + address is a miss.
  const size_t misses = cache.stats().misses;
  auto reparsed = cache.Parse("<child[a]>", &drop).ValueOrDie();
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_NE(reparsed, nullptr);
  // The surviving alphabet still hits the very same plan object.
  EXPECT_EQ(cache.Parse("<child[a]>", &keep).ValueOrDie().get(), kept.get());
}

TEST(ExprInternerTest, InternsStructurallyEqualTrees) {
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr a = ParseNode("<child[a]> and <desc[b]>", &alphabet).ValueOrDie();
  NodePtr b = ParseNode("<child[a]> and <desc[b]>", &alphabet).ValueOrDie();
  ASSERT_NE(a.get(), b.get());  // parser does not hash-cons
  NodePtr ia = interner.Intern(a);
  NodePtr ib = interner.Intern(b);
  EXPECT_EQ(ia.get(), ib.get());
  // Idempotent: interning an interned expression is the identity.
  EXPECT_EQ(interner.Intern(ia).get(), ia.get());
}

TEST(ExprInternerTest, SharesSubtreesAcrossDifferentRoots) {
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr conj =
      interner.Intern(ParseNode("<child[a]> and b", &alphabet).ValueOrDie());
  NodePtr disj =
      interner.Intern(ParseNode("<child[a]> or c", &alphabet).ValueOrDie());
  EXPECT_EQ(conj->left.get(), disj->left.get());
  EXPECT_NE(conj.get(), disj.get());
}

TEST(ExprInternerTest, InternsPathsIncludingPredicates) {
  Alphabet alphabet;
  ExprInterner interner;
  PathPtr p1 =
      interner.Intern(ParsePath("(child[a])*", &alphabet).ValueOrDie());
  PathPtr p2 =
      interner.Intern(ParsePath("(child[a])*", &alphabet).ValueOrDie());
  EXPECT_EQ(p1.get(), p2.get());
}

TEST(ExprInternerTest, TrimMemosKeepsCanonicalsAndStaysCorrect) {
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr kept =
      interner.Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie());
  interner.TrimMemos();
  // Memos are a pure fast path: after the trim, re-interning an equal tree
  // (or the canonical itself) still lands on the same representative.
  NodePtr again =
      interner.Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie());
  EXPECT_EQ(again.get(), kept.get());
  EXPECT_EQ(interner.Intern(kept).get(), kept.get());
}

TEST(ExprInternerTest, SelfTrimSweepsUnreferencedCanonicals) {
  // A long-running interner must not grow without bound: once the memos
  // cross kMemoTrimThreshold they are dropped and canonical nodes no live
  // plan references are swept. Intern many distinct throwaway queries
  // (results immediately discarded) — enough that the self-trim fires at
  // least once — and check the canonical sets shrank while a held plan
  // survived.
  Alphabet alphabet;
  ExprInterner interner;
  NodePtr kept =
      interner.Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie());
  constexpr size_t kDistinct = 30000;  // ~3 memo entries each > threshold
  for (size_t i = 0; i < kDistinct; ++i) {
    NodePtr throwaway =
        ParseNode("<child[x" + std::to_string(i) + "]>", &alphabet)
            .ValueOrDie();
    ASSERT_NE(interner.Intern(throwaway), nullptr);
  }
  EXPECT_LT(interner.unique_nodes(), kDistinct)
      << "self-trim never swept the discarded canonicals";
  EXPECT_EQ(interner
                .Intern(ParseNode("<child[keep]>", &alphabet).ValueOrDie())
                .get(),
            kept.get())
      << "sweep must not evict canonicals still referenced by live plans";
}

}  // namespace
}  // namespace xptc
