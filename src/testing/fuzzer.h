#ifndef XPTC_TESTING_FUZZER_H_
#define XPTC_TESTING_FUZZER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/alphabet.h"
#include "testing/corpus.h"
#include "testing/oracle.h"
#include "testing/shrink.h"
#include "tree/tree.h"
#include "xpath/ast.h"

namespace xptc {
namespace testing {

/// Generation targets of a campaign: the dialect hierarchy, the downward
/// fragment, the NTWA-compilable fragment, and a mix of all of them (each
/// case draws its target uniformly).
enum class FuzzFragment {
  kCore,
  kRegular,
  kRegularW,
  kDownward,
  kCompilable,
  kAll,
};

const char* FuzzFragmentToString(FuzzFragment fragment);
std::optional<FuzzFragment> FuzzFragmentFromString(std::string_view name);

struct FuzzOptions {
  /// Campaign seed; every case is a pure function of (options, case seed),
  /// and case seed i is a pure function of (seed, i) — so any single case
  /// can be re-derived without replaying the campaign.
  uint64_t seed = 1;

  /// Budgets: stop after this many cases (0 = unbounded) or this many
  /// wall-clock seconds (0 = unbounded). At least one must be positive.
  int64_t max_cases = 0;
  double max_seconds = 0.0;

  FuzzFragment fragment = FuzzFragment::kAll;

  /// Per-case size draws: trees get 1..max_tree_nodes nodes over
  /// num_labels labels; queries get generator depth 1..max_query_depth.
  int max_tree_nodes = 24;
  int num_labels = 4;
  int max_query_depth = 4;

  /// When true, half of the cases take a deep-tree profile instead: shape
  /// drawn from {chain, caterpillar}, size from [max_tree_nodes,
  /// 8 * max_tree_nodes], and labels from the first two symbols only.
  /// Depth ≈ nodes is the closure axis kernels' worst regime (one
  /// interval/streamed pass vs an O(depth)-round fixpoint). With two
  /// labels, star guards hold along long runs; half of the deep
  /// Regular XPath(W) cases also take a star over unit steps seeded at
  /// one end of the tree, so their stars outlast the engine's round
  /// budget. The uniform shape/size draw above under-samples all of this.
  bool deep_tree_bias = false;

  /// Stop the campaign after this many findings (each is shrunk first).
  int max_findings = 8;

  /// When non-empty, targeted mode: only the named oracle runs as the
  /// candidate on each case, compared against the first other applicable
  /// oracle (OracleRegistry::CheckCandidate) — a cheap way to point a long
  /// campaign at one engine. Must name a registered oracle.
  std::string candidate;

  /// When non-empty, every shrunk finding is written there as a
  /// `finding-<case seed>.case` file with provenance comments.
  std::string corpus_dir;
};

/// One derived case (before oracle evaluation).
struct FuzzCase {
  uint64_t case_seed = 0;
  FuzzFragment fragment = FuzzFragment::kAll;  // resolved, never kAll
  Tree tree;
  NodePtr query;
};

/// One confirmed, shrunk cross-check failure.
struct Finding {
  uint64_t case_seed = 0;
  std::string reference;  // oracle pair that disagreed
  std::string other;
  std::string description;  // Disagreement::Describe of the original case
  CorpusCase original;      // as generated
  CorpusCase shrunk;        // after delta debugging
  ShrinkStats shrink;
};

struct CampaignResult {
  int64_t cases = 0;
  double seconds = 0.0;
  std::vector<Finding> findings;
};

/// The differential fuzzing loop: derive case → cross-check every
/// applicable oracle pair (via OracleRegistry::Check) → on disagreement,
/// shrink against exactly the pair that disagreed and record/persist the
/// finding. Single-threaded by design (the concurrency harness is
/// testing/stress.h); fully deterministic given (options, registry).
class Fuzzer {
 public:
  /// `registry` and `alphabet` must outlive the fuzzer.
  Fuzzer(OracleRegistry* registry, Alphabet* alphabet, FuzzOptions options);

  /// Case seed of campaign index `i` (random-access, pure).
  static uint64_t CaseSeedAt(uint64_t campaign_seed, int64_t index);

  /// Derives case `i`'s (fragment, tree, query) as a pure function of its
  /// case seed. Exposed for replaying one case without the campaign loop.
  FuzzCase DeriveCase(uint64_t case_seed) const;

  CampaignResult Run();

 private:
  std::optional<Finding> CheckOne(const FuzzCase& fuzz_case);

  OracleRegistry* registry_;
  Alphabet* alphabet_;
  FuzzOptions options_;
  Oracle* candidate_ = nullptr;  // resolved from options_.candidate
  std::vector<Symbol> labels_;
};

/// Replays a corpus case against a registry: parses the XML and the query
/// (parse failures are errors — corpus cases are well-formed by
/// construction) and cross-checks all applicable oracles. nullopt = all
/// agreed.
Result<std::optional<Disagreement>> ReplayCase(OracleRegistry* registry,
                                               Alphabet* alphabet,
                                               const CorpusCase& c);

/// Mutation self-check (DESIGN.md §9): for each synthetic one-line-bug
/// mutant, runs a campaign of a real oracle against the mutant and asserts
/// the harness (a) finds a disagreement and (b) shrinks it small. This is
/// the automated form of the manual "inject a bug, watch it get caught"
/// acceptance test.
struct SelfCheckReport {
  Mutation mutation;
  bool found = false;
  int64_t cases = 0;  // cases until the first finding (or the budget)
  Finding finding;    // meaningful iff `found`
};

/// `max_cases` bounds each mutant's campaign. Reports one entry per
/// mutation, in enum order.
std::vector<SelfCheckReport> RunSelfCheck(Alphabet* alphabet, uint64_t seed,
                                          int64_t max_cases = 20000);

}  // namespace testing
}  // namespace xptc

#endif  // XPTC_TESTING_FUZZER_H_
