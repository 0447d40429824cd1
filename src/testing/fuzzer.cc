#include "testing/fuzzer.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "compile/compile.h"
#include "obs/metrics.h"
#include "tree/generate.h"
#include "xpath/generator.h"
#include "xpath/parser.h"

namespace xptc {
namespace testing {

namespace {

constexpr FuzzFragment kConcreteFragments[] = {
    FuzzFragment::kCore,     FuzzFragment::kRegular,
    FuzzFragment::kRegularW, FuzzFragment::kDownward,
    FuzzFragment::kCompilable,
};

QueryFragment ToQueryFragment(FuzzFragment fragment) {
  switch (fragment) {
    case FuzzFragment::kCore:
      return QueryFragment::kCore;
    case FuzzFragment::kRegular:
      return QueryFragment::kRegular;
    case FuzzFragment::kRegularW:
      return QueryFragment::kRegularW;
    case FuzzFragment::kDownward:
      return QueryFragment::kDownward;
    default:
      XPTC_CHECK(false) << "no QueryFragment for "
                        << FuzzFragmentToString(fragment);
      return QueryFragment::kCore;
  }
}

// `path` with every transitive axis cut to its unit step (desc and dos to
// child, anc and aos to parent, fsib and foll to right, psib and prec to
// left), so a star over it advances one node per round.
PathPtr UnitSteps(const PathPtr& path) {
  switch (path->op) {
    case PathOp::kAxis:
      switch (path->axis) {
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
          return MakeAxis(Axis::kChild);
        case Axis::kAncestor:
        case Axis::kAncestorOrSelf:
          return MakeAxis(Axis::kParent);
        case Axis::kFollowingSibling:
        case Axis::kFollowing:
          return MakeAxis(Axis::kNextSibling);
        case Axis::kPrecedingSibling:
        case Axis::kPreceding:
          return MakeAxis(Axis::kPrevSibling);
        default:
          return path;
      }
    case PathOp::kSeq:
      return MakeSeq(UnitSteps(path->left), UnitSteps(path->right));
    case PathOp::kUnion:
      return MakeUnion(UnitSteps(path->left), UnitSteps(path->right));
    case PathOp::kFilter:
      return MakeFilter(UnitSteps(path->left), path->pred);
    case PathOp::kStar:
      return MakeStar(UnitSteps(path->left));
  }
  return path;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* FuzzFragmentToString(FuzzFragment fragment) {
  switch (fragment) {
    case FuzzFragment::kCore:
      return "core";
    case FuzzFragment::kRegular:
      return "regular";
    case FuzzFragment::kRegularW:
      return "regularw";
    case FuzzFragment::kDownward:
      return "downward";
    case FuzzFragment::kCompilable:
      return "compilable";
    case FuzzFragment::kAll:
      return "all";
  }
  return "?";
}

std::optional<FuzzFragment> FuzzFragmentFromString(std::string_view name) {
  for (FuzzFragment f :
       {FuzzFragment::kCore, FuzzFragment::kRegular, FuzzFragment::kRegularW,
        FuzzFragment::kDownward, FuzzFragment::kCompilable,
        FuzzFragment::kAll}) {
    if (name == FuzzFragmentToString(f)) return f;
  }
  return std::nullopt;
}

Fuzzer::Fuzzer(OracleRegistry* registry, Alphabet* alphabet,
               FuzzOptions options)
    : registry_(registry), alphabet_(alphabet), options_(std::move(options)) {
  XPTC_CHECK(options_.max_cases > 0 || options_.max_seconds > 0)
      << "Fuzzer: at least one of max_cases / max_seconds must be set";
  XPTC_CHECK_GT(options_.num_labels, 0);
  XPTC_CHECK_GT(options_.max_tree_nodes, 0);
  if (!options_.candidate.empty()) {
    candidate_ = registry_->Find(options_.candidate);
    XPTC_CHECK(candidate_ != nullptr)
        << "unknown candidate oracle: " << options_.candidate;
  }
  labels_ = DefaultLabels(alphabet_, options_.num_labels);
}

uint64_t Fuzzer::CaseSeedAt(uint64_t campaign_seed, int64_t index) {
  // Random-access derivation (no stream to replay): an Rng seeded from the
  // pair, advanced once. SplitMix seeding inside Rng decorrelates adjacent
  // indices.
  return Rng(campaign_seed +
             0x9e3779b97f4a7c15ull * static_cast<uint64_t>(index + 1))
      .Next();
}

FuzzCase Fuzzer::DeriveCase(uint64_t case_seed) const {
  Rng rng(case_seed);
  FuzzCase out;
  out.case_seed = case_seed;
  out.fragment = options_.fragment;
  if (out.fragment == FuzzFragment::kAll) {
    out.fragment = kConcreteFragments[rng.NextBelow(
        sizeof(kConcreteFragments) / sizeof(kConcreteFragments[0]))];
  }

  TreeGenOptions tree_options;
  std::vector<Symbol> tree_labels = labels_;
  const bool deep = options_.deep_tree_bias && rng.NextBool();
  if (deep) {
    tree_options.num_nodes =
        rng.NextInt(options_.max_tree_nodes, options_.max_tree_nodes * 8);
    tree_options.shape =
        rng.NextBool() ? TreeShape::kChain : TreeShape::kCaterpillar;
    // Two labels, so a guard such as [a or b] holds along whole runs and
    // a star's fixpoint takes depth-many rounds: past the round budget,
    // the reachability pass finishes it.
    if (tree_labels.size() > 2) tree_labels.resize(2);
  } else {
    tree_options.num_nodes = rng.NextInt(1, options_.max_tree_nodes);
    tree_options.shape = static_cast<TreeShape>(rng.NextBelow(7));
  }
  tree_options.arity = rng.NextInt(2, 4);
  Rng tree_rng = rng.Fork();
  out.tree = GenerateTree(tree_options, tree_labels, &tree_rng);

  const int depth = rng.NextInt(1, options_.max_query_depth);
  Rng query_rng = rng.Fork();
  const bool has_star = out.fragment == FuzzFragment::kRegular ||
                        out.fragment == FuzzFragment::kRegularW;
  if (out.fragment == FuzzFragment::kCompilable) {
    QueryGenOptions query_options;
    query_options.max_depth = depth;
    out.query = GenerateCompilableNode(query_options, labels_, &query_rng);
  } else if (deep && has_star && query_rng.NextBool()) {
    // Half the deep star-fragment cases take a star over unit steps seeded
    // at one end of the tree: the root, the leaves, or the first or last
    // siblings. Generated queries rarely walk a deep tree one node per
    // round, and these do, so their fixpoints outrun the round budget.
    const NodePtr seeds[] = {
        MakeRootTest(), MakeLeafTest(),
        MakeNot(MakeSome(MakeAxis(Axis::kPrevSibling))),
        MakeNot(MakeSome(MakeAxis(Axis::kNextSibling)))};
    const PathPtr body = GeneratePath(
        OptionsForFragment(ToQueryFragment(out.fragment), depth), labels_,
        &query_rng);
    out.query = MakeSome(MakeFilter(MakeStar(UnitSteps(body)),
                                    seeds[query_rng.NextBelow(4)]));
  } else {
    out.query = GenerateNode(
        OptionsForFragment(ToQueryFragment(out.fragment), depth), labels_,
        &query_rng);
  }
  return out;
}

std::optional<Finding> Fuzzer::CheckOne(const FuzzCase& fuzz_case) {
  std::optional<Disagreement> disagreement =
      candidate_ != nullptr
          ? registry_->CheckCandidate(fuzz_case.tree, fuzz_case.query,
                                      candidate_)
          : registry_->Check(fuzz_case.tree, fuzz_case.query);
  if (!disagreement.has_value()) return std::nullopt;

  Finding finding;
  finding.case_seed = fuzz_case.case_seed;
  finding.reference = disagreement->reference;
  finding.other = disagreement->other;
  finding.description = disagreement->Describe();
  finding.original = CorpusCase{fuzz_case.case_seed,
                                CompactXml(fuzz_case.tree, *alphabet_),
                                NodeToString(*fuzz_case.query, *alphabet_)};

  Oracle* reference = registry_->Find(disagreement->reference);
  Oracle* other = registry_->Find(disagreement->other);
  XPTC_CHECK(reference != nullptr && other != nullptr);
  const FailurePredicate still_fails = [this, reference, other](
                                           const Tree& t, const NodePtr& q) {
    return registry_->PairDisagrees(reference, other, t, q);
  };
  const ShrunkCase shrunk = ShrinkCounterexample(
      fuzz_case.tree, fuzz_case.query, still_fails, labels_[0]);
  finding.shrink = shrunk.stats;
  finding.shrunk = CorpusCase{fuzz_case.case_seed,
                              CompactXml(shrunk.tree, *alphabet_),
                              NodeToString(*shrunk.query, *alphabet_)};

  if (!options_.corpus_dir.empty()) {
    const std::string path = options_.corpus_dir + "/finding-" +
                             std::to_string(fuzz_case.case_seed) + ".case";
    const std::string comment =
        "disagreement: " + finding.reference + " vs " + finding.other + "\n" +
        finding.description + "\nfragment: " +
        FuzzFragmentToString(fuzz_case.fragment) +
        ", shrunk from " + std::to_string(finding.shrink.tree_nodes_before) +
        "/" + std::to_string(finding.shrink.query_size_before) +
        " to " + std::to_string(finding.shrink.tree_nodes_after) + "/" +
        std::to_string(finding.shrink.query_size_after) +
        " (tree nodes/query size) in " +
        std::to_string(finding.shrink.steps) + " steps\noriginal: " +
        FormatCaseLine(finding.original);
    // Best effort: an unwritable corpus dir must not kill the campaign.
    const Status write_status = WriteCaseFile(path, finding.shrunk, comment);
    (void)write_status;
  }
  return finding;
}

CampaignResult Fuzzer::Run() {
  // Campaign-loop counters live in the process-wide registry, so a long
  // campaign is scrapeable mid-flight (Prometheus export) instead of only
  // reporting totals at exit.
  obs::Registry& reg = obs::Registry::Default();
  obs::Counter& cases_counter = reg.counter("fuzz.cases");
  obs::Counter& findings_counter = reg.counter("fuzz.findings");
  CampaignResult result;
  const double start = Now();
  for (int64_t i = 0;; ++i) {
    if (options_.max_cases > 0 && i >= options_.max_cases) break;
    if (options_.max_seconds > 0 && Now() - start >= options_.max_seconds) {
      break;
    }
    const FuzzCase fuzz_case = DeriveCase(CaseSeedAt(options_.seed, i));
    ++result.cases;
    cases_counter.Inc();
    std::optional<Finding> finding = CheckOne(fuzz_case);
    if (finding.has_value()) {
      findings_counter.Inc();
      result.findings.push_back(std::move(*finding));
      if (static_cast<int>(result.findings.size()) >= options_.max_findings) {
        break;
      }
    }
  }
  result.seconds = Now() - start;
  return result;
}

Result<std::optional<Disagreement>> ReplayCase(OracleRegistry* registry,
                                               Alphabet* alphabet,
                                               const CorpusCase& c) {
  XPTC_ASSIGN_OR_RETURN(Tree tree, CaseTree(c, alphabet));
  XPTC_ASSIGN_OR_RETURN(NodePtr query, ParseNode(c.query, alphabet));
  return registry->Check(tree, query);
}

std::vector<SelfCheckReport> RunSelfCheck(Alphabet* alphabet, uint64_t seed,
                                          int64_t max_cases) {
  std::vector<SelfCheckReport> reports;
  for (Mutation mutation :
       {Mutation::kAndAsOr, Mutation::kStarAsPlus, Mutation::kDropWithin}) {
    // Cheap real oracles + the mutant; the naive reference is first, so
    // every disagreement pits the mutant against it.
    DefaultRegistryOptions registry_options;
    registry_options.include_heavy = false;
    registry_options.include_batch = false;
    std::unique_ptr<OracleRegistry> registry =
        MakeDefaultRegistry(alphabet, registry_options);
    registry->Register(MakeMutantOracle(mutation));

    FuzzOptions options;
    options.seed = seed + static_cast<uint64_t>(mutation);
    options.max_cases = max_cases;
    options.max_findings = 1;
    options.max_tree_nodes = 16;
    switch (mutation) {
      case Mutation::kAndAsOr:
        options.fragment = FuzzFragment::kCore;  // ∧ is frequent everywhere
        break;
      case Mutation::kStarAsPlus:
        options.fragment = FuzzFragment::kRegular;  // star forced to appear
        break;
      case Mutation::kDropWithin:
        options.fragment = FuzzFragment::kRegularW;  // W forced to appear
        break;
    }

    Fuzzer fuzzer(registry.get(), alphabet, options);
    CampaignResult campaign = fuzzer.Run();

    SelfCheckReport report;
    report.mutation = mutation;
    report.cases = campaign.cases;
    if (!campaign.findings.empty()) {
      report.found = true;
      report.finding = std::move(campaign.findings.front());
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace testing
}  // namespace xptc
