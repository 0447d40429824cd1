// Per-layer probes of the traced run. Each times single public calls into
// one module, outside the workload loop, on the workload's own inputs.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/simd.h"
#include "exec/engine.h"
#include "exec/program.h"
#include "exec/superopt.h"
#include "perfbench.h"
#include "server/protocol.h"
#include "server/service.h"
#include "tree/xml.h"
#include "workload/batch.h"
#include "workload/plan_cache.h"
#include "workload/tree_cache.h"
#include "xpath/axis_kernels.h"
#include "xpath/engine.h"
#include "xpath/fragment.h"

namespace xptc {
namespace perfbench {
namespace {

// Median wall time of `reps` calls of `fn`, in nanoseconds.
template <typename Fn>
double MedianNs(int reps, Fn&& fn) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Quantile(ns, 0.5);
}

}  // namespace

const char* const kFamilies[4] = {"core", "star", "filtered_star", "downward"};

int FamilyIndex(const char* family) {
  for (int i = 0; i < 4; ++i) {
    if (std::string(family) == kFamilies[i]) return i;
  }
  return -1;
}

const char* ExecFamily(const Query& query, const std::string& text) {
  const NodeExpr& expr = *query.expr();
  if (UsesWithin(expr)) return nullptr;
  if (IsCoreXPath(expr)) return IsDownwardNode(expr) ? "downward" : "core";
  // Each "(body)*": a bare axis is a body of letters only.
  for (size_t close = text.find(")*"); close != std::string::npos;
       close = text.find(")*", close + 1)) {
    int depth = 0;
    size_t open = close;
    while (open > 0) {
      --open;
      if (text[open] == ')') ++depth;
      if (text[open] == '(' && depth-- == 0) break;
    }
    for (size_t i = open + 1; i < close; ++i) {
      if (!std::isalpha(static_cast<unsigned char>(text[i]))) {
        return "filtered_star";
      }
    }
  }
  return "star";
}

void ProbeSetup(const std::vector<std::string>& xmls, Result* result) {
  double parse_ns = 0, nodes = 0, cache_ns = 0, calibrate_ns = 0;
  Alphabet alphabet;
  for (const std::string& xml : xmls) {
    const int64_t t0 = NowNs();
    auto tree = std::make_shared<const Tree>(ParseXml(xml, &alphabet).ValueOrDie());
    const int64_t t1 = NowNs();
    TreeCache cache(tree);
    const int64_t t2 = NowNs();
    axis::CalibrateCrossover(*tree);
    const int64_t t3 = NowNs();
    parse_ns += static_cast<double>(t1 - t0);
    cache_ns += static_cast<double>(t2 - t1);
    calibrate_ns += static_cast<double>(t3 - t2);
    nodes += tree->size();
  }
  result->Metric("tree.xml_parse_ns_per_node", parse_ns / nodes, "ns");
  result->Metric("tree_cache.build_ms", cache_ns / 1e6, "ms");
  result->Metric("axis.calibrate_ms", calibrate_ns / 1e6, "ms");
}

void ProbePlan(const std::vector<std::string>& texts, Alphabet* alphabet,
               Result* result) {
  std::vector<double> parse_us, lower_us, superopt_us, instrs;
  for (const std::string& text : texts) {
    std::unique_ptr<Query> query;
    parse_us.push_back(MedianNs(5, [&] {
      query = std::make_unique<Query>(Query::Parse(text, alphabet).ValueOrDie());
    }) / 1e3);
    std::shared_ptr<const exec::Program> program;
    lower_us.push_back(MedianNs(5, [&] {
      program = exec::Program::Compile(query->plan());
    }) / 1e3);
    std::shared_ptr<const exec::Program> optimized;
    superopt_us.push_back(MedianNs(5, [&] {
      optimized = exec::Superoptimize(program);
    }) / 1e3);
    instrs.push_back(static_cast<double>(optimized->code().size()));
  }
  result->Metric("plan.parse_us", Mean(parse_us), "us");
  result->Metric("plan.lower_us", Mean(lower_us), "us");
  result->Metric("plan.superopt_us", Mean(superopt_us), "us");
  result->Metric("plan.instrs", Mean(instrs), "count");
}

void ProbeAxes(const std::vector<std::shared_ptr<const Tree>>& trees,
               Alphabet* alphabet, Result* result) {
  struct Probe {
    const char* name;
    Axis axis;
  };
  const Probe probes[] = {
      {"child", Axis::kChild},
      {"parent", Axis::kParent},
      {"descendant", Axis::kDescendant},
      {"ancestor", Axis::kAncestor},
      {"following_sibling", Axis::kFollowingSibling},
      {"preceding_sibling", Axis::kPrecedingSibling},
  };
  const Symbol label = alphabet->Intern("a");
  for (const Probe& probe : probes) {
    double ns = 0, nodes = 0;
    for (const auto& tree : trees) {
      const int n = tree->size();
      Bitset sources(n);
      for (NodeId v = 0; v < n; ++v) {
        if (tree->Label(v) == label) sources.Set(v);
      }
      Bitset out(n);
      ns += MedianNs(5, [&] {
        out.ResetAll();
        AxisImageInto(*tree, probe.axis, sources, 0, n, &out);
      });
      nodes += n;
    }
    result->Metric(std::string("axis.") + probe.name + ".ns_per_node",
                   ns / nodes, "ns");
  }
}

void ProbeSimd(int n, Result* result) {
  const simd::Kernels& k = simd::Active();
  const size_t words = std::max<size_t>(1, static_cast<size_t>(n) / 64);
  std::vector<uint64_t> a(words), b(words);
  for (size_t i = 0; i < words; ++i) {
    a[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
    b[i] = 0xbf58476d1ce4e5b9ULL * (i + 3);
  }
  // Enough calls per sample that a sample lasts well over a microsecond.
  const int inner = static_cast<int>(std::max<size_t>(1, 65536 / words));
  volatile int64_t sink = 0;
  const auto time = [&](const char* name, auto&& fn) {
    const double ns = MedianNs(7, [&] {
      for (int i = 0; i < inner; ++i) fn();
    });
    result->Metric(std::string("simd.") + name + ".ns_per_kword",
                   ns / inner / static_cast<double>(words) * 1000, "ns");
  };
  time("or", [&] { k.or_words(a.data(), b.data(), words); });
  time("and", [&] { k.and_words(a.data(), b.data(), words); });
  time("andnot", [&] { k.andnot_words(a.data(), b.data(), words); });
  time("not", [&] { k.not_words(a.data(), b.data(), words); });
  time("copy", [&] { k.copy_words(a.data(), b.data(), words); });
  time("count", [&] { sink = sink + k.popcount_words(a.data(), words); });
}

void ProbeProtocol(const std::string& text, int tree_nodes, Result* result) {
  const std::string request = server::EncodeFrame(
      server::FrameType::kQuery,
      server::EncodeQueryPayload(1, server::kDialectXPath,
                                 server::EvalMode::kNodeSet, 0, {0}, text));
  const double decode_ns = MedianNs(101, [&] {
    server::Frame frame;
    size_t consumed = 0;
    std::string error;
    server::DecodeFrame(request.data(), request.size(), 1 << 20, &frame,
                        &consumed, &error);
    auto req = server::TranslateFrame(frame);
    if (!req.ok()) std::abort();
  });
  server::ServiceResponse resp;
  resp.request_id = 1;
  server::TreeResult tr;
  tr.bits = Bitset(tree_nodes);
  for (int v = 0; v < tree_nodes; v += 3) tr.bits.Set(v);
  tr.count = tree_nodes;
  resp.results.push_back(std::move(tr));
  const double encode_ns = MedianNs(21, [&] {
    const std::string bytes = server::EncodeResponseFrame(resp);
    if (bytes.empty()) std::abort();
  });
  result->Metric("protocol.decode_us", decode_ns / 1e3, "us");
  result->Metric("protocol.encode_us", encode_ns / 1e3, "us");
}

void ProbeShape(uint64_t seed, Result* result) {
  // T2 (Gottlob–Koch–Pichler): Core XPath and the downward fragment
  // evaluate in time linear in |T|, so ns/node should not grow with n.
  const char* core[] = {"<child[a]>", "<desc[b]>", "<anc[a]> and not <child[b]>",
                        "<foll[b]> or <child[c]>", "<child[a]/desc[b]/anc[c]>"};
  const char* downward[] = {"<child[a and <child[b]>]>",
                            "<desc[a and not <child[c]>]>",
                            "<child/child[b]> or <desc[c and leaf]>"};
  const auto ns_per_node = [&](int n, const char* const* texts, int count) {
    Alphabet alphabet;
    auto tree = std::make_shared<const Tree>(
        MakeTree(&alphabet, n, TreeShape::kUniformRecursive, seed + 7));
    TreeCache cache(tree);
    exec::ExecEngine engine(*tree, &cache);
    PlanCache plans;
    double total = 0;
    for (int i = 0; i < count; ++i) {
      auto cq = plans.ParseCompiled(texts[i], &alphabet).ValueOrDie();
      engine.Eval(*cq.program);  // warm label sets and registers
      total += MedianNs(5, [&] { engine.Eval(*cq.program); }) / n;
    }
    plans.Purge(&alphabet);
    return total / count;
  };
  constexpr int kBig = 1 << 20, kSmall = 1 << 16;
  result->Metric("exec.shape_ratio.core",
                 ns_per_node(kBig, core, 5) / ns_per_node(kSmall, core, 5),
                 "ratio");
  result->Metric("exec.shape_ratio.downward",
                 ns_per_node(kBig, downward, 3) / ns_per_node(kSmall, downward, 3),
                 "ratio");
}

void ProbeBatch(const std::vector<std::shared_ptr<const Tree>>& trees,
                const std::vector<std::string>& texts, Alphabet* alphabet,
                Result* result) {
  constexpr int kWorkers = 2;
  BatchOptions options;
  options.num_workers = kWorkers;
  BatchEngine batch(options);
  std::vector<int> ids;
  for (const auto& tree : trees) ids.push_back(batch.AddTree(tree));
  PlanCache plans;
  std::vector<std::shared_ptr<const exec::Program>> programs;
  for (const std::string& text : texts) {
    programs.push_back(plans.ParseCompiled(text, alphabet).ValueOrDie().program);
  }
  batch.RunCompiledOnTrees(programs, ids, 0, nullptr);  // warm memos
  const double wall_ns = MedianNs(3, [&] {
    batch.RunCompiledOnTrees(programs, ids, 0, nullptr);
  });
  // Σ single-task time: the same cells run one at a time on one engine
  // per tree, sharing the batch's warm tree caches.
  double single_ns = 0;
  for (size_t t = 0; t < trees.size(); ++t) {
    exec::ExecEngine engine(*trees[t], batch.tree_cache(ids[t]).get());
    for (const auto& program : programs) {
      engine.Eval(*program);
      single_ns += MedianNs(3, [&] { engine.Eval(*program); });
    }
  }
  plans.Purge(alphabet);
  result->Metric("batch.fanout_us", wall_ns / 1e3, "us");
  result->Metric("batch.efficiency", single_ns / (wall_ns * kWorkers), "ratio");
}

double ProbeService(const std::vector<std::string>& xmls,
                    const std::vector<ServiceCall>& calls, Result* result) {
  server::ServiceOptions options;
  options.num_workers = 1;
  server::QueryService service(options);
  for (const std::string& xml : xmls) service.AddTreeXml(xml).ValueOrDie();
  const auto handle = [&](const ServiceCall& call) {
    server::ServiceRequest req;
    req.queries = {call.text};
    req.tree_ids = call.tree_ids;
    const int64_t t0 = NowNs();
    server::ServiceResponse resp = service.Handle(req, 0, 0);
    const int64_t t1 = NowNs();
    if (resp.code != server::RespCode::kOk) {
      std::fprintf(stderr, "FATAL: in-process Handle failed: %s\n",
                   resp.payload.c_str());
      std::exit(1);
    }
    return static_cast<double>(t1 - t0) / 1e3;
  };
  std::vector<double> us;
  for (const ServiceCall& call : calls) handle(call);
  for (int round = 0; round < 2; ++round) {
    for (const ServiceCall& call : calls) us.push_back(handle(call));
  }
  const double p50 = Quantile(us, 0.5);
  result->Metric("service.handle_p50_us", p50, "us");
  result->Metric("service.handle_p90_us", Quantile(us, 0.9), "us");
  return p50;
}

void ProbeReplay(const std::vector<std::shared_ptr<const Tree>>& trees,
                 const std::vector<ServiceCall>& calls, Alphabet* alphabet,
                 bool report_exec, Result* result) {
  // Fresh caches, so every W body is evaluated against an empty memo once.
  std::vector<std::unique_ptr<TreeCache>> caches;
  std::vector<std::unique_ptr<exec::ExecEngine>> engines;
  for (const auto& tree : trees) {
    caches.push_back(std::make_unique<TreeCache>(tree));
    engines.push_back(std::make_unique<exec::ExecEngine>(*tree, caches.back().get()));
  }
  PlanCache plans;
  std::vector<double> cold_ms, eval_us, per_node[4];
  int64_t evals = 0, fallbacks = 0, rounds = 0, instrs = 0;
  for (const ServiceCall& call : calls) {
    auto cq = plans.ParseCompiled(call.text, alphabet).ValueOrDie();
    const bool within = UsesWithin(*cq.query->plan());
    const char* family = ExecFamily(*cq.query, call.text);
    std::vector<int> ids = call.tree_ids;
    if (ids.empty()) {
      for (size_t t = 0; t < trees.size(); ++t) ids.push_back(static_cast<int>(t));
    }
    for (int t : ids) {
      exec::ExecEngine& engine = *engines[static_cast<size_t>(t)];
      const int64_t t0 = NowNs();
      engine.Eval(*cq.program);
      const double ns = static_cast<double>(NowNs() - t0);
      if (within) cold_ms.push_back(ns / 1e6);
      eval_us.push_back(ns / 1e3);
      if (family != nullptr) {
        per_node[FamilyIndex(family)].push_back(
            ns / trees[static_cast<size_t>(t)]->size());
      }
      const auto& run = engine.last_run();
      ++evals;
      fallbacks += run.dispatch ==
                   exec::ExecEngine::RunInfo::Dispatch::kDownwardFallback;
      rounds += run.star_rounds_used;
      instrs += run.instrs_executed;
    }
  }
  size_t within_entries = 0;
  for (const auto& cache : caches) within_entries += cache->within_entries();
  engines.clear();
  plans.Purge(alphabet);
  result->Metric("exec.within_cold_ms", Mean(cold_ms), "ms");
  result->Metric("tree_cache.within_entries",
                 static_cast<double>(within_entries), "count");
  if (!report_exec) return;
  result->Metric("exec.eval_p50_us", Quantile(eval_us, 0.5), "us");
  result->Metric("exec.eval_p90_us", Quantile(eval_us, 0.9), "us");
  for (int f = 0; f < 4; ++f) {
    result->Metric(std::string("exec.ns_per_node.") + kFamilies[f],
                   Mean(per_node[f]), "ns");
  }
  const double n = static_cast<double>(std::max<int64_t>(evals, 1));
  result->Metric("exec.fallback_frac", fallbacks / n, "ratio");
  result->Metric("exec.star_rounds", rounds / n, "count");
  result->Metric("exec.instrs_executed", instrs / n, "count");
}

}  // namespace perfbench
}  // namespace xptc
