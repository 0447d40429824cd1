#include "exec/engine.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "workload/tree_cache.h"
#include "xpath/ast.h"
#include "xpath/axis_kernels.h"

namespace xptc {
namespace exec {

ExecEngine::ExecEngine(const Tree& tree, TreeCache* tree_cache)
    : tree_(tree), tree_cache_(tree_cache), n_(tree.size()) {
  XPTC_CHECK(!tree.empty());
  XPTC_CHECK(tree_cache == nullptr || &tree_cache->tree() == &tree)
      << "TreeCache bound to a different tree";
  if (tree_cache != nullptr) calibration_ = tree_cache->calibration();
}

ExecEngine::~ExecEngine() = default;

namespace {

// Worklist pops of the reachability pass between two deadline probes:
// a few tens of microseconds of work, against one clock read.
constexpr int kDeadlineProbePops = 4096;

// Process-wide execution counters, fetched once (registry lookups lock;
// the hot path pays relaxed atomic adds, flushed once per Eval).
struct ExecMetrics {
  obs::Counter& evals;
  obs::Counter& instrs;
  obs::Counter& star_rounds;
  obs::Counter& disp_register;
  obs::Counter& disp_fallback;
  obs::Counter& deadline_expired;
  static ExecMetrics& Get() {
    obs::Registry& reg = obs::Registry::Default();
    static ExecMetrics* m = new ExecMetrics{
        reg.counter("exec.evals"),
        reg.counter("exec.instrs_executed"),
        reg.counter("exec.star_rounds"),
        reg.counter("exec.dispatch.register_machine"),
        reg.counter("exec.dispatch.reachability_pass"),
        reg.counter("exec.deadline_expired")};
    return *m;
  }
};

obs::Histogram& EvalFlame() {
  static obs::Histogram* h =
      &obs::Registry::Default().histogram("exec.eval_ns");
  return *h;
}

}  // namespace

const char* ExecEngine::DispatchName(RunInfo::Dispatch dispatch) {
  switch (dispatch) {
    case RunInfo::Dispatch::kRegisterMachine: return "register_machine";
    case RunInfo::Dispatch::kDownwardFallback: return "reachability_pass";
  }
  return "unknown";
}

int64_t ExecEngine::SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ExecEngine::DeadlineExpired() const {
  if (cancel_flag_ != nullptr &&
      cancel_flag_->load(std::memory_order_relaxed)) {
    return true;
  }
  return deadline_ns_ != 0 && SteadyNowNs() >= deadline_ns_;
}

void ExecEngine::BeginRun(const Program& program) {
  last_run_.dispatch = RunInfo::Dispatch::kRegisterMachine;
  last_run_.star_rounds_used = 0;
  last_run_.instrs_executed = 0;
  last_run_.deadline_expired = false;
  // Per-instruction counts feed only EXPLAIN, so untraced runs skip them.
  // assign() reuses capacity, so traced evals stay allocation-free once
  // the vector has grown to the largest program seen.
  if (obs::QueryTrace::Current() != nullptr) {
    last_run_.instr_execs.assign(program.code().size(), 0);
  } else {
    last_run_.instr_execs.clear();
  }
}

void ExecEngine::FinishRun(const Bitset* result) {
  ExecMetrics& metrics = ExecMetrics::Get();
  metrics.instrs.Add(last_run_.instrs_executed);
  metrics.star_rounds.Add(last_run_.star_rounds_used);
  if (last_run_.deadline_expired) {
    metrics.deadline_expired.Inc();
    // Flight-recorder post-mortem breadcrumb: which request blew its
    // deadline mid-execution, and how far it got. Attribution comes from
    // the thread's ScopedRequestId (set by the server worker / batch task).
    obs::Journal::Record(obs::JournalCode::kDeadlineExec,
                         static_cast<uint64_t>(last_run_.star_rounds_used));
  }
  switch (last_run_.dispatch) {
    case RunInfo::Dispatch::kRegisterMachine:
      metrics.disp_register.Inc();
      break;
    case RunInfo::Dispatch::kDownwardFallback:
      metrics.disp_fallback.Inc();
      break;
  }
  obs::TraceNode* cur = obs::QueryTrace::Current();
  if (cur == nullptr) return;
  cur->notes.push_back(std::string("dispatch: ") +
                       DispatchName(last_run_.dispatch));
  if (last_run_.deadline_expired) {
    cur->notes.push_back("deadline expired after " +
                         std::to_string(last_run_.star_rounds_used) +
                         " star rounds; run abandoned");
  }
  if (last_run_.dispatch == RunInfo::Dispatch::kDownwardFallback) {
    cur->notes.push_back("a star reached its budget of " +
                         std::to_string(kStarRoundBudget) +
                         " rounds; the reachability pass finished it");
  }
  cur->SetAttr("star_rounds_used", last_run_.star_rounds_used);
  cur->SetAttr("star_round_budget", kStarRoundBudget);
  cur->SetAttr("instrs_executed", last_run_.instrs_executed);
  if (result != nullptr) cur->SetAttr("result_count", result->Count());
}

Bitset ExecEngine::Eval(const Program& program) {
  obs::TraceSpan span("exec.eval", &EvalFlame());
  ExecMetrics::Get().evals.Inc();
  BeginRun(program);
  if (DeadlineExpired()) return AbandonRun();
  while (static_cast<int>(regs_.size()) < program.num_regs()) {
    regs_.emplace_back(n_);
  }
  if (!RunRange(program, 0, program.main_end())) return AbandonRun();
  Bitset& result = regs_[static_cast<size_t>(program.result_reg())];
  FinishRun(&result);
  return result;
}

Bitset ExecEngine::AbandonRun() {
  last_run_.deadline_expired = true;
  FinishRun(nullptr);
  return Bitset(n_);
}

const Bitset& ExecEngine::LabelSet(Symbol label) {
  auto it = label_refs_.find(label);
  if (it != label_refs_.end()) return *it->second;
  const Bitset* set;
  if (tree_cache_ != nullptr) {
    set = &tree_cache_->LabelSet(label);
  } else {
    Bitset local(n_);
    for (NodeId v = 0; v < n_; ++v) {
      if (tree_.Label(v) == label) local.Set(v);
    }
    set = &local_labels_.emplace(label, std::move(local)).first->second;
  }
  label_refs_.emplace(label, set);
  return *set;
}

bool ExecEngine::RunRange(const Program& program, int begin, int end) {
  const std::vector<Instr>& code = program.code();
  for (int i = begin; i < end; ++i) {
    const Instr& ins = code[static_cast<size_t>(i)];
    ++last_run_.instrs_executed;
    if (!last_run_.instr_execs.empty()) {
      ++last_run_.instr_execs[static_cast<size_t>(i)];
    }
    Bitset& dst = regs_[static_cast<size_t>(ins.dst)];
    switch (ins.op) {
      case Op::kTrue:
        dst.SetAll();
        break;
      case Op::kHasChild:
        simd::Active().copy_words(dst.mutable_words(), tree_.HasChildWords(),
                                  dst.word_count());
        break;
      case Op::kLabel:
        dst.CopyRange(LabelSet(ins.label), 0, n_);
        break;
      case Op::kNot:
        dst.NotRange(regs_[static_cast<size_t>(ins.a)], 0, n_);
        break;
      case Op::kAnd:
        dst.CopyRange(regs_[static_cast<size_t>(ins.a)], 0, n_);
        dst &= regs_[static_cast<size_t>(ins.b)];
        break;
      case Op::kOr:
        dst.CopyRange(regs_[static_cast<size_t>(ins.a)], 0, n_);
        dst |= regs_[static_cast<size_t>(ins.b)];
        break;
      case Op::kAndNot:
        dst.AndNotRange(regs_[static_cast<size_t>(ins.a)],
                        regs_[static_cast<size_t>(ins.b)], 0, n_);
        break;
      case Op::kOrNot:
        dst.OrNotRange(regs_[static_cast<size_t>(ins.a)],
                       regs_[static_cast<size_t>(ins.b)], 0, n_);
        break;
      case Op::kAxis:
        dst.ResetAll();  // the kernels require a clear output window
        AxisImageInto(tree_, ins.axis, regs_[static_cast<size_t>(ins.a)], 0,
                      n_, &dst, calibration_);
        // Per-axis-kernel node touches: the size of the produced image,
        // keyed by axis. Only counted (and only paid — CountRange is
        // O(n/64)) when a trace is active on this thread.
        if (obs::TraceNode* cur = obs::QueryTrace::Current()) {
          cur->AddAttr(std::string("axis.") + AxisToString(ins.axis) +
                           ".touches",
                       dst.CountRange(0, n_));
        }
        break;
      case Op::kDescFill:
      case Op::kAncMark:
      case Op::kSibChain: {
        // Collapsed star: dst := seed ∪ closure-image(seed), one streamed
        // kernel pass instead of an O(depth)-round fixpoint loop.
        const Bitset& seed = regs_[static_cast<size_t>(ins.a)];
        dst.ResetAll();
        AxisImageInto(tree_, ins.axis, seed, 0, n_, &dst, calibration_);
        dst.OrRange(seed, 0, n_);
        if (obs::TraceNode* cur = obs::QueryTrace::Current()) {
          cur->AddAttr(std::string("axis.") + AxisToString(ins.axis) +
                           ".touches",
                       dst.CountRange(0, n_));
        }
        break;
      }
      case Op::kStar:
        if (!RunStar(program, ins)) return false;
        break;
      case Op::kWithin: {
        // W delegation runs a whole memoised interpreter pass; probe once
        // before paying for it.
        if (DeadlineExpired()) return false;
        if (w_scratch_ == nullptr) {
          w_scratch_ = std::make_unique<EvalScratch>(tree_, tree_cache_);
        }
        Evaluator ev(tree_, w_scratch_.get());
        dst = ev.EvalNode(*ins.within);
        break;
      }
    }
  }
  return true;
}

bool ExecEngine::RunStar(const Program& program, const Instr& ins) {
  // Semi-naive closure: dst accumulates everything reached, the body maps
  // the newly-reached frontier (`in`) one step to `out`, and only
  // genuinely new nodes re-enter the loop. The allocator keeps dst/in/out
  // in distinct registers and anything read inside the body (or by the
  // body's NFA) live across the whole loop.
  Bitset& dst = regs_[static_cast<size_t>(ins.dst)];
  Bitset& frontier = regs_[static_cast<size_t>(ins.in)];
  Bitset& step = regs_[static_cast<size_t>(ins.out)];
  dst.CopyRange(regs_[static_cast<size_t>(ins.a)], 0, n_);
  frontier.CopyRange(dst, 0, n_);
  for (int64_t round = 0; frontier.Any(); ++round) {
    // Past the budget, each further round is O(n/64) words that may add
    // one node; the reachability pass finishes in O(|body| · n) instead.
    if (round == kStarRoundBudget) return FinishStar(program, ins);
    ++last_run_.star_rounds_used;
    // Deadline probe (see SetDeadline): one clock read per round bounds
    // enforcement lag to a single round's work.
    if (DeadlineExpired()) return false;
    if (!RunRange(program, ins.body_begin, ins.body_end)) return false;
    // Fixpoint probe: the final round always produces no new nodes, and
    // this early-exit subset check detects that in one pass (stopping at
    // the first new word) instead of the subtract / or / copy below.
    if (step.IsSubsetOf(dst)) break;
    step.Subtract(dst);
    dst |= step;
    frontier.CopyRange(step, 0, n_);
  }
  return true;
}

bool ExecEngine::FinishStar(const Program& program, const Instr& ins) {
  last_run_.dispatch = RunInfo::Dispatch::kDownwardFallback;
  const StarNfa& nfa = program.star_nfas()[static_cast<size_t>(ins.nfa)];
  // visited[q] holds the nodes seen at state q. State 0 is the loop state,
  // whose nodes are exactly the closure, so its set is dst itself: every
  // node of dst outside the frontier was expanded by an earlier round,
  // and the frontier is pushed to expand now.
  Bitset& dst = regs_[static_cast<size_t>(ins.dst)];
  while (static_cast<int>(nfa_visited_.size()) < nfa.num_states() - 1) {
    nfa_visited_.emplace_back(n_);
  }
  for (int q = 1; q < nfa.num_states(); ++q) {
    nfa_visited_[static_cast<size_t>(q - 1)].ResetAll();
  }
  const auto visited = [&](int q) -> Bitset& {
    return q == 0 ? dst : nfa_visited_[static_cast<size_t>(q - 1)];
  };
  worklist_.clear();
  regs_[static_cast<size_t>(ins.in)].ForEachSetBit(
      [this](int v) { worklist_.push_back(static_cast<uint64_t>(v)); });
  const auto visit = [&](NodeId w, int q) {
    Bitset& seen = visited(q);
    if (seen.Get(w)) return;
    seen.Set(w);
    worklist_.push_back(static_cast<uint64_t>(q) << 32 |
                        static_cast<uint32_t>(w));
  };
  for (int pops = 0; !worklist_.empty(); ++pops) {
    if (pops == kDeadlineProbePops) {
      if (DeadlineExpired()) return false;
      pops = 0;
    }
    const uint64_t item = worklist_.back();
    worklist_.pop_back();
    const NodeId u = static_cast<NodeId>(item & 0xffffffffu);
    const int q = static_cast<int>(item >> 32);
    for (int e = nfa.first[static_cast<size_t>(q)];
         e < nfa.first[static_cast<size_t>(q) + 1]; ++e) {
      const StarNfa::Edge& edge = nfa.edges[static_cast<size_t>(e)];
      switch (edge.kind) {
        case StarNfa::Kind::kEpsilon:
          visit(u, edge.to);
          break;
        case StarNfa::Kind::kGuard:
          if (regs_[static_cast<size_t>(edge.reg)].Get(u) != edge.negated) {
            visit(u, edge.to);
          }
          break;
        case StarNfa::Kind::kMove: {
          NodeId w = kNoNode;
          switch (edge.axis) {
            case Axis::kChild:
              tree_.ForEachChild(u, [&](NodeId c) { visit(c, edge.to); });
              break;
            case Axis::kParent:
              w = tree_.Parent(u);
              break;
            case Axis::kNextSibling:
              w = tree_.NextSibling(u);
              break;
            default:  // kPrevSibling; VerifyProgram admits no other
              w = tree_.PrevSibling(u);
              break;
          }
          if (w != kNoNode) visit(w, edge.to);
          break;
        }
      }
    }
  }
  return true;
}

}  // namespace exec
}  // namespace xptc
