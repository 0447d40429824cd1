#include "exec/engine.h"

#include <chrono>
#include <limits>
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

// Star-round budget for the hybrid dispatch: one register-machine star
// round costs a few full-bitset word ops (O(n/64) each), one node of the
// one-pass sweep costs ~bit_ops dependent dispatches — so past roughly
// 8 rounds per bit op the sweep wins even counting the abandoned prefix.
// Shallow trees and dense star seeds converge in far fewer rounds and
// never hit the budget; only the adversarial deep-tree/sparse-seed regime
// (where the register machine would go quadratic) falls back.
int64_t StarRoundBudget(const Program& program) {
  return 32 + 8 * static_cast<int64_t>(program.stats().bit_ops);
}

// Process-wide execution counters, fetched once (registry lookups lock;
// the hot path pays relaxed atomic adds, flushed once per Eval).
struct ExecMetrics {
  obs::Counter& evals;
  obs::Counter& instrs;
  obs::Counter& star_rounds;
  obs::Counter& disp_register;
  obs::Counter& disp_fallback;
  obs::Counter& disp_downward;
  obs::Counter& disp_general;
  obs::Counter& deadline_expired;
  static ExecMetrics& Get() {
    obs::Registry& reg = obs::Registry::Default();
    static ExecMetrics* m = new ExecMetrics{
        reg.counter("exec.evals"),
        reg.counter("exec.instrs_executed"),
        reg.counter("exec.star_rounds"),
        reg.counter("exec.dispatch.register_machine"),
        reg.counter("exec.dispatch.downward_fallback"),
        reg.counter("exec.dispatch.downward_direct"),
        reg.counter("exec.dispatch.general"),
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
    case RunInfo::Dispatch::kDownwardFallback: return "downward_fallback";
    case RunInfo::Dispatch::kDownwardDirect: return "downward_direct";
    case RunInfo::Dispatch::kGeneral: return "general";
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

void ExecEngine::BeginRun(const Program& program, RunInfo::Dispatch dispatch,
                          int64_t budget) {
  last_run_.dispatch = dispatch;
  last_run_.star_rounds_used = 0;
  last_run_.star_round_budget = budget;
  last_run_.instrs_executed = 0;
  last_run_.deadline_expired = false;
  // assign() reuses capacity, so steady-state evals stay allocation-free
  // once the vector has grown to the largest program seen.
  last_run_.instr_execs.assign(program.code().size(), 0);
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
    case RunInfo::Dispatch::kDownwardDirect:
      metrics.disp_downward.Inc();
      break;
    case RunInfo::Dispatch::kGeneral:
      metrics.disp_general.Inc();
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
    cur->notes.push_back(
        "star-round budget blown at " +
        std::to_string(last_run_.star_round_budget) +
        " rounds; abandoned register machine, re-ran one-pass sweep");
  }
  cur->SetAttr("star_rounds_used", last_run_.star_rounds_used);
  cur->SetAttr("star_round_budget", last_run_.star_round_budget);
  cur->SetAttr("instrs_executed", last_run_.instrs_executed);
  if (result != nullptr) cur->SetAttr("result_count", result->Count());
}

Bitset ExecEngine::Eval(const Program& program) {
  obs::TraceSpan span("exec.eval", &EvalFlame());
  ExecMetrics::Get().evals.Inc();
  last_used_downward_ = false;
  if (program.downward() == nullptr) {
    BeginRun(program, RunInfo::Dispatch::kGeneral, 0);
    if (DeadlineExpired()) return AbandonRun();
    while (static_cast<int>(regs_.size()) < program.num_regs()) {
      regs_.emplace_back(n_);
    }
    star_rounds_left_ = std::numeric_limits<int64_t>::max();
    if (!RunRange(program, 0, program.main_end())) return AbandonRun();
    Bitset& result = regs_[static_cast<size_t>(program.result_reg())];
    FinishRun(&result);
    return result;
  }
  while (static_cast<int>(regs_.size()) < program.num_regs()) {
    regs_.emplace_back(n_);
  }
  const int64_t budget = StarRoundBudget(program);
  BeginRun(program, RunInfo::Dispatch::kRegisterMachine, budget);
  if (DeadlineExpired()) return AbandonRun();
  star_rounds_left_ = budget;
  if (RunRange(program, 0, program.main_end())) {
    Bitset& result = regs_[static_cast<size_t>(program.result_reg())];
    FinishRun(&result);
    return result;
  }
  // The deadline probe fired mid-run: the request is already late, so the
  // fallback sweep would only add more late work. Abandon instead.
  if (last_run_.deadline_expired) return AbandonRun();
  // Budget blown: abandon the register machine (its partial instruction
  // counts stay in last_run_ — the EXPLAIN dump shows the abandoned
  // prefix) and re-run as the unconditionally-linear sweep.
  last_run_.dispatch = RunInfo::Dispatch::kDownwardFallback;
  last_used_downward_ = true;
  Bitset result = program.downward()->Run(tree_, &agg_);
  FinishRun(&result);
  return result;
}

Bitset ExecEngine::AbandonRun() {
  last_run_.deadline_expired = true;
  FinishRun(nullptr);
  return Bitset(n_);
}

Bitset ExecEngine::EvalDownward(const Program& program) {
  XPTC_CHECK(program.downward() != nullptr)
      << "program has no downward compilation";
  obs::TraceSpan span("exec.eval", &EvalFlame());
  ExecMetrics::Get().evals.Inc();
  BeginRun(program, RunInfo::Dispatch::kDownwardDirect, 0);
  last_run_.instr_execs.clear();
  last_used_downward_ = true;
  if (DeadlineExpired()) return AbandonRun();
  Bitset result = program.downward()->Run(tree_, &agg_);
  FinishRun(&result);
  return result;
}

Bitset ExecEngine::EvalGeneral(const Program& program) {
  obs::TraceSpan span("exec.eval", &EvalFlame());
  ExecMetrics::Get().evals.Inc();
  BeginRun(program, RunInfo::Dispatch::kGeneral, 0);
  last_used_downward_ = false;
  if (DeadlineExpired()) return AbandonRun();
  while (static_cast<int>(regs_.size()) < program.num_regs()) {
    regs_.emplace_back(n_);
  }
  star_rounds_left_ = std::numeric_limits<int64_t>::max();
  if (!RunRange(program, 0, program.main_end())) return AbandonRun();
  Bitset& result = regs_[static_cast<size_t>(program.result_reg())];
  FinishRun(&result);
  return result;
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
    ++last_run_.instr_execs[static_cast<size_t>(i)];
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
      case Op::kStar: {
        // Semi-naive closure: dst accumulates everything reached, the body
        // maps the newly-reached frontier (`in`) one step to `out`, and
        // only genuinely new nodes re-enter the loop. The allocator keeps
        // dst/in/out in distinct registers and anything read inside the
        // body live across the whole loop.
        const Bitset& seed = regs_[static_cast<size_t>(ins.a)];
        Bitset& frontier = regs_[static_cast<size_t>(ins.in)];
        Bitset& step = regs_[static_cast<size_t>(ins.out)];
        dst.CopyRange(seed, 0, n_);
        frontier.CopyRange(seed, 0, n_);
        while (frontier.Any()) {
          ++last_run_.star_rounds_used;
          if (--star_rounds_left_ < 0) return false;
          // Deadline probe (see SetDeadline): star rounds are the only
          // statically unbounded work in a run, so one clock read per
          // round bounds enforcement lag to a single round's work.
          if (DeadlineExpired()) {
            last_run_.deadline_expired = true;
            return false;
          }
          if (!RunRange(program, ins.body_begin, ins.body_end)) return false;
          // Fixpoint probe: the final round always produces no new nodes,
          // and this early-exit subset check detects that in one pass
          // (stopping at the first new word) instead of the full
          // subtract / or / copy / any sequence below.
          if (step.IsSubsetOf(dst)) break;
          step.Subtract(dst);
          dst |= step;
          frontier.CopyRange(step, 0, n_);
        }
        break;
      }
      case Op::kWithin: {
        // W delegation runs a whole memoised interpreter pass; probe once
        // before paying for it.
        if (DeadlineExpired()) {
          last_run_.deadline_expired = true;
          return false;
        }
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

}  // namespace exec
}  // namespace xptc
