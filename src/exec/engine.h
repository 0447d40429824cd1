#ifndef XPTC_EXEC_ENGINE_H_
#define XPTC_EXEC_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "exec/program.h"
#include "tree/tree.h"
#include "xpath/axis_kernels.h"
#include "xpath/eval.h"

namespace xptc {

class TreeCache;  // workload/tree_cache.h

namespace exec {

/// Executes compiled `Program`s against one tree. Owns all per-run mutable
/// state — the physical bitset register file, the per-tree label index, the
/// reachability pass's scratch, and the interpreter scratch used to
/// delegate `W` instructions — so repeated runs (the batch-engine steady
/// state) allocate nothing: registers are overwritten in place, and the
/// file only grows when a program needs more registers than any before it.
///
/// Optionally attaches a `TreeCache`, which shares the label index and the
/// memoised `W` results across queries and worker threads. An ExecEngine is
/// NOT thread-safe: use one per (worker, tree), like `EvalScratch`.
class ExecEngine {
 public:
  /// `tree_cache`, if given, must be bound to the same `tree` object and
  /// must outlive the engine.
  explicit ExecEngine(const Tree& tree, TreeCache* tree_cache = nullptr);
  ~ExecEngine();

  ExecEngine(const ExecEngine&) = delete;
  ExecEngine& operator=(const ExecEngine&) = delete;

  /// The set of nodes satisfying the program's query, computed on the
  /// register machine: every instruction is a whole-tree word-parallel
  /// bitset op, and a star runs semi-naive rounds, each O(|body| · n/64)
  /// words. A star whose fixpoint needs more than `kStarRoundBudget`
  /// rounds — depth-many on a deep tree whose guards hold along long
  /// runs — is finished by a reachability pass over (node, body-NFA
  /// state) pairs, seeded from the rounds already run, which costs
  /// O(|body| · n) whatever the depth. So no star is quadratic in the
  /// tree's depth (DESIGN.md §10.4).
  Bitset Eval(const Program& program);

  /// Rounds one star runs on the register machine before the reachability
  /// pass finishes it. A round and a whole pass both cost O(n), so their
  /// ratio is a constant: on E12's deep adversarial stars one pass costs
  /// as much as 320 to 750 rounds at 64k and 256k nodes (DESIGN.md §10.4).
  /// The budget sits just below the smallest of those, so a star that
  /// outruns it costs at most about twice what either engine alone would
  /// have cost; the deepest star of perfbench's `lib_core_large` texts
  /// takes 26 rounds.
  static constexpr int64_t kStarRoundBudget = 256;

  /// How the last evaluation ran: whether a star was finished by the
  /// reachability pass, how many star fixpoint rounds it took, and, under
  /// a trace, how often each instruction of the program executed (star
  /// bodies re-run once per round). The EXPLAIN facility reads it.
  struct RunInfo {
    enum class Dispatch {
      kRegisterMachine,    // every star reached its fixpoint in rounds
      kDownwardFallback,   // a star finished by the reachability pass
                           // (the name predates that pass and is read by
                           // the repository benchmark)
    };
    Dispatch dispatch = Dispatch::kRegisterMachine;
    int64_t star_rounds_used = 0;
    int64_t instrs_executed = 0;
    // True iff this run was abandoned by the deadline/cancel probe (see
    // SetDeadline). The returned bitset is empty and meaningless; callers
    // that armed a deadline must check this before using the result.
    bool deadline_expired = false;
    // Execution count per instruction index; filled only while a
    // `obs::QueryTrace` is active on the calling thread, else empty.
    std::vector<int64_t> instr_execs;
  };
  static const char* DispatchName(RunInfo::Dispatch dispatch);
  const RunInfo& last_run() const { return last_run_; }

  /// Per-request deadline hook — the serving layer's admission-control
  /// contract (see src/server/). `deadline_ns` is an absolute timestamp on
  /// the `SteadyNowNs` clock; 0 disarms. The deadline is probed
  /// cooperatively at *star-round boundaries* — the only place a run's
  /// register-machine work is not statically bounded — every
  /// `kDeadlineProbePops` (4096) worklist pops of the reachability pass,
  /// once per `W` delegation, and at run entry. Enforcement granularity is
  /// therefore one star round (O(body·n/64) work), 4096 pass steps, or one
  /// straight-line pass; an expired run is abandoned, and
  /// `last_run().deadline_expired` is set (the returned bitset is empty
  /// and must be discarded). Sticky across runs until re-armed or cleared;
  /// `exec.deadline_expired` counts abandoned runs.
  void SetDeadline(int64_t deadline_ns) { deadline_ns_ = deadline_ns; }

  /// Optional external cancel flag, checked at the same probe points as
  /// the deadline (deterministic tests; reactor-driven cancellation).
  /// `flag` must outlive the engine or be cleared with nullptr.
  void SetCancelFlag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }

  /// The monotonic clock deadlines are measured against (nanoseconds).
  static int64_t SteadyNowNs();

  const Tree& tree() const { return tree_; }

 private:
  /// Executes [begin, end); returns false iff the deadline probe fired.
  bool RunRange(const Program& program, int begin, int end);
  /// Runs the star `ins` to its fixpoint: semi-naive rounds, then the
  /// reachability pass once the round budget is spent. False iff the
  /// deadline probe fired.
  bool RunStar(const Program& program, const Instr& ins);
  /// Finishes the star `ins` from its current state (`dst` reached so far,
  /// `in` the frontier not yet expanded) by a worklist over (node, NFA
  /// state) pairs. False iff the deadline probe fired.
  bool FinishStar(const Program& program, const Instr& ins);
  const Bitset& LabelSet(Symbol label);

  /// Resets `last_run_` for a fresh evaluation of `program`, then (on
  /// completion) `FinishRun` publishes the per-run totals to the registry
  /// and the active trace span, if any.
  void BeginRun(const Program& program);
  void FinishRun(const Bitset* result);
  /// Marks the current run deadline-expired, publishes it, and returns the
  /// (empty, to-be-discarded) result.
  Bitset AbandonRun();

  /// True iff the armed deadline/cancel flag has fired. Reads the clock,
  /// so callers probe it only at star-round granularity.
  bool DeadlineExpired() const;

  const Tree& tree_;
  TreeCache* tree_cache_;
  const int n_;
  // Per-tree axis-dispatch calibration, copied from the attached TreeCache
  // at construction (default constants without one) — see DESIGN.md §15.
  axis::Calibration calibration_;
  std::vector<Bitset> regs_;
  int64_t deadline_ns_ = 0;  // 0 = no deadline armed
  const std::atomic<bool>* cancel_flag_ = nullptr;
  RunInfo last_run_;
  // Label index: refs into the shared TreeCache when attached (lock-free
  // after first touch), else locally built sets.
  std::unordered_map<Symbol, const Bitset*> label_refs_;
  std::unordered_map<Symbol, Bitset> local_labels_;
  // Reachability pass scratch: visited (node, state) pairs for the states
  // past 0 (state 0's visited set is the star's dst), and the worklist of
  // (node, state) pairs packed as state << 32 | node.
  std::vector<Bitset> nfa_visited_;
  std::vector<uint64_t> worklist_;
  std::unique_ptr<EvalScratch> w_scratch_;  // lazily built, kWithin only
};

}  // namespace exec
}  // namespace xptc

#endif  // XPTC_EXEC_ENGINE_H_
