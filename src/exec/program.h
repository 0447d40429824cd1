#ifndef XPTC_EXEC_PROGRAM_H_
#define XPTC_EXEC_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "xpath/ast.h"

namespace xptc {
namespace exec {

/// Bytecode operations over whole-tree bitset registers. Every operation
/// runs in full-tree context; `W` sub-contexts never surface here (kWithin
/// delegates to the shared-context interpreter engine, whose results are
/// context-independent and memoized per tree).
enum class Op : uint8_t {
  kTrue,    // dst := all nodes
  kHasChild,  // dst := {v : v has a child} = ⟨child⟩⊤, copied from the
              //        tree's has-child column instead of a parent image
  kLabel,   // dst := {v : label(v) == label}
  kNot,     // dst := complement(a)
  kAnd,     // dst := a ∩ b
  kOr,      // dst := a ∪ b
  kAndNot,  // dst := a ∖ b — lowering's fused form of φ ∧ ¬ψ and of a
            //        filter [¬ψ]; one bitset pass instead of three
  kOrNot,   // dst := a ∪ complement(b) — lowering's fused form of φ ∨ ¬ψ
  kAxis,    // dst := axis-image(axis, a)   (axis already inverted: the
            //        lowering of ⟨p⟩ computes backward images)
  kStar,    // dst := reflexive-transitive back-image closure of a; the
            //        loop body [body_begin, body_end) maps register `in`
            //        (current frontier) to register `out` (one p-step);
            //        `nfa` indexes the body's StarNfa, which finishes the
            //        closure once the star's round budget is spent
  kWithin,  // dst := {v : W-expression holds at v} via the interpreter

  // Closure kernels: dst := a ∪ axis-image(axis, a), with `axis` one of
  // the transitive structure axes (desc/anc/fsib/psib). Emitted when a
  // star loop's body is a single bare axis step whose closure is itself a
  // one-pass streaming kernel (`TransitiveClosureAxis`): the whole
  // O(depth)-round fixpoint collapses to one interval/streamed pass. Three
  // mnemonics so disassembly can tell the kernel families apart;
  // execution is identical modulo the axis operand.
  kDescFill,  // axis ∈ {desc} — preorder interval range-fill union
  kAncMark,   // axis ∈ {anc} — interval-stabbing backward sweep
  kSibChain,  // axis ∈ {fsib, psib} — slot-space sibling-closure pass
};

struct Instr {
  Op op;
  int dst = -1;
  int a = -1;
  int b = -1;
  Axis axis = Axis::kSelf;        // kAxis
  Symbol label = kInvalidSymbol;  // kLabel
  int body_begin = 0;             // kStar: loop body instruction range
  int body_end = 0;
  int in = -1;   // kStar: frontier register read by the body
  int out = -1;  // kStar: one-step image register written by the body
  int nfa = -1;  // kStar: index into Program::star_nfas()
  NodePtr within;  // kWithin: the full `W φ` node (canonical)
};

/// A star body `p` as a Thompson NFA over (node, state) pairs, the form
/// `ExecEngine` finishes an over-budget star in (DESIGN.md §10.4). State 0
/// is the star's loop state: (u, 0) reaches (w, 0) iff w ∈ back(p*, {u}),
/// so a node at state 0 is in the closure. Transitions read only the tree
/// and registers the register allocator keeps live across the whole loop.
struct StarNfa {
  enum class Kind : uint8_t {
    kEpsilon,  // same node, next state
    kGuard,    // same node, next state, iff reg(node) != negated
    kMove,     // each w with (node, w) ∈ axis, next state
  };
  struct Edge {
    Kind kind = Kind::kEpsilon;
    int to = 0;
    // kMove: one of the unit axes child, parent, right, left — inverted,
    // as kAxis stores them, since the closure is a backward image.
    Axis axis = Axis::kSelf;
    int reg = -1;          // kGuard: the hoisted predicate's register
    bool negated = false;  // kGuard: the node must be outside `reg`
  };

  /// Out-edges of state q are edges[first[q], first[q + 1]).
  std::vector<int> first;
  std::vector<Edge> edges;

  int num_states() const { return static_cast<int>(first.size()) - 1; }
};

struct CompileStats {
  int ast_nodes = 0;   // size of the query expression tree (with repeats)
  int num_instrs = 0;  // flat instruction count after DAG collapse
  int num_vregs = 0;   // SSA virtual registers before allocation
  int num_regs = 0;    // physical bitset registers after linear scan
  int dag_hits = 0;    // lowering memo hits — shared subcomputations
};

/// A compiled query plan: the result of lowering a `NodeExpr` DAG into a
/// flat, topologically ordered instruction sequence over bitset registers.
///
///  - The expression is hash-consed first (a private `ExprInterner`), so
///    every structurally distinct subexpression — even when the source AST
///    repeats it — is computed by exactly one instruction.
///  - Every rewrite is fixed, applied the same way to every plan: filter
///    predicates are hoisted out of star bodies, a star over one bare
///    closure axis collapses to a one-pass closure op, filters, `child`
///    steps and stars over all nodes fold away, and ∧/∨ with a negated operand (and a filter
///    [¬ψ]) lower to kAndNot/kOrNot reading ψ's register, so a kNot is
///    emitted only for a reader that cannot fuse it.
///  - Registers are allocated by loop-aware liveness (linear scan over the
///    execution-order positions, with values that cross a star-loop kept
///    live to the loop end), so hundreds of operations typically run in a
///    handful of reusable bitsets: steady-state execution allocates
///    nothing.
///  - Layout: instructions [0, main_end) are the top-level sequence; star
///    loop bodies follow, each a contiguous range referenced by its kStar
///    instruction. Executing [0, main_end) in order (recursing into bodies
///    at kStar sites) leaves the answer in `result_reg()`.
///  - Every kStar carries a `StarNfa` of its body, so the engine can
///    finish any star in O(|body| · n) however many rounds its fixpoint
///    would take.
///
/// A Program is immutable and shareable across threads and trees; per-run
/// state (the register file) lives in `ExecEngine`.
class Program {
 public:
  /// Lowers `query` (any Regular XPath(W) node expression) into a program.
  static std::shared_ptr<const Program> Compile(const NodePtr& query);

  const std::vector<Instr>& code() const { return code_; }
  int main_end() const { return main_end_; }
  int num_regs() const { return num_regs_; }
  int result_reg() const { return result_reg_; }
  const CompileStats& stats() const { return stats_; }

  /// The hash-consed plan; pins every expression referenced by kWithin
  /// instructions and serves as the cache identity in `PlanCache`.
  const NodePtr& plan() const { return plan_; }

  /// The body automata of the kStar instructions (`Instr::nfa`).
  const std::vector<StarNfa>& star_nfas() const { return star_nfas_; }

  /// Deterministic disassembly (used by lowering-determinism tests).
  std::string ToString(const Alphabet& alphabet) const;

  /// One instruction of the disassembly, e.g. `r3 = axis child r1` — the
  /// unit the EXPLAIN dump annotates with per-instruction execution
  /// counts. `ToString` is the concatenation of these plus headers.
  std::string InstrToString(int i, const Alphabet& alphabet) const;

 private:
  Program() = default;

  std::vector<Instr> code_;
  int main_end_ = 0;
  int num_regs_ = 0;
  int result_reg_ = -1;
  CompileStats stats_;
  NodePtr plan_;
  std::vector<StarNfa> star_nfas_;
};

/// Structural check over a finished (register-allocated) program: operand
/// registers in range, per-op operand presence, star bodies form properly
/// nested non-overlapping ranges, and every instruction is reachable
/// exactly once from the main sequence. Tests run it on every lowering.
bool VerifyProgram(const Program& program, std::string* error = nullptr);

}  // namespace exec
}  // namespace xptc

#endif  // XPTC_EXEC_PROGRAM_H_
