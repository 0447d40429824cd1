#include "exec/program.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "xpath/axis_kernels.h"
#include "xpath/intern.h"

namespace xptc {
namespace exec {
namespace {

// Closure-op mnemonic for an axis produced by `TransitiveClosureAxis`
// (desc → interval fill, anc → backward mark sweep, fsib/psib → chain).
Op ClosureOpFor(Axis closure) {
  switch (closure) {
    case Axis::kDescendant:
      return Op::kDescFill;
    case Axis::kAncestor:
      return Op::kAncMark;
    default:
      return Op::kSibChain;
  }
}

// A StarNfa under construction: edges tagged with their source state.
struct NfaDraft {
  int num_states = 1;  // state 0: the star's loop state
  std::vector<std::pair<int, StarNfa::Edge>> edges;

  int AddState() { return num_states++; }

  void Epsilon(int from, int to) {
    StarNfa::Edge edge;
    edge.to = to;
    edges.emplace_back(from, edge);
  }

  void Move(int from, Axis unit, int to) {
    StarNfa::Edge edge;
    edge.kind = StarNfa::Kind::kMove;
    edge.axis = unit;
    edge.to = to;
    edges.emplace_back(from, edge);
  }

  // `unit` repeated from `from` to `to`: at least once iff `plus`.
  void Closure(int from, Axis unit, bool plus, int to) {
    const int loop = AddState();
    if (plus) {
      Move(from, unit, loop);
    } else {
      Epsilon(from, loop);
    }
    Move(loop, unit, loop);
    Epsilon(loop, to);
  }

  // The moves of one (already inverted) axis, each closure axis expanded
  // to unit moves around a loop state, so a pass over n nodes makes
  // O(states · n) moves in total.
  void AxisMoves(Axis axis, int from, int to) {
    switch (axis) {
      case Axis::kSelf:
        Epsilon(from, to);
        break;
      case Axis::kChild:
      case Axis::kParent:
      case Axis::kNextSibling:
      case Axis::kPrevSibling:
        Move(from, axis, to);
        break;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        Closure(from, Axis::kChild, axis == Axis::kDescendant, to);
        break;
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
        Closure(from, Axis::kParent, axis == Axis::kAncestor, to);
        break;
      case Axis::kFollowingSibling:
        Closure(from, Axis::kNextSibling, true, to);
        break;
      case Axis::kPrecedingSibling:
        Closure(from, Axis::kPrevSibling, true, to);
        break;
      case Axis::kFollowing:
      case Axis::kPreceding: {
        // foll = aos / fsib / dos, and prec = aos / psib / dos.
        const int up = AddState();
        const int over = AddState();
        Closure(from, Axis::kParent, false, up);
        Closure(up,
                axis == Axis::kFollowing ? Axis::kNextSibling
                                         : Axis::kPrevSibling,
                true, over);
        Closure(over, Axis::kChild, false, to);
        break;
      }
    }
  }

  StarNfa Finish() && {
    std::stable_sort(edges.begin(), edges.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    StarNfa nfa;
    nfa.first.assign(static_cast<size_t>(num_states) + 1, 0);
    for (const auto& [from, edge] : edges) {
      ++nfa.first[static_cast<size_t>(from) + 1];
      nfa.edges.push_back(edge);
    }
    for (size_t q = 1; q < nfa.first.size(); ++q) {
      nfa.first[q] += nfa.first[q - 1];
    }
    return nfa;
  }
};

// ---------------------------------------------------------------------------
// Lowering: NodeExpr DAG -> flat instruction sequences (SSA virtual regs).
//
// The plan is hash-consed before lowering, so pointer-keyed memos collapse
// every repeated subexpression onto one instruction. Node-expression
// results are context-free, so they are always emitted into the top-level
// sequence — in particular filter predicates are hoisted out of star loop
// bodies and computed once. Star bodies are lowered into their own
// sequences first; the owning kStar instruction is appended afterwards, so
// within every sequence definitions precede uses in execution order.

struct LoopSeq {
  std::vector<Instr> instrs;
  // Backward-image memo: (canonical path, targets vreg) -> result vreg.
  // Sequence-local: a body re-entered each iteration recomputes, but two
  // occurrences of the same sub-path over the same operand share.
  std::map<std::pair<const PathExpr*, int>, int> path_memo;
};

class Lowerer {
 public:
  struct Output {
    std::vector<Instr> code;
    int main_end = 0;
    int result_vreg = -1;
    int num_vregs = 0;
    int dag_hits = 0;
    std::vector<StarNfa> nfas;
  };

  Output Lower(const NodePtr& plan) {
    seqs_.emplace_back();  // seq 0: the top-level sequence
    Output out;
    out.result_vreg = LowerNode(plan);
    out.num_vregs = DropDeadNots(&out.result_vreg);
    out.dag_hits = dag_hits_;
    out.nfas = std::move(nfas_);
    // Linearize: main first, then loop bodies in creation order; rewrite
    // each kStar's body reference from sequence id to instruction range.
    std::vector<int> offset(seqs_.size(), 0);
    out.main_end = static_cast<int>(seqs_[0].instrs.size());
    int at = 0;
    for (size_t s = 0; s < seqs_.size(); ++s) {
      offset[s] = at;
      at += static_cast<int>(seqs_[s].instrs.size());
    }
    out.code.reserve(static_cast<size_t>(at));
    for (auto& seq : seqs_) {
      for (auto& ins : seq.instrs) out.code.push_back(std::move(ins));
    }
    for (auto& ins : out.code) {
      if (ins.op == Op::kStar) {
        const int seq = ins.body_begin;
        ins.body_begin = offset[static_cast<size_t>(seq)];
        ins.body_end =
            ins.body_begin +
            static_cast<int>(seqs_[static_cast<size_t>(seq)].instrs.size());
      }
    }
    return out;
  }

 private:
  int NewVreg() { return num_vregs_++; }

  int NewSeq() {
    seqs_.emplace_back();
    return static_cast<int>(seqs_.size()) - 1;
  }

  void Append(int seq, Instr ins) {
    seqs_[static_cast<size_t>(seq)].instrs.push_back(std::move(ins));
  }

  // Appends `a op b` (op ∈ {kAnd, kOr}) to `seq`. A negated operand fuses:
  // x ∧ ¬y becomes `andnot x y` and x ∨ ¬y `ornot x y`, in either operand
  // order, reading y's register instead of the kNot's.
  int EmitBinary(int seq, Op op, int a, int b) {
    Instr ins;
    ins.op = op;
    ins.a = a;
    ins.b = b;
    if (negation_of_.count(a) != 0 && negation_of_.count(b) == 0) {
      std::swap(ins.a, ins.b);
    }
    const auto negated = negation_of_.find(ins.b);
    if (negated != negation_of_.end()) {
      ins.op = op == Op::kAnd ? Op::kAndNot : Op::kOrNot;
      ins.b = negated->second;
    }
    ins.dst = NewVreg();
    Append(seq, ins);
    return ins.dst;
  }

  // Deletes every kNot that no instruction reads any more (all its readers
  // fused it), then renumbers the vregs densely, as the register allocator
  // requires. Returns the new vreg count.
  int DropDeadNots(int* result) {
    std::vector<int> reads(static_cast<size_t>(num_vregs_), 0);
    ++reads[static_cast<size_t>(*result)];
    for (const LoopSeq& seq : seqs_) {
      for (const Instr& ins : seq.instrs) {
        for (const int vreg : {ins.a, ins.b, ins.out}) {
          if (vreg >= 0) ++reads[static_cast<size_t>(vreg)];
        }
      }
    }
    for (const StarNfa& nfa : nfas_) {
      for (const StarNfa::Edge& edge : nfa.edges) {
        if (edge.reg >= 0) ++reads[static_cast<size_t>(edge.reg)];
      }
    }
    std::vector<int> remap(static_cast<size_t>(num_vregs_), -1);
    for (LoopSeq& seq : seqs_) {
      std::erase_if(seq.instrs, [&reads](const Instr& ins) {
        return ins.op == Op::kNot && reads[static_cast<size_t>(ins.dst)] == 0;
      });
      for (const Instr& ins : seq.instrs) {
        remap[static_cast<size_t>(ins.dst)] = 0;
        if (ins.op == Op::kStar) remap[static_cast<size_t>(ins.in)] = 0;
      }
    }
    int next = 0;
    for (int& id : remap) {
      if (id == 0) id = next++;
    }
    const auto apply = [&remap](int* vreg) {
      if (*vreg >= 0) *vreg = remap[static_cast<size_t>(*vreg)];
    };
    for (LoopSeq& seq : seqs_) {
      for (Instr& ins : seq.instrs) {
        for (int* vreg : {&ins.dst, &ins.a, &ins.b, &ins.in, &ins.out}) {
          apply(vreg);
        }
      }
    }
    for (StarNfa& nfa : nfas_) {
      for (StarNfa::Edge& edge : nfa.edges) apply(&edge.reg);
    }
    apply(result);
    return next;
  }

  // Stands for the all-nodes set as a path's targets, so the kSome
  // lowering can fold what it knows about that set before a register is
  // needed: a filter over all nodes is its predicate, and the back image
  // of `child` over all nodes is the tree's has-child column.
  static constexpr int kAllNodes = -2;

  // The all-nodes register (lazily emitted once, in the main sequence).
  int TrueReg() {
    if (true_vreg_ < 0) {
      Instr ins;
      ins.op = Op::kTrue;
      ins.dst = NewVreg();
      Append(0, ins);
      true_vreg_ = ins.dst;
    }
    return true_vreg_;
  }

  int Materialize(int targets) {
    return targets == kAllNodes ? TrueReg() : targets;
  }

  // Register holding the node set of `node`. Node-expression values are
  // context-free, so they always live in the main sequence.
  int LowerNode(const NodePtr& node) {
    auto it = node_memo_.find(node.get());
    if (it != node_memo_.end()) {
      ++dag_hits_;
      return it->second;
    }
    int reg = -1;
    switch (node->op) {
      case NodeOp::kTrue:
        reg = TrueReg();
        break;
      case NodeOp::kLabel: {
        Instr ins;
        ins.op = Op::kLabel;
        ins.label = node->label;
        ins.dst = NewVreg();
        Append(0, ins);
        reg = ins.dst;
        break;
      }
      case NodeOp::kNot: {
        Instr ins;
        ins.op = Op::kNot;
        ins.a = LowerNode(node->left);
        ins.dst = NewVreg();
        Append(0, ins);
        reg = ins.dst;
        negation_of_.emplace(reg, ins.a);
        break;
      }
      case NodeOp::kAnd:
      case NodeOp::kOr: {
        const int left = LowerNode(node->left);
        reg = EmitBinary(0, node->op == NodeOp::kAnd ? Op::kAnd : Op::kOr,
                         left, LowerNode(node->right));
        break;
      }
      case NodeOp::kSome:
        reg = Materialize(LowerPathBack(node->path, kAllNodes, 0));
        break;
      case NodeOp::kWithin: {
        // Delegated to the shared-context interpreter engine: W results
        // are context-independent and memoized per tree, and the compiled
        // pipeline stays free of sub-context plumbing.
        Instr ins;
        ins.op = Op::kWithin;
        ins.within = node;
        ins.dst = NewVreg();
        Append(0, ins);
        reg = ins.dst;
        break;
      }
    }
    node_memo_.emplace(node.get(), reg);
    return reg;
  }

  // Register holding the backward image {v : ∃t ∈ targets, (v, t) ∈ [[p]]},
  // emitted into sequence `seq`, or kAllNodes when that image is every
  // node. ⟨p⟩φ = back(p, φ), which is why kAxis stores the *inverse* axis.
  int LowerPathBack(const PathPtr& path, int targets, int seq) {
    if (targets == true_vreg_) targets = kAllNodes;  // e.g. `<child[true]>`
    const auto key = std::make_pair(path.get(), targets);
    {
      const auto& memo = seqs_[static_cast<size_t>(seq)].path_memo;
      auto it = memo.find(key);
      if (it != memo.end()) {
        ++dag_hits_;
        return it->second;
      }
    }
    int reg = -1;
    switch (path->op) {
      case PathOp::kAxis: {
        Instr ins;
        if (targets == kAllNodes && path->axis == Axis::kChild) {
          ins.op = Op::kHasChild;  // ⟨child⟩⊤ is a column the tree stores
        } else {
          ins.op = Op::kAxis;
          ins.axis = InverseAxis(path->axis);
          ins.a = Materialize(targets);
        }
        ins.dst = NewVreg();
        Append(seq, ins);
        reg = ins.dst;
        break;
      }
      case PathOp::kSeq: {
        const int mid = LowerPathBack(path->right, targets, seq);
        reg = LowerPathBack(path->left, mid, seq);
        break;
      }
      case PathOp::kUnion: {
        const int left = Materialize(LowerPathBack(path->left, targets, seq));
        reg = EmitBinary(seq, Op::kOr, left,
                         Materialize(LowerPathBack(path->right, targets, seq)));
        break;
      }
      case PathOp::kFilter: {
        if (targets == kAllNodes) {
          // All nodes ∩ φ = φ: the predicate's register is the targets.
          reg = LowerPathBack(path->left, LowerNode(path->pred), seq);
          break;
        }
        // The predicate is hoisted: computed once, in main.
        const int filtered =
            EmitBinary(seq, Op::kAnd, targets, LowerNode(path->pred));
        reg = LowerPathBack(path->left, filtered, seq);
        break;
      }
      case PathOp::kStar: {
        // The closure is reflexive, so over all nodes it is all nodes.
        if (targets == kAllNodes) {
          reg = kAllNodes;
          break;
        }
        // Closure collapse: a star whose body is one bare axis step is the
        // reflexive-transitive closure of that step — when the closure is
        // itself a one-pass streaming kernel, emit one closure instruction
        // (dst := targets ∪ closure-image(targets)) instead of the
        // O(rounds) fixpoint loop below. The body axis is inverted first
        // because this lowering computes backward images.
        Axis closure;
        if (axis::ClosureCollapseEnabled() &&
            path->left->op == PathOp::kAxis &&
            TransitiveClosureAxis(InverseAxis(path->left->axis), &closure)) {
          Instr ins;
          ins.op = ClosureOpFor(closure);
          ins.axis = closure;
          ins.a = targets;
          ins.dst = NewVreg();
          Append(seq, ins);
          reg = ins.dst;
          break;
        }
        // Semi-naive closure: the body maps the frontier `in` one p-step
        // back to `out`; the engine accumulates into dst until empty.
        const int body = NewSeq();
        Instr ins;
        ins.op = Op::kStar;
        ins.a = targets;
        ins.in = NewVreg();
        ins.out = LowerPathBack(path->left, ins.in, body);
        ins.nfa = static_cast<int>(nfas_.size());
        NfaDraft nfa;
        AddNfaPath(*path->left, 0, 0, &nfa);
        nfas_.push_back(std::move(nfa).Finish());
        ins.dst = NewVreg();
        ins.body_begin = body;  // sequence id; linearization rewrites
        Append(seq, ins);
        reg = ins.dst;
        break;
      }
    }
    seqs_[static_cast<size_t>(seq)].path_memo.emplace(key, reg);
    return reg;
  }

  // Adds the transitions of `path` from state `from` to state `to`, so that
  // (u, from) reaches (w, to) iff w ∈ back(path, {u}). Every sub-automaton
  // gets fresh inner states and only its endpoints are shared, so a star
  // may pass the same state as both (its loop state).
  void AddNfaPath(const PathExpr& path, int from, int to, NfaDraft* nfa) {
    switch (path.op) {
      case PathOp::kAxis:
        nfa->AxisMoves(InverseAxis(path.axis), from, to);
        break;
      case PathOp::kSeq: {
        // back(p/q, T) = back(p, back(q, T)).
        const int mid = nfa->AddState();
        AddNfaPath(*path.right, from, mid, nfa);
        AddNfaPath(*path.left, mid, to, nfa);
        break;
      }
      case PathOp::kUnion:
        AddNfaPath(*path.left, from, to, nfa);
        AddNfaPath(*path.right, from, to, nfa);
        break;
      case PathOp::kFilter: {
        // back(p[φ], T) = back(p, T ∩ φ). The body lowering has already
        // hoisted φ into a main-sequence register; a negated φ is tested
        // as the register its fused and-not reads.
        StarNfa::Edge guard;
        guard.kind = StarNfa::Kind::kGuard;
        guard.to = nfa->AddState();
        guard.reg = node_memo_.at(path.pred.get());
        const auto negated = negation_of_.find(guard.reg);
        if (negated != negation_of_.end()) {
          guard.reg = negated->second;
          guard.negated = true;
        }
        nfa->edges.emplace_back(from, guard);
        AddNfaPath(*path.left, guard.to, to, nfa);
        break;
      }
      case PathOp::kStar: {
        const int loop = nfa->AddState();
        nfa->Epsilon(from, loop);
        AddNfaPath(*path.left, loop, loop, nfa);
        nfa->Epsilon(loop, to);
        break;
      }
    }
  }

  std::vector<LoopSeq> seqs_;
  std::vector<StarNfa> nfas_;
  std::unordered_map<const NodeExpr*, int> node_memo_;
  // kNot result vreg -> the vreg it negates, for EmitBinary's fusion.
  std::unordered_map<int, int> negation_of_;
  int num_vregs_ = 0;
  int dag_hits_ = 0;
  int true_vreg_ = -1;
};

// ---------------------------------------------------------------------------
// Register allocation: loop-aware liveness + linear scan.
//
// Positions are assigned in execution order (loop bodies numbered at their
// kStar site; the star itself gets a loop-entry position, where it reads
// the seed and defines dst/in, and a loop-exit position, where the engine
// last touches dst/in/out). A value defined before a loop and used inside
// it must survive every iteration, so its interval is extended to the loop
// exit. Values defined inside a body are fully recomputed each iteration
// and need no extension.

class RegisterAllocator {
 public:
  // Rewrites vreg operands in `code` to physical registers; returns the
  // physical register count.
  int Run(std::vector<Instr>* code, std::vector<StarNfa>* nfas, int main_end,
          int num_vregs, int* result_reg, int result_vreg) {
    nfas_ = nfas;
    live_.resize(static_cast<size_t>(num_vregs));
    int pos = 0;
    WalkRange(*code, 0, main_end, &pos);
    for (auto& lv : live_) {
      XPTC_CHECK(lv.def != kUnset) << "vreg never defined";
      lv.last = std::max(lv.last, lv.def);
    }
    // Loop extension: anything defined before a loop and used inside it is
    // re-read on every iteration, so it must stay live to the loop exit.
    for (const auto& [start, end] : loops_) {
      for (auto& lv : live_) {
        if (lv.def >= start) continue;
        const auto it = std::upper_bound(lv.uses.begin(), lv.uses.end(), start);
        if (it != lv.uses.end() && *it <= end) lv.last = std::max(lv.last, end);
      }
    }
    // Linear scan over def order. Two vregs may share a physical register
    // only if their intervals are disjoint; an operand live at another
    // vreg's definition therefore never aliases its destination (the
    // engine overwrites dst before reading it would be catastrophic).
    std::vector<int> order(static_cast<size_t>(num_vregs));
    for (int v = 0; v < num_vregs; ++v) order[static_cast<size_t>(v)] = v;
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      const auto& la = live_[static_cast<size_t>(a)];
      const auto& lb = live_[static_cast<size_t>(b)];
      return la.def != lb.def ? la.def < lb.def : a < b;
    });
    std::vector<int> assign(static_cast<size_t>(num_vregs), -1);
    std::priority_queue<int, std::vector<int>, std::greater<int>> free_regs;
    using Active = std::pair<int, int>;  // (last position, physical reg)
    std::priority_queue<Active, std::vector<Active>, std::greater<Active>>
        active;
    int num_regs = 0;
    for (const int v : order) {
      const auto& lv = live_[static_cast<size_t>(v)];
      while (!active.empty() && active.top().first < lv.def) {
        free_regs.push(active.top().second);
        active.pop();
      }
      int reg;
      if (!free_regs.empty()) {
        reg = free_regs.top();
        free_regs.pop();
      } else {
        reg = num_regs++;
      }
      assign[static_cast<size_t>(v)] = reg;
      active.emplace(lv.last, reg);
    }
    auto remap = [&assign](int* field) {
      if (*field >= 0) *field = assign[static_cast<size_t>(*field)];
    };
    for (auto& ins : *code) {
      remap(&ins.dst);
      remap(&ins.a);
      remap(&ins.b);
      remap(&ins.in);
      remap(&ins.out);
    }
    for (StarNfa& nfa : *nfas) {
      for (StarNfa::Edge& edge : nfa.edges) remap(&edge.reg);
    }
    *result_reg = assign[static_cast<size_t>(result_vreg)];
    return num_regs;
  }

 private:
  static constexpr int kUnset = std::numeric_limits<int>::max();

  struct Live {
    int def = kUnset;
    int last = -1;
    std::vector<int> uses;  // increasing (walk order)
  };

  void Def(int vreg, int pos) {
    auto& lv = live_[static_cast<size_t>(vreg)];
    lv.def = std::min(lv.def, pos);
  }

  void Use(int vreg, int pos) {
    if (vreg < 0) return;
    auto& lv = live_[static_cast<size_t>(vreg)];
    lv.last = std::max(lv.last, pos);
    lv.uses.push_back(pos);
  }

  void WalkRange(const std::vector<Instr>& code, int begin, int end,
                 int* pos) {
    for (int i = begin; i < end; ++i) {
      const Instr& ins = code[static_cast<size_t>(i)];
      if (ins.op == Op::kStar) {
        const int entry = (*pos)++;
        Use(ins.a, entry);
        Def(ins.dst, entry);
        Def(ins.in, entry);
        WalkRange(code, ins.body_begin, ins.body_end, pos);
        const int exit = (*pos)++;
        Use(ins.out, exit);
        Use(ins.in, exit);
        Use(ins.dst, exit);
        // The reachability pass that may finish the loop reads its guards.
        for (const StarNfa::Edge& edge :
             (*nfas_)[static_cast<size_t>(ins.nfa)].edges) {
          Use(edge.reg, exit);
        }
        loops_.emplace_back(entry, exit);
      } else {
        const int at = (*pos)++;
        Use(ins.a, at);
        Use(ins.b, at);
        Def(ins.dst, at);
      }
    }
  }

  std::vector<Live> live_;
  std::vector<std::pair<int, int>> loops_;
  const std::vector<StarNfa>* nfas_ = nullptr;
};

}  // namespace

std::shared_ptr<const Program> Program::Compile(const NodePtr& query) {
  XPTC_CHECK(query != nullptr);
  std::shared_ptr<Program> program(new Program());
  // A private interner: collapses repeated subexpressions of *this* query.
  // (PlanCache additionally shares canonical plans — and thus programs —
  // across the whole workload.)
  ExprInterner interner;
  program->plan_ = interner.Intern(query);
  Lowerer::Output lowered = Lowerer().Lower(program->plan_);
  program->code_ = std::move(lowered.code);
  program->main_end_ = lowered.main_end;
  program->star_nfas_ = std::move(lowered.nfas);
  RegisterAllocator allocator;
  program->num_regs_ = allocator.Run(
      &program->code_, &program->star_nfas_, program->main_end_,
      lowered.num_vregs, &program->result_reg_, lowered.result_vreg);
  CompileStats& stats = program->stats_;
  stats.ast_nodes = NodeSize(*query);
  stats.num_instrs = static_cast<int>(program->code_.size());
  stats.num_vregs = lowered.num_vregs;
  stats.num_regs = program->num_regs_;
  stats.dag_hits = lowered.dag_hits;
  return program;
}

std::string Program::InstrToString(int i, const Alphabet& alphabet) const {
  const Instr& ins = code_[static_cast<size_t>(i)];
  std::ostringstream os;
  os << "r" << ins.dst << " = ";
  switch (ins.op) {
    case Op::kTrue:
      os << "true";
      break;
    case Op::kHasChild:
      os << "haschild";
      break;
    case Op::kLabel:
      os << "label " << alphabet.Name(ins.label);
      break;
    case Op::kNot:
      os << "not r" << ins.a;
      break;
    case Op::kAnd:
      os << "and r" << ins.a << " r" << ins.b;
      break;
    case Op::kOr:
      os << "or r" << ins.a << " r" << ins.b;
      break;
    case Op::kAndNot:
      os << "andnot r" << ins.a << " r" << ins.b;
      break;
    case Op::kOrNot:
      os << "ornot r" << ins.a << " r" << ins.b;
      break;
    case Op::kAxis:
      os << "axis " << AxisToString(ins.axis) << " r" << ins.a;
      break;
    case Op::kStar:
      os << "star r" << ins.a << " body=[" << ins.body_begin << ","
         << ins.body_end << ") in=r" << ins.in << " out=r" << ins.out;
      break;
    case Op::kWithin:
      os << "within " << NodeToString(*ins.within, alphabet);
      break;
    case Op::kDescFill:
      os << "descfill " << AxisToString(ins.axis) << " r" << ins.a;
      break;
    case Op::kAncMark:
      os << "ancmark " << AxisToString(ins.axis) << " r" << ins.a;
      break;
    case Op::kSibChain:
      os << "sibchain " << AxisToString(ins.axis) << " r" << ins.a;
      break;
  }
  return os.str();
}

std::string Program::ToString(const Alphabet& alphabet) const {
  std::ostringstream os;
  os << "program: " << code_.size() << " instrs, " << num_regs_
     << " regs, result r" << result_reg_ << ", main [0," << main_end_ << ")\n";
  for (size_t i = 0; i < code_.size(); ++i) {
    os << "  " << i << ": " << InstrToString(static_cast<int>(i), alphabet)
       << "\n";
  }
  for (size_t k = 0; k < star_nfas_.size(); ++k) {
    const StarNfa& nfa = star_nfas_[k];
    os << "star nfa " << k << ": " << nfa.num_states() << " states\n";
    for (int q = 0; q < nfa.num_states(); ++q) {
      for (int e = nfa.first[static_cast<size_t>(q)];
           e < nfa.first[static_cast<size_t>(q) + 1]; ++e) {
        const StarNfa::Edge& edge = nfa.edges[static_cast<size_t>(e)];
        os << "  " << q << " -";
        switch (edge.kind) {
          case StarNfa::Kind::kEpsilon:
            os << "eps";
            break;
          case StarNfa::Kind::kGuard:
            os << (edge.negated ? "not r" : "r") << edge.reg;
            break;
          case StarNfa::Kind::kMove:
            os << AxisToString(edge.axis);
            break;
        }
        os << "-> " << edge.to << "\n";
      }
    }
  }
  return os.str();
}

namespace {

bool VerifyNfa(const Program& program, int index) {
  if (index < 0 || index >= static_cast<int>(program.star_nfas().size())) {
    return false;
  }
  const StarNfa& nfa = program.star_nfas()[static_cast<size_t>(index)];
  const int states = nfa.num_states();
  if (states < 1 || nfa.first.front() != 0 ||
      nfa.first.back() != static_cast<int>(nfa.edges.size()) ||
      !std::is_sorted(nfa.first.begin(), nfa.first.end())) {
    return false;
  }
  for (const StarNfa::Edge& edge : nfa.edges) {
    if (edge.to < 0 || edge.to >= states) return false;
    switch (edge.kind) {
      case StarNfa::Kind::kEpsilon:
        break;
      case StarNfa::Kind::kGuard:
        if (edge.reg < 0 || edge.reg >= program.num_regs()) return false;
        break;
      case StarNfa::Kind::kMove:
        if (edge.axis != Axis::kChild && edge.axis != Axis::kParent &&
            edge.axis != Axis::kNextSibling &&
            edge.axis != Axis::kPrevSibling) {
          return false;
        }
        break;
    }
  }
  return true;
}

bool VerifyWalk(const Program& program, int begin, int end,
                std::vector<char>* visited, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const std::vector<Instr>& code = program.code();
  if (begin < 0 || end < begin || end > static_cast<int>(code.size())) {
    return fail("instruction range out of bounds");
  }
  const auto ok_reg = [&program](int reg) {
    return reg >= 0 && reg < program.num_regs();
  };
  for (int i = begin; i < end; ++i) {
    if ((*visited)[static_cast<size_t>(i)]) {
      return fail("instruction " + std::to_string(i) + " visited twice");
    }
    (*visited)[static_cast<size_t>(i)] = 1;
    const Instr& ins = code[static_cast<size_t>(i)];
    if (!ok_reg(ins.dst)) {
      return fail("instruction " + std::to_string(i) + ": bad dst register");
    }
    bool need_a = false, need_b = false;
    switch (ins.op) {
      case Op::kTrue:
      case Op::kHasChild:
        break;
      case Op::kLabel:
        if (ins.label == kInvalidSymbol) {
          return fail("instruction " + std::to_string(i) + ": invalid label");
        }
        break;
      case Op::kNot:
      case Op::kAxis:
      case Op::kDescFill:
      case Op::kAncMark:
      case Op::kSibChain:
        need_a = true;
        break;
      case Op::kAnd:
      case Op::kOr:
      case Op::kAndNot:
      case Op::kOrNot:
        need_a = need_b = true;
        break;
      case Op::kWithin:
        if (ins.within == nullptr) {
          return fail("instruction " + std::to_string(i) +
                      ": kWithin without expression");
        }
        break;
      case Op::kStar:
        need_a = true;
        if (!ok_reg(ins.in) || !ok_reg(ins.out)) {
          return fail("instruction " + std::to_string(i) +
                      ": bad star in/out register");
        }
        if (!VerifyNfa(program, ins.nfa)) {
          return fail("instruction " + std::to_string(i) + ": bad star nfa");
        }
        if (!VerifyWalk(program, ins.body_begin, ins.body_end, visited,
                        error)) {
          return false;
        }
        break;
    }
    if (need_a && !ok_reg(ins.a)) {
      return fail("instruction " + std::to_string(i) + ": bad operand a");
    }
    if (need_b && !ok_reg(ins.b)) {
      return fail("instruction " + std::to_string(i) + ": bad operand b");
    }
  }
  return true;
}

}  // namespace

bool VerifyProgram(const Program& program, std::string* error) {
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (program.main_end() < 0 ||
      program.main_end() > static_cast<int>(program.code().size())) {
    return fail("main_end out of bounds");
  }
  if (program.result_reg() < 0 || program.result_reg() >= program.num_regs()) {
    return fail("result register out of bounds");
  }
  std::vector<char> visited(program.code().size(), 0);
  if (!VerifyWalk(program, 0, program.main_end(), &visited, error)) {
    return false;
  }
  for (size_t i = 0; i < visited.size(); ++i) {
    if (!visited[i]) {
      return fail("unreachable instruction (orphaned star body)");
    }
  }
  return true;
}

}  // namespace exec
}  // namespace xptc
