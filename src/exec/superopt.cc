#include "exec/superopt.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xpath/axis_kernels.h"

namespace xptc {
namespace exec {
namespace {

constexpr double kEps = 1e-9;

struct SuperoptMetrics {
  obs::Counter& programs;
  obs::Counter& optimized;
  obs::Counter& unchanged;
  obs::Counter& witness_rejects;
  static SuperoptMetrics& Get() {
    obs::Registry& reg = obs::Registry::Default();
    static SuperoptMetrics* m = new SuperoptMetrics{
        reg.counter("superopt.programs"), reg.counter("superopt.optimized"),
        reg.counter("superopt.unchanged"),
        reg.counter("superopt.witness_rejects")};
    return *m;
  }
};

void TraceNote(const char* note) {
  if (obs::TraceNode* cur = obs::QueryTrace::Current()) {
    cur->notes.emplace_back(note);
  }
}

Op ClosureOp(Axis closure) {
  switch (closure) {
    case Axis::kDescendant:
      return Op::kDescFill;
    case Axis::kAncestor:
      return Op::kAncMark;
    default:
      return Op::kSibChain;
  }
}

}  // namespace

double OpWeight(Op op) {
  switch (op) {
    case Op::kTrue:
    case Op::kHasChild:
    case Op::kLabel:
      return 1.0;  // one full-bitset write
    case Op::kNot:
      return 1.0;  // fused NotRange: one pass
    case Op::kAnd:
    case Op::kOr:
      return 2.0;  // copy + in-place op: two passes
    case Op::kAndNot:
    case Op::kOrNot:
      return 1.0;  // fused three-operand kernel: one pass
    case Op::kAxis:
      return 4.0;  // clear + scatter/gather image, not word-parallel
    case Op::kDescFill:
    case Op::kAncMark:
    case Op::kSibChain:
      return 4.0;  // one streamed closure pass — same unit as one kAxis,
                   // but executes once where a star body runs per round
    case Op::kStar:
      return 2.0;  // per-entry seed copies (round work is billed to the
                   // body instructions, which carry the round multiplier)
    case Op::kWithin:
      return 32.0;  // delegated interpreter evaluation
  }
  return 1.0;
}

// ---------------------------------------------------------------------------
// The Superoptimizer works on the pre-regalloc SSA form, re-structured by
// sequence: seq 0 is the main sequence and each kStar instruction refers
// to its body by *sequence id* (exactly the Lowerer's pre-linearization
// shape), so rewrites never have to maintain flat body ranges.

class Superoptimizer {
 public:
  static std::shared_ptr<const Program> Run(
      std::shared_ptr<const Program> base, const SuperoptOptions& options);

 private:
  struct SInstr {
    Instr ins;      // kStar: body_begin = sequence id, body_end unused
    double execs;   // executions per Eval under the cost model
  };

  struct Candidate {
    std::vector<std::vector<SInstr>> seqs;  // seq 0 = main
    int result_vreg = -1;
    int num_vregs = 0;  // upper bound on vreg ids (not necessarily dense)
    double cost = 0;
    int fused = 0, merged = 0, hoisted = 0, sunk = 0, dropped = 0;
    int collapsed = 0;
  };

  struct DefSite {
    int seq = -1;
    int idx = -1;  // -1 with seq >= 0: a kStar's `in`, owned by that body
  };

  struct Analysis {
    std::vector<DefSite> def;      // per vreg
    std::vector<int> uses;         // per vreg read count (+1 for result)
    std::vector<std::vector<int>> use_seqs;  // per vreg: seq of each use
                                             // (result counts as main)
    std::vector<int> parent;       // per seq: owning seq, -1 for main/dead
    std::vector<DefSite> star_of;  // per seq: the owning kStar instruction
  };

  static int Decompose(const std::vector<Instr>& flat, int begin, int end,
                       double mult, const SuperoptOptions& options,
                       const std::vector<int64_t>* observed, Candidate* cand) {
    const int sid = static_cast<int>(cand->seqs.size());
    cand->seqs.emplace_back();
    for (int i = begin; i < end; ++i) {
      SInstr si;
      si.ins = flat[static_cast<size_t>(i)];
      si.execs = observed != nullptr
                     ? static_cast<double>((*observed)[static_cast<size_t>(i)])
                     : mult;
      if (si.ins.op == Op::kStar) {
        const int body =
            Decompose(flat, si.ins.body_begin, si.ins.body_end,
                      mult * options.star_round_estimate, options, observed,
                      cand);
        si.ins.body_begin = body;
        si.ins.body_end = 0;
      }
      cand->seqs[static_cast<size_t>(sid)].push_back(si);
    }
    return sid;
  }

  static double Cost(const Candidate& c) {
    double total = 0;
    for (const auto& seq : c.seqs) {
      for (const SInstr& si : seq) total += si.execs * OpWeight(si.ins.op);
    }
    return total;
  }

  // Deterministic structural serialization: dedup key and sort tiebreak.
  // kWithin expressions are numbered by first appearance (walk order), so
  // keys are stable across processes despite pointer-valued operands.
  static std::string Serialize(const Candidate& c) {
    std::ostringstream os;
    std::unordered_map<const NodeExpr*, int> within_ids;
    for (size_t s = 0; s < c.seqs.size(); ++s) {
      os << "S" << s << ":";
      for (const SInstr& si : c.seqs[s]) {
        const Instr& ins = si.ins;
        os << static_cast<int>(ins.op) << "," << ins.dst << "," << ins.a
           << "," << ins.b << "," << static_cast<int>(ins.axis) << ","
           << ins.label << "," << ins.body_begin << "," << ins.in << ","
           << ins.out;
        if (ins.within != nullptr) {
          const auto it =
              within_ids.emplace(ins.within.get(),
                                 static_cast<int>(within_ids.size()))
                  .first;
          os << ",w" << it->second;
        }
        os << ";";
      }
    }
    os << "R" << c.result_vreg;
    return os.str();
  }

  static Analysis Analyze(const Candidate& c) {
    Analysis a;
    a.def.assign(static_cast<size_t>(c.num_vregs), DefSite{});
    a.uses.assign(static_cast<size_t>(c.num_vregs), 0);
    a.use_seqs.assign(static_cast<size_t>(c.num_vregs), {});
    a.parent.assign(c.seqs.size(), -1);
    a.star_of.assign(c.seqs.size(), DefSite{});
    int use_seq = 0;
    const auto use = [&a, &use_seq](int vreg) {
      if (vreg >= 0) {
        ++a.uses[static_cast<size_t>(vreg)];
        a.use_seqs[static_cast<size_t>(vreg)].push_back(use_seq);
      }
    };
    for (int s = 0; s < static_cast<int>(c.seqs.size()); ++s) {
      use_seq = s;
      for (int i = 0; i < static_cast<int>(c.seqs[static_cast<size_t>(s)].size());
           ++i) {
        const Instr& ins = c.seqs[static_cast<size_t>(s)][static_cast<size_t>(i)].ins;
        if (ins.op == Op::kStar) {
          a.def[static_cast<size_t>(ins.dst)] = {s, i};
          // `in` holds the frontier, rewritten every round: treat it as
          // owned by the body so nothing reading it counts as invariant.
          a.def[static_cast<size_t>(ins.in)] = {ins.body_begin, -1};
          a.parent[static_cast<size_t>(ins.body_begin)] = s;
          a.star_of[static_cast<size_t>(ins.body_begin)] = {s, i};
          use(ins.a);
          use(ins.out);
        } else {
          a.def[static_cast<size_t>(ins.dst)] = {s, i};
          use(ins.a);
          use(ins.b);
        }
      }
    }
    use_seq = 0;  // the result is read after main finishes
    use(c.result_vreg);
    return a;
  }

  // Structural witness: every operand defined before use in execution
  // order, each star's `out` produced inside its own body subtree, every
  // body seq referenced exactly once, result defined. Runs after every
  // applied move; a violation discards the move (superopt.witness_rejects).
  static bool Witness(const Candidate& c) {
    std::vector<char> defined(static_cast<size_t>(c.num_vregs), 0);
    std::vector<char> entered(c.seqs.size(), 0);
    if (c.seqs.empty()) return false;
    if (!WitnessSeq(c, 0, &defined, &entered)) return false;
    return c.result_vreg >= 0 &&
           defined[static_cast<size_t>(c.result_vreg)] != 0;
  }

  static bool WitnessSeq(const Candidate& c, int s, std::vector<char>* defined,
                         std::vector<char>* entered) {
    if (s < 0 || s >= static_cast<int>(c.seqs.size())) return false;
    if ((*entered)[static_cast<size_t>(s)]) return false;  // shared body
    (*entered)[static_cast<size_t>(s)] = 1;
    const auto ok_reg = [&c](int vreg) {
      return vreg >= 0 && vreg < c.num_vregs;
    };
    const auto is_defined = [&](int vreg) {
      return ok_reg(vreg) && (*defined)[static_cast<size_t>(vreg)] != 0;
    };
    for (const SInstr& si : c.seqs[static_cast<size_t>(s)]) {
      const Instr& ins = si.ins;
      switch (ins.op) {
        case Op::kTrue:
        case Op::kHasChild:
          break;
        case Op::kLabel:
          if (ins.label == kInvalidSymbol) return false;
          break;
        case Op::kNot:
        case Op::kAxis:
        case Op::kDescFill:
        case Op::kAncMark:
        case Op::kSibChain:
          if (!is_defined(ins.a)) return false;
          break;
        case Op::kAnd:
        case Op::kOr:
        case Op::kAndNot:
        case Op::kOrNot:
          if (!is_defined(ins.a) || !is_defined(ins.b)) return false;
          break;
        case Op::kWithin:
          if (ins.within == nullptr) return false;
          break;
        case Op::kStar: {
          if (!is_defined(ins.a)) return false;
          if (!ok_reg(ins.dst) || !ok_reg(ins.in) || !ok_reg(ins.out)) {
            return false;
          }
          (*defined)[static_cast<size_t>(ins.dst)] = 1;
          (*defined)[static_cast<size_t>(ins.in)] = 1;
          const bool out_before = is_defined(ins.out);
          if (!WitnessSeq(c, ins.body_begin, defined, entered)) return false;
          // The engine re-reads `out` after each body run; it must be
          // (re)computed inside the body, not inherited from outside.
          if (out_before || !is_defined(ins.out)) return false;
          continue;
        }
      }
      if (!ok_reg(ins.dst)) return false;
      (*defined)[static_cast<size_t>(ins.dst)] = 1;
    }
    return true;
  }

  // --- moves ---------------------------------------------------------------

  // Replaces uses of `from` with `to` everywhere (operands + result).
  static void RewriteUses(Candidate* c, int from, int to) {
    for (auto& seq : c->seqs) {
      for (SInstr& si : seq) {
        if (si.ins.a == from) si.ins.a = to;
        if (si.ins.b == from) si.ins.b = to;
        if (si.ins.op == Op::kStar && si.ins.out == from) si.ins.out = to;
      }
    }
    if (c->result_vreg == from) c->result_vreg = to;
  }

  static void ClearSeqRecursive(Candidate* c, int s) {
    for (const SInstr& si : c->seqs[static_cast<size_t>(s)]) {
      if (si.ins.op == Op::kStar) ClearSeqRecursive(c, si.ins.body_begin);
    }
    c->seqs[static_cast<size_t>(s)].clear();
  }

  static bool SameOperands(const Instr& x, const Instr& y) {
    switch (x.op) {
      case Op::kTrue:
      case Op::kHasChild:
        return true;
      case Op::kLabel:
        return x.label == y.label;
      case Op::kNot:
        return x.a == y.a;
      case Op::kAnd:
      case Op::kOr:  // commutative
        return (x.a == y.a && x.b == y.b) || (x.a == y.b && x.b == y.a);
      case Op::kAndNot:
      case Op::kOrNot:
        return x.a == y.a && x.b == y.b;
      case Op::kAxis:
      case Op::kDescFill:
      case Op::kAncMark:
      case Op::kSibChain:
        return x.axis == y.axis && x.a == y.a;
      case Op::kWithin:
        return x.within.get() == y.within.get();
      case Op::kStar:
        return false;  // loops are never merged
    }
    return false;
  }

  // True iff `vreg` is defined strictly outside the subtree rooted at body
  // sequence `s` (i.e. in an ancestor sequence, by a real instruction —
  // star frontiers are owned by their body and never qualify).
  static bool InvariantFor(int vreg, int s, const Analysis& a) {
    if (vreg < 0) return true;
    const DefSite& d = a.def[static_cast<size_t>(vreg)];
    if (d.seq < 0 || d.idx < 0) return false;
    for (int anc = a.parent[static_cast<size_t>(s)]; anc >= 0;
         anc = a.parent[static_cast<size_t>(anc)]) {
      if (d.seq == anc) return true;
    }
    return false;
  }

  // True iff sequence `s` is `body` or nested (transitively) inside it.
  static bool InBodySubtree(int s, int body, const Analysis& a) {
    for (; s >= 0; s = a.parent[static_cast<size_t>(s)]) {
      if (s == body) return true;
    }
    return false;
  }

  // Enumerates every single-move successor of `c`, in deterministic order.
  static void EnumerateMoves(const Candidate& c, std::vector<Candidate>* out) {
    const Analysis a = Analyze(c);
    const int num_seqs = static_cast<int>(c.seqs.size());

    // fuse: kAnd/kOr with a kNot operand -> kAndNot/kOrNot.
    for (int s = 0; s < num_seqs; ++s) {
      const auto& seq = c.seqs[static_cast<size_t>(s)];
      for (int i = 0; i < static_cast<int>(seq.size()); ++i) {
        const Instr& ins = seq[static_cast<size_t>(i)].ins;
        if (ins.op != Op::kAnd && ins.op != Op::kOr) continue;
        for (const bool not_is_b : {true, false}) {
          const int not_vreg = not_is_b ? ins.b : ins.a;
          const int other = not_is_b ? ins.a : ins.b;
          const DefSite& d = a.def[static_cast<size_t>(not_vreg)];
          if (d.seq < 0 || d.idx < 0) continue;
          const Instr& def_ins =
              c.seqs[static_cast<size_t>(d.seq)][static_cast<size_t>(d.idx)]
                  .ins;
          if (def_ins.op != Op::kNot) continue;
          Candidate nc = c;
          Instr& target = nc.seqs[static_cast<size_t>(s)]
                              [static_cast<size_t>(i)]
                                  .ins;
          target.op = ins.op == Op::kAnd ? Op::kAndNot : Op::kOrNot;
          target.a = other;
          target.b = def_ins.a;
          ++nc.fused;
          out->push_back(std::move(nc));
        }
      }
    }

    // merge: later duplicate collapses onto the earlier same-seq instr.
    for (int s = 0; s < num_seqs; ++s) {
      const auto& seq = c.seqs[static_cast<size_t>(s)];
      for (int i = 0; i < static_cast<int>(seq.size()); ++i) {
        for (int j = i + 1; j < static_cast<int>(seq.size()); ++j) {
          const Instr& x = seq[static_cast<size_t>(i)].ins;
          const Instr& y = seq[static_cast<size_t>(j)].ins;
          if (x.op != y.op || !SameOperands(x, y)) continue;
          Candidate nc = c;
          auto& nseq = nc.seqs[static_cast<size_t>(s)];
          nseq[static_cast<size_t>(i)].execs =
              std::max(nseq[static_cast<size_t>(i)].execs,
                       nseq[static_cast<size_t>(j)].execs);
          const int dead_dst = y.dst;
          nseq.erase(nseq.begin() + j);
          RewriteUses(&nc, dead_dst, x.dst);
          ++nc.merged;
          out->push_back(std::move(nc));
        }
      }
    }

    // drop: unused destination (a dead star takes its body along).
    for (int s = 0; s < num_seqs; ++s) {
      const auto& seq = c.seqs[static_cast<size_t>(s)];
      for (int i = 0; i < static_cast<int>(seq.size()); ++i) {
        const Instr& ins = seq[static_cast<size_t>(i)].ins;
        if (a.uses[static_cast<size_t>(ins.dst)] != 0) continue;
        Candidate nc = c;
        if (ins.op == Op::kStar) ClearSeqRecursive(&nc, ins.body_begin);
        auto& nseq = nc.seqs[static_cast<size_t>(s)];
        nseq.erase(nseq.begin() + i);
        ++nc.dropped;
        out->push_back(std::move(nc));
      }
    }

    // hoist: loop-invariant body instruction moves before its owning star.
    for (int s = 0; s < num_seqs; ++s) {
      if (a.parent[static_cast<size_t>(s)] < 0) continue;
      const DefSite star = a.star_of[static_cast<size_t>(s)];
      const double star_execs =
          c.seqs[static_cast<size_t>(star.seq)][static_cast<size_t>(star.idx)]
              .execs;
      const auto& seq = c.seqs[static_cast<size_t>(s)];
      for (int i = 0; i < static_cast<int>(seq.size()); ++i) {
        const SInstr& si = seq[static_cast<size_t>(i)];
        if (si.ins.op == Op::kStar) continue;  // bodies move only whole
        if (!InvariantFor(si.ins.a, s, a) || !InvariantFor(si.ins.b, s, a)) {
          continue;
        }
        if (si.execs <= star_execs + kEps) continue;  // not an improvement
        Candidate nc = c;
        SInstr moved = nc.seqs[static_cast<size_t>(s)][static_cast<size_t>(i)];
        moved.execs = star_execs;
        auto& body = nc.seqs[static_cast<size_t>(s)];
        body.erase(body.begin() + i);
        auto& parent_seq = nc.seqs[static_cast<size_t>(star.seq)];
        parent_seq.insert(parent_seq.begin() + star.idx, std::move(moved));
        ++nc.hoisted;
        out->push_back(std::move(nc));
      }
    }

    // sink: the dual of hoist — an instruction consumed only inside one
    // star's body subtree moves to the top of that body. Recomputing it
    // per round is sound (operands are single-assignment and defined
    // before the star), and the static model never proposes it: body
    // instructions carry `star_round_estimate >= 1` times the outer
    // multiplier, so sinking only models as a win when a *measured*
    // profile shows the star converging in fewer rounds than the setup
    // work's own execution count — typically a star whose frontier is
    // empty on the served data, where the sunk setup then never runs.
    for (int s = 0; s < num_seqs; ++s) {
      const auto& seq = c.seqs[static_cast<size_t>(s)];
      for (int i = 0; i < static_cast<int>(seq.size()); ++i) {
        const SInstr& si = seq[static_cast<size_t>(i)];
        if (si.ins.op == Op::kStar) continue;  // bodies move only whole
        if (a.uses[static_cast<size_t>(si.ins.dst)] == 0) continue;
        for (int j = i + 1; j < static_cast<int>(seq.size()); ++j) {
          const Instr& star = seq[static_cast<size_t>(j)].ins;
          if (star.op != Op::kStar) continue;
          const int body = star.body_begin;
          bool all_inside = true;
          for (const int u : a.use_seqs[static_cast<size_t>(si.ins.dst)]) {
            if (!InBodySubtree(u, body, a)) {
              all_inside = false;
              break;
            }
          }
          if (!all_inside) continue;
          const auto& body_seq = c.seqs[static_cast<size_t>(body)];
          const double body_execs =
              body_seq.empty() ? 0.0 : body_seq.front().execs;
          if (body_execs + kEps >= si.execs) break;  // not an improvement
          Candidate nc = c;
          SInstr moved = nc.seqs[static_cast<size_t>(s)]
                             [static_cast<size_t>(i)];
          moved.execs = body_execs;
          auto& src = nc.seqs[static_cast<size_t>(s)];
          src.erase(src.begin() + i);
          auto& dst = nc.seqs[static_cast<size_t>(body)];
          dst.insert(dst.begin(), std::move(moved));
          ++nc.sunk;
          out->push_back(std::move(nc));
          break;  // the first containing star is the sink target
        }
      }
    }

    // collapse: a star whose body is the single bare axis step `out :=
    // axis-image(in)` IS the reflexive-transitive closure of that axis —
    // replace the whole loop with the one-pass closure kernel when the
    // axis has one (TransitiveClosureAxis). This is how *warm* PlanCache
    // entries (lowered before the closure ops existed, or whose body only
    // became bare through earlier merges/hoists) pick up the interval
    // kernels on profile-fed re-superoptimization.
    if (axis::ClosureCollapseEnabled()) {
      for (int s = 0; s < num_seqs; ++s) {
        const auto& seq = c.seqs[static_cast<size_t>(s)];
        for (int i = 0; i < static_cast<int>(seq.size()); ++i) {
          const SInstr& si = seq[static_cast<size_t>(i)];
          const Instr& star = si.ins;
          if (star.op != Op::kStar) continue;
          const auto& body = c.seqs[static_cast<size_t>(star.body_begin)];
          if (body.size() != 1) continue;
          const Instr& step = body.front().ins;
          Axis closure;
          if (step.op != Op::kAxis || step.a != star.in ||
              step.dst != star.out ||
              !TransitiveClosureAxis(step.axis, &closure)) {
            continue;
          }
          Candidate nc = c;
          auto& nbody = nc.seqs[static_cast<size_t>(star.body_begin)];
          nbody.clear();
          Instr& target =
              nc.seqs[static_cast<size_t>(s)][static_cast<size_t>(i)].ins;
          target = Instr{};
          target.op = ClosureOp(closure);
          target.axis = closure;
          target.dst = star.dst;
          target.a = star.a;
          ++nc.collapsed;
          out->push_back(std::move(nc));
        }
      }
    }
  }

  // --- relinearization -----------------------------------------------------

  static void CollectLiveSeqs(const Candidate& c, int s,
                              std::vector<int>* order) {
    order->push_back(s);
    for (const SInstr& si : c.seqs[static_cast<size_t>(s)]) {
      if (si.ins.op == Op::kStar) CollectLiveSeqs(c, si.ins.body_begin, order);
    }
  }

  static void RenumberSeq(const Candidate& c, int s, std::vector<int>* remap,
                          int* next) {
    for (const SInstr& si : c.seqs[static_cast<size_t>(s)]) {
      const Instr& ins = si.ins;
      auto assign = [&](int vreg) {
        if ((*remap)[static_cast<size_t>(vreg)] < 0) {
          (*remap)[static_cast<size_t>(vreg)] = (*next)++;
        }
      };
      assign(ins.dst);
      if (ins.op == Op::kStar) {
        assign(ins.in);
        RenumberSeq(c, ins.body_begin, remap, next);
      }
    }
  }

  // Converts the winning candidate back to flat pre-regalloc form: vregs
  // densely renumbered in definition order (the register allocator
  // CHECK-fails on gaps), sequences laid out main-first with star body
  // references rewritten to instruction ranges — mirroring the Lowerer's
  // linearization exactly.
  static Program::Lowered Relinearize(const Candidate& c) {
    std::vector<int> remap(static_cast<size_t>(c.num_vregs), -1);
    int next = 0;
    RenumberSeq(c, 0, &remap, &next);

    std::vector<int> order;  // live seqs, DFS preorder from main
    CollectLiveSeqs(c, 0, &order);
    std::vector<int> offset(c.seqs.size(), -1);
    int at = 0;
    for (const int s : order) {
      offset[static_cast<size_t>(s)] = at;
      at += static_cast<int>(c.seqs[static_cast<size_t>(s)].size());
    }

    Program::Lowered out;
    out.main_end = static_cast<int>(c.seqs[0].size());
    out.num_vregs = next;
    out.result_vreg = remap[static_cast<size_t>(c.result_vreg)];
    out.code.reserve(static_cast<size_t>(at));
    const auto mapped = [&remap](int vreg) {
      return vreg < 0 ? vreg : remap[static_cast<size_t>(vreg)];
    };
    for (const int s : order) {
      for (const SInstr& si : c.seqs[static_cast<size_t>(s)]) {
        Instr ins = si.ins;
        ins.dst = mapped(ins.dst);
        ins.a = mapped(ins.a);
        ins.b = mapped(ins.b);
        ins.in = mapped(ins.in);
        ins.out = mapped(ins.out);
        if (ins.op == Op::kStar) {
          const int body = ins.body_begin;
          ins.body_begin = offset[static_cast<size_t>(body)];
          ins.body_end =
              ins.body_begin +
              static_cast<int>(c.seqs[static_cast<size_t>(body)].size());
        }
        out.code.push_back(std::move(ins));
      }
    }
    return out;
  }
};

std::shared_ptr<const Program> Superoptimizer::Run(
    std::shared_ptr<const Program> base, const SuperoptOptions& options) {
  SuperoptMetrics& metrics = SuperoptMetrics::Get();
  metrics.programs.Inc();
  // Idempotent: an already-rewritten program is final.
  if (base->pre_superopt_ != nullptr) return base;

  Program::Lowered lowered = Program::LowerPlan(base->plan_);
  const std::vector<int64_t>* observed = options.observed_execs;
  if (observed != nullptr && observed->size() != lowered.code.size()) {
    observed = nullptr;
  }
  Candidate initial;
  initial.result_vreg = lowered.result_vreg;
  initial.num_vregs = lowered.num_vregs;
  Decompose(lowered.code, 0, lowered.main_end, 1.0, options, observed,
            &initial);
  initial.cost = Cost(initial);

  // Cost of the program as it stands. Normally identical to `initial`
  // (lowering is deterministic), but `base` may predate a lowering
  // improvement — e.g. it was cached before closure collapse existed, or
  // with the collapse toggled off — and then the fresh lowering is
  // already a win with zero moves. Acceptance is therefore judged against
  // the base program, not against the re-lowering.
  const std::vector<int64_t>* base_observed = options.observed_execs;
  if (base_observed != nullptr &&
      base_observed->size() != base->code_.size()) {
    base_observed = nullptr;
  }
  Candidate existing;
  existing.result_vreg = base->result_reg_;
  existing.num_vregs = base->num_regs_;
  Decompose(base->code_, 0, base->main_end_, 1.0, options, base_observed,
            &existing);
  const double base_cost = Cost(existing);

  std::vector<std::pair<std::string, Candidate>> beam;
  beam.emplace_back(Serialize(initial), initial);
  Candidate best = initial;
  int rounds = 0;
  int candidates_scored = 0;
  for (; rounds < options.max_rounds; ++rounds) {
    std::vector<Candidate> successors;
    for (const auto& entry : beam) {
      EnumerateMoves(entry.second, &successors);
    }
    std::vector<std::pair<std::string, Candidate>> next;
    std::set<std::string> seen;
    for (Candidate& nc : successors) {
      if (!Witness(nc)) {
        metrics.witness_rejects.Inc();
        continue;
      }
      ++candidates_scored;
      nc.cost = Cost(nc);
      std::string key = Serialize(nc);
      if (!seen.insert(key).second) continue;
      next.emplace_back(std::move(key), std::move(nc));
    }
    if (next.empty()) break;
    std::stable_sort(next.begin(), next.end(),
                     [](const auto& x, const auto& y) {
                       if (x.second.cost != y.second.cost) {
                         return x.second.cost < y.second.cost;
                       }
                       return x.first < y.first;
                     });
    if (static_cast<int>(next.size()) > options.beam_width) {
      next.resize(static_cast<size_t>(options.beam_width));
    }
    if (next.front().second.cost < best.cost - kEps) {
      best = next.front().second;
    }
    beam = std::move(next);
  }

  if (best.cost >= base_cost - kEps) {
    metrics.unchanged.Inc();
    TraceNote("superopt: no improving rewrite");
    return base;
  }
  Program::Lowered rewritten = Relinearize(best);
  rewritten.dag_hits = lowered.dag_hits;
  std::shared_ptr<Program> program = Program::Finish(
      base->plan_, base->stats_.ast_nodes, std::move(rewritten));
  std::string error;
  if (!VerifyProgram(*program, &error)) {
    // Belt and braces: the per-move witness should make this unreachable.
    metrics.witness_rejects.Inc();
    metrics.unchanged.Inc();
    TraceNote("superopt: rewrite failed final witness, kept original");
    return base;
  }
  program->superopt_stats_.rounds = rounds;
  program->superopt_stats_.candidates = candidates_scored;
  program->superopt_stats_.fused = best.fused;
  program->superopt_stats_.merged = best.merged;
  program->superopt_stats_.hoisted = best.hoisted;
  program->superopt_stats_.sunk = best.sunk;
  program->superopt_stats_.dropped = best.dropped;
  program->superopt_stats_.collapsed = best.collapsed;
  program->superopt_stats_.cost_before = base_cost;
  program->superopt_stats_.cost_after = best.cost;
  program->pre_superopt_ = std::move(base);
  metrics.optimized.Inc();
  TraceNote("superopt: program rewritten");
  return program;
}

std::shared_ptr<const Program> Superoptimize(
    std::shared_ptr<const Program> base, const SuperoptOptions& options) {
  XPTC_CHECK(base != nullptr);
  return Superoptimizer::Run(std::move(base), options);
}

namespace {

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

namespace {

void EstimateWalk(const Program& program, int begin, int end, double mult,
                  const SuperoptOptions& options,
                  const std::vector<int64_t>* observed,
                  std::vector<double>* out) {
  const std::vector<Instr>& code = program.code();
  for (int i = begin; i < end; ++i) {
    const Instr& ins = code[static_cast<size_t>(i)];
    const double execs =
        observed != nullptr
            ? static_cast<double>((*observed)[static_cast<size_t>(i)])
            : mult;
    (*out)[static_cast<size_t>(i)] = execs * OpWeight(ins.op);
    if (ins.op == Op::kStar) {
      EstimateWalk(program, ins.body_begin, ins.body_end,
                   mult * options.star_round_estimate, options, observed, out);
    }
  }
}

}  // namespace

std::vector<double> EstimateInstrCosts(const Program& program,
                                       const SuperoptOptions& options) {
  std::vector<double> out(program.code().size(), 0.0);
  const std::vector<int64_t>* observed = options.observed_execs;
  if (observed != nullptr && observed->size() != out.size()) {
    observed = nullptr;
  }
  EstimateWalk(program, 0, program.main_end(), 1.0, options, observed, &out);
  return out;
}

}  // namespace exec
}  // namespace xptc
