#ifndef XPTC_TREE_TREE_H_
#define XPTC_TREE_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/check.h"
#include "common/result.h"
#include "common/status.h"

namespace xptc {

/// Node identifier within a `Tree`: the node's preorder (document-order)
/// index, 0 for the root. Preorder ids make descendant tests O(1): the
/// subtree of `v` occupies the contiguous id range [v, SubtreeEnd(v)).
using NodeId = int;

inline constexpr NodeId kNoNode = -1;

/// A finite sibling-ordered node-labelled tree — the paper's abstraction of
/// an XML document. Immutable after construction (build via `TreeBuilder`,
/// `Tree::FromTerm` or `ParseXml`).
///
/// Structure is stored as flat arrays indexed by preorder id, giving O(1)
/// navigation along all primitive steps (parent, first/last child,
/// next/previous sibling) and O(1) descendant tests.
class Tree {
 public:
  /// Number of nodes (>= 1 for any constructed tree; a default-constructed
  /// Tree is empty and only useful as a placeholder).
  int size() const { return static_cast<int>(label_.size()); }
  bool empty() const { return label_.empty(); }

  NodeId root() const { return 0; }

  Symbol Label(NodeId v) const { return label_[Index(v)]; }
  NodeId Parent(NodeId v) const { return parent_[Index(v)]; }
  NodeId FirstChild(NodeId v) const {
    const int begin = slot_begin_[Index(v)];
    if (begin == slot_begin_[Index(v) + 1]) return kNoNode;
    return slot_child_[static_cast<size_t>(begin)];
  }
  NodeId LastChild(NodeId v) const {
    const int end = slot_begin_[Index(v) + 1];
    if (end == slot_begin_[Index(v)]) return kNoNode;
    return slot_child_[static_cast<size_t>(end - 1)];
  }
  NodeId NextSibling(NodeId v) const { return next_sibling_[Index(v)]; }
  NodeId PrevSibling(NodeId v) const { return prev_sibling_[Index(v)]; }
  int Depth(NodeId v) const { return depth_[Index(v)]; }

  // Read-only preorder column spans (`size()` entries each), for streaming
  // kernels that scan a whole id window sequentially — the density-adaptive
  // axis kernels read these instead of per-node accessor hops. The spans stay valid and immutable for the tree's
  // lifetime; entries are exactly what the per-node accessors return
  // (`kNoNode` sentinels included), so bounds discipline is the caller's.
  const Symbol* LabelData() const { return label_.data(); }
  const NodeId* ParentData() const { return parent_.data(); }
  const NodeId* NextSiblingData() const { return next_sibling_.data(); }
  const NodeId* PrevSiblingData() const { return prev_sibling_.data(); }
  const NodeId* SubtreeEndData() const { return subtree_end_.data(); }

  // Child slots: the non-root nodes grouped by parent — parents in
  // preorder, each parent's children in sibling order. The children of `v`
  // occupy slots [SlotBegin(v), SlotBegin(v + 1)), so a subtree window
  // [lo, hi) owns the contiguous slot range [SlotBegin(lo), SlotBegin(hi)).
  // The parent-image kernel gathers source bits through this column, ORs
  // each parent's run of slots together and compacts the runs onto the
  // parents; the sibling-closure kernels scan each run and gather the
  // result back to preorder through `SlotOfData()` (xpath/axis_kernels.cc).
  //
  // `SlotBegin` takes v in [0, size()]. `SlotChildData()` holds
  // `size() - 1` child ids padded with `kNoNode` to a whole number of
  // 64-slot words, so word-at-a-time gathers never read past it.
  // `SlotOfData()` is its inverse, one entry per node: the slot holding
  // `v`, -1 for the root.
  // `LastSlotWords()` has bit s set iff slot s is its parent's last child
  // slot (one word per 64 padded slots); `HasChildWords()` has bit v set
  // iff `v` has a child (one word per 64 nodes).
  int SlotBegin(NodeId v) const {
    XPTC_DCHECK(v >= 0 && v <= size());
    return slot_begin_[static_cast<size_t>(v)];
  }
  const NodeId* SlotChildData() const { return slot_child_.data(); }
  const int* SlotOfData() const { return slot_of_.data(); }
  const uint64_t* LastSlotWords() const { return last_slot_.data(); }
  const uint64_t* HasChildWords() const { return has_child_.data(); }

  /// One past the last preorder id in the subtree of `v`.
  NodeId SubtreeEnd(NodeId v) const { return subtree_end_[Index(v)]; }
  /// Number of nodes in the subtree rooted at `v` (including `v`).
  int SubtreeSize(NodeId v) const { return SubtreeEnd(v) - v; }

  bool IsRoot(NodeId v) const { return Parent(v) == kNoNode; }
  bool IsLeaf(NodeId v) const { return ChildCount(v) == 0; }
  bool IsFirstSibling(NodeId v) const { return PrevSibling(v) == kNoNode; }
  bool IsLastSibling(NodeId v) const { return NextSibling(v) == kNoNode; }

  /// True iff `descendant` is a strict descendant of `ancestor`.
  bool IsStrictDescendant(NodeId descendant, NodeId ancestor) const {
    return descendant > ancestor && descendant < SubtreeEnd(ancestor);
  }
  /// True iff `v` lies in the subtree of `ancestor` (v == ancestor counts).
  bool InSubtree(NodeId v, NodeId ancestor) const {
    return v >= ancestor && v < SubtreeEnd(ancestor);
  }

  /// Number of children, O(1) (the length of `v`'s child-slot run — this
  /// is called from hot evaluator loops).
  int ChildCount(NodeId v) const {
    return slot_begin_[Index(v) + 1] - slot_begin_[Index(v)];
  }

  /// Invokes `fn(NodeId child)` for each child of `v` in sibling order.
  /// The allocation-free alternative to `ChildrenOf` for hot paths.
  template <typename Fn>
  void ForEachChild(NodeId v, Fn&& fn) const {
    for (int s = slot_begin_[Index(v)]; s < slot_begin_[Index(v) + 1]; ++s) {
      fn(slot_child_[static_cast<size_t>(s)]);
    }
  }

  std::vector<NodeId> ChildrenOf(NodeId v) const {
    return std::vector<NodeId>(
        slot_child_.begin() + slot_begin_[Index(v)],
        slot_child_.begin() + slot_begin_[Index(v) + 1]);
  }

  /// Maximum depth over all nodes (root has depth 0).
  int Height() const;

  /// Lowest common ancestor of two nodes (possibly one of them).
  NodeId LowestCommonAncestor(NodeId a, NodeId b) const;

  /// Document-order comparison: -1 if a precedes b, 0 if equal, +1 after.
  /// Preorder ids *are* document order, so this is an id comparison —
  /// provided for API clarity.
  int CompareDocumentOrder(NodeId a, NodeId b) const {
    return a < b ? -1 : (a == b ? 0 : 1);
  }

  /// Returns a standalone copy of the subtree rooted at `v` (node `v`
  /// becomes the root, ids are shifted to start at 0). This is the model
  /// `T|v` used by the `W` operator and by subtree runs of nested automata.
  Tree ExtractSubtree(NodeId v) const;

  /// Returns a copy of this tree with the label of `node` replaced.
  /// Used to mark a node for unary-query automata.
  Tree RelabelNode(NodeId node, Symbol label) const;

  /// Parses the compact term notation `a(b, c(d))` (labels are identifiers;
  /// whitespace ignored). Interns labels into `*alphabet`.
  static Result<Tree> FromTerm(const std::string& term, Alphabet* alphabet);

  /// Serializes to the compact term notation parsed by `FromTerm`.
  std::string ToTerm(const Alphabet& alphabet) const;

  bool operator==(const Tree& other) const {
    // Structure is determined by labels + parents + sibling order; all the
    // other arrays are derived, so comparing two suffices with next_sibling.
    return label_ == other.label_ && parent_ == other.parent_ &&
           next_sibling_ == other.next_sibling_;
  }
  bool operator!=(const Tree& other) const { return !(*this == other); }

 private:
  friend class TreeBuilder;

  size_t Index(NodeId v) const {
    XPTC_DCHECK(v >= 0 && static_cast<size_t>(v) < label_.size());
    return static_cast<size_t>(v);
  }

  // Derives the child-slot columns from `parent_` (preorder, so children
  // of one parent arrive in sibling order).
  void BuildChildSlots();

  std::vector<Symbol> label_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> next_sibling_;
  std::vector<NodeId> prev_sibling_;
  std::vector<int> depth_;
  std::vector<NodeId> subtree_end_;
  std::vector<int> slot_begin_;
  std::vector<NodeId> slot_child_;
  std::vector<int> slot_of_;
  std::vector<uint64_t> last_slot_;
  std::vector<uint64_t> has_child_;
};

/// Incremental preorder construction of a `Tree`:
///
///   TreeBuilder b;
///   b.Begin(a); b.Begin(bq); b.End(); b.End();
///   Tree t = std::move(b).Finish().ValueOrDie();
///
/// `Begin` opens a node (as child of the innermost open node), `End` closes
/// the innermost open node. `Finish` validates that exactly one root was
/// built and all nodes are closed.
class TreeBuilder {
 public:
  TreeBuilder() = default;

  /// Opens a new node labelled `label`; returns its id.
  NodeId Begin(Symbol label);

  /// Closes the innermost open node. Aborts if none is open.
  void End();

  /// Convenience: Begin + End.
  NodeId Leaf(Symbol label) {
    const NodeId id = Begin(label);
    End();
    return id;
  }

  /// Finalizes the tree. Fails if zero or multiple roots were built or a
  /// node is still open.
  Result<Tree> Finish() &&;

 private:
  // An open node and its last child so far (kNoNode before the first).
  struct OpenNode {
    NodeId id;
    NodeId last_child;
  };

  Tree tree_;
  std::vector<OpenNode> open_;
  int root_count_ = 0;
};

}  // namespace xptc

#endif  // XPTC_TREE_TREE_H_
