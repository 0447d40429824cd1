#include "tree/tree.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace xptc {

int Tree::Height() const {
  int height = 0;
  for (int v = 0; v < size(); ++v) height = std::max(height, depth_[Index(v)]);
  return height;
}

NodeId Tree::LowestCommonAncestor(NodeId a, NodeId b) const {
  // Walk the deeper node up until the subtree-interval test succeeds;
  // O(depth) with O(1) containment checks.
  while (!InSubtree(b, a)) a = Parent(a);
  return a;
}

Tree Tree::ExtractSubtree(NodeId v) const {
  const NodeId end = SubtreeEnd(v);
  const int n = end - v;
  Tree out;
  out.label_.resize(static_cast<size_t>(n));
  out.parent_.resize(static_cast<size_t>(n));
  out.next_sibling_.resize(static_cast<size_t>(n));
  out.prev_sibling_.resize(static_cast<size_t>(n));
  out.depth_.resize(static_cast<size_t>(n));
  out.subtree_end_.resize(static_cast<size_t>(n));
  auto remap = [v](NodeId id) { return id == kNoNode ? kNoNode : id - v; };
  const int base_depth = Depth(v);
  for (NodeId w = v; w < end; ++w) {
    const size_t i = static_cast<size_t>(w - v);
    out.label_[i] = Label(w);
    out.depth_[i] = Depth(w) - base_depth;
    out.subtree_end_[i] = SubtreeEnd(w) - v;
    if (w == v) {
      // `v` becomes a root: detach it from its context.
      out.parent_[i] = kNoNode;
      out.next_sibling_[i] = kNoNode;
      out.prev_sibling_[i] = kNoNode;
    } else {
      // Parents and siblings of strict descendants of `v` stay inside the
      // subtree, so plain remapping is safe.
      out.parent_[i] = remap(Parent(w));
      out.next_sibling_[i] = remap(NextSibling(w));
      out.prev_sibling_[i] = remap(PrevSibling(w));
    }
  }
  out.BuildChildSlots();
  return out;
}

void Tree::BuildChildSlots() {
  const size_t n = label_.size();
  const size_t slots = n == 0 ? 0 : n - 1;
  const size_t padded = (slots + 63) & ~size_t{63};
  // Counting sort by parent: count each parent's children into
  // slot_begin_[p + 1], prefix-sum, then place children in preorder using
  // slot_begin_[p] as p's cursor (recording each child's slot in
  // slot_of_). Placement leaves slot_begin_[p] at p's end, which is
  // p + 1's begin, so one shift restores the begins.
  slot_begin_.assign(n + 1, 0);
  for (size_t v = 1; v < n; ++v) {
    ++slot_begin_[static_cast<size_t>(parent_[v]) + 1];
  }
  for (size_t v = 1; v <= n; ++v) slot_begin_[v] += slot_begin_[v - 1];
  slot_child_.assign(padded, kNoNode);
  slot_of_.assign(n, -1);
  for (size_t v = 1; v < n; ++v) {
    const int slot = slot_begin_[static_cast<size_t>(parent_[v])]++;
    slot_child_[static_cast<size_t>(slot)] = static_cast<NodeId>(v);
    slot_of_[v] = slot;
  }
  if (n > 0) {
    std::copy_backward(slot_begin_.begin(), slot_begin_.end() - 1,
                       slot_begin_.end());
    slot_begin_[0] = 0;
  }
  last_slot_.assign(padded / 64, 0);
  has_child_.assign((n + 63) / 64, 0);
  for (size_t v = 0; v < n; ++v) {
    const int end = slot_begin_[v + 1];
    if (end == slot_begin_[v]) continue;
    const size_t last = static_cast<size_t>(end - 1);
    last_slot_[last >> 6] |= uint64_t{1} << (last & 63);
    has_child_[v >> 6] |= uint64_t{1} << (v & 63);
  }
}

Tree Tree::RelabelNode(NodeId node, Symbol label) const {
  Tree out = *this;
  out.label_[out.Index(node)] = label;
  return out;
}

namespace {

// Recursive-descent parser for the `a(b, c(d))` term notation.
class TermParser {
 public:
  TermParser(const std::string& text, Alphabet* alphabet, TreeBuilder* builder)
      : text_(text), alphabet_(alphabet), builder_(builder) {}

  Status ParseRoot() {
    XPTC_RETURN_NOT_OK(ParseNode());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters in term at position " +
                                     std::to_string(pos_));
    }
    return Status::OK();
  }

 private:
  // One recursion level per nesting level of the term; without a cap a
  // pathological `a(a(a(...` input overflows the stack instead of failing
  // with Status (found by the parser-facing fuzzer). 8192 comfortably
  // covers every legitimate corpus tree while staying far below stack
  // limits.
  static constexpr int kMaxNestingDepth = 8192;

  Status ParseNode() {
    if (++depth_ > kMaxNestingDepth) {
      --depth_;
      return Status::InvalidArgument("term nesting too deep at position " +
                                     std::to_string(pos_) + " (limit " +
                                     std::to_string(kMaxNestingDepth) + ")");
    }
    const Status status = ParseNodeInner();
    --depth_;
    return status;
  }

  Status ParseNodeInner() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() && (std::isalnum(static_cast<unsigned char>(
                                       text_[pos_])) ||
                                   text_[pos_] == '_' || text_[pos_] == '#' ||
                                   text_[pos_] == '-' || text_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected label at position " +
                                     std::to_string(start));
    }
    builder_->Begin(alphabet_->Intern(text_.substr(start, pos_ - start)));
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '(') {
      ++pos_;  // consume '('
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ')') {
        ++pos_;
      } else {
        for (;;) {
          XPTC_RETURN_NOT_OK(ParseNode());
          SkipSpace();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (pos_ < text_.size() && text_[pos_] == ')') {
            ++pos_;
            break;
          }
          return Status::InvalidArgument("expected ',' or ')' at position " +
                                         std::to_string(pos_));
        }
      }
    }
    builder_->End();
    return Status::OK();
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  Alphabet* alphabet_;
  TreeBuilder* builder_;
  size_t pos_ = 0;
  int depth_ = 0;
};

void WriteTerm(const Tree& tree, const Alphabet& alphabet, NodeId v,
               std::ostringstream* out) {
  *out << alphabet.Name(tree.Label(v));
  if (!tree.IsLeaf(v)) {
    *out << '(';
    bool first = true;
    for (NodeId c = tree.FirstChild(v); c != kNoNode; c = tree.NextSibling(c)) {
      if (!first) *out << ',';
      first = false;
      WriteTerm(tree, alphabet, c, out);
    }
    *out << ')';
  }
}

}  // namespace

Result<Tree> Tree::FromTerm(const std::string& term, Alphabet* alphabet) {
  TreeBuilder builder;
  TermParser parser(term, alphabet, &builder);
  XPTC_RETURN_NOT_OK(parser.ParseRoot());
  return std::move(builder).Finish();
}

std::string Tree::ToTerm(const Alphabet& alphabet) const {
  if (empty()) return "";
  std::ostringstream out;
  WriteTerm(*this, alphabet, root(), &out);
  return out.str();
}

NodeId TreeBuilder::Begin(Symbol label) {
  const NodeId id = static_cast<NodeId>(tree_.label_.size());
  const NodeId parent = open_.empty() ? kNoNode : open_.back().id;
  tree_.label_.push_back(label);
  tree_.parent_.push_back(parent);
  tree_.next_sibling_.push_back(kNoNode);
  tree_.prev_sibling_.push_back(kNoNode);
  tree_.subtree_end_.push_back(kNoNode);
  if (parent == kNoNode) {
    tree_.depth_.push_back(0);
    ++root_count_;
  } else {
    tree_.depth_.push_back(tree_.depth_[static_cast<size_t>(parent)] + 1);
    const NodeId prev = open_.back().last_child;
    if (prev != kNoNode) {
      tree_.next_sibling_[static_cast<size_t>(prev)] = id;
      tree_.prev_sibling_[static_cast<size_t>(id)] = prev;
    }
    open_.back().last_child = id;
  }
  open_.push_back({id, kNoNode});
  return id;
}

void TreeBuilder::End() {
  XPTC_CHECK(!open_.empty()) << "TreeBuilder::End with no open node";
  const NodeId id = open_.back().id;
  open_.pop_back();
  tree_.subtree_end_[static_cast<size_t>(id)] =
      static_cast<NodeId>(tree_.label_.size());
}

Result<Tree> TreeBuilder::Finish() && {
  if (!open_.empty()) {
    return Status::InvalidArgument("TreeBuilder::Finish with open nodes");
  }
  if (root_count_ != 1) {
    return Status::InvalidArgument("tree must have exactly one root, got " +
                                   std::to_string(root_count_));
  }
  tree_.BuildChildSlots();
  return std::move(tree_);
}

}  // namespace xptc
