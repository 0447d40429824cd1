#include "tree/tree.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/alphabet.h"
#include "common/rng.h"
#include "tree/enumerate.h"
#include "tree/generate.h"
#include "tree/xml.h"

namespace xptc {
namespace {

TEST(TreeBuilderTest, SingleNode) {
  Alphabet alphabet;
  TreeBuilder builder;
  builder.Begin(alphabet.Intern("a"));
  builder.End();
  Result<Tree> tree = std::move(builder).Finish();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 1);
  EXPECT_TRUE(tree->IsRoot(0));
  EXPECT_TRUE(tree->IsLeaf(0));
  EXPECT_EQ(tree->SubtreeEnd(0), 1);
  EXPECT_EQ(tree->Depth(0), 0);
}

TEST(TreeBuilderTest, RejectsUnclosedNodes) {
  Alphabet alphabet;
  TreeBuilder builder;
  builder.Begin(alphabet.Intern("a"));
  Result<Tree> tree = std::move(builder).Finish();
  EXPECT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsInvalidArgument());
}

TEST(TreeBuilderTest, RejectsMultipleRoots) {
  Alphabet alphabet;
  TreeBuilder builder;
  builder.Leaf(alphabet.Intern("a"));
  builder.Leaf(alphabet.Intern("b"));
  Result<Tree> tree = std::move(builder).Finish();
  EXPECT_FALSE(tree.ok());
}

TEST(TreeTest, StructureOfSmallTree) {
  Alphabet alphabet;
  // a(b(d,e), c)
  Tree tree = Tree::FromTerm("a(b(d,e),c)", &alphabet).ValueOrDie();
  ASSERT_EQ(tree.size(), 5);
  const NodeId a = 0, b = 1, d = 2, e = 3, c = 4;
  EXPECT_EQ(tree.Label(a), alphabet.Find("a"));
  EXPECT_EQ(tree.Parent(b), a);
  EXPECT_EQ(tree.Parent(d), b);
  EXPECT_EQ(tree.Parent(c), a);
  EXPECT_EQ(tree.FirstChild(a), b);
  EXPECT_EQ(tree.LastChild(a), c);
  EXPECT_EQ(tree.NextSibling(b), c);
  EXPECT_EQ(tree.PrevSibling(c), b);
  EXPECT_EQ(tree.NextSibling(d), e);
  EXPECT_EQ(tree.SubtreeEnd(b), 4);
  EXPECT_EQ(tree.SubtreeSize(b), 3);
  EXPECT_EQ(tree.Depth(d), 2);
  EXPECT_TRUE(tree.IsStrictDescendant(e, a));
  EXPECT_TRUE(tree.IsStrictDescendant(e, b));
  EXPECT_FALSE(tree.IsStrictDescendant(c, b));
  EXPECT_TRUE(tree.InSubtree(b, b));
  EXPECT_EQ(tree.ChildCount(a), 2);
  EXPECT_EQ(tree.Height(), 2);
}

TEST(TreeTest, LowestCommonAncestor) {
  Alphabet alphabet;
  Tree tree = Tree::FromTerm("a(b(d,e),c(f))", &alphabet).ValueOrDie();
  const NodeId a = 0, b = 1, d = 2, e = 3, c = 4, f = 5;
  EXPECT_EQ(tree.LowestCommonAncestor(d, e), b);
  EXPECT_EQ(tree.LowestCommonAncestor(e, d), b);
  EXPECT_EQ(tree.LowestCommonAncestor(d, f), a);
  EXPECT_EQ(tree.LowestCommonAncestor(b, d), b);  // ancestor of the other
  EXPECT_EQ(tree.LowestCommonAncestor(d, b), b);
  EXPECT_EQ(tree.LowestCommonAncestor(c, c), c);  // reflexive
  EXPECT_EQ(tree.LowestCommonAncestor(a, f), a);
}

TEST(TreeTest, DocumentOrderIsPreorder) {
  Alphabet alphabet;
  Tree tree = Tree::FromTerm("a(b(d),c)", &alphabet).ValueOrDie();
  EXPECT_EQ(tree.CompareDocumentOrder(0, 1), -1);
  EXPECT_EQ(tree.CompareDocumentOrder(3, 2), 1);
  EXPECT_EQ(tree.CompareDocumentOrder(2, 2), 0);
}

TEST(TreeTest, TermRoundTrip) {
  Alphabet alphabet;
  const std::string term = "a(b(d,e),c(f),g)";
  Tree tree = Tree::FromTerm(term, &alphabet).ValueOrDie();
  EXPECT_EQ(tree.ToTerm(alphabet), term);
}

TEST(TreeTest, FromTermRejectsGarbage) {
  Alphabet alphabet;
  EXPECT_FALSE(Tree::FromTerm("", &alphabet).ok());
  EXPECT_FALSE(Tree::FromTerm("a(b", &alphabet).ok());
  EXPECT_FALSE(Tree::FromTerm("a)b(", &alphabet).ok());
  EXPECT_FALSE(Tree::FromTerm("a(b,)", &alphabet).ok());
  EXPECT_FALSE(Tree::FromTerm("a b", &alphabet).ok());
}

TEST(TreeTest, ExtractSubtree) {
  Alphabet alphabet;
  Tree tree = Tree::FromTerm("a(b(d,e),c)", &alphabet).ValueOrDie();
  Tree sub = tree.ExtractSubtree(1);  // subtree of b
  ASSERT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.ToTerm(alphabet), "b(d,e)");
  EXPECT_TRUE(sub.IsRoot(0));
  EXPECT_EQ(sub.NextSibling(0), kNoNode);
  EXPECT_EQ(sub.PrevSibling(0), kNoNode);
  EXPECT_EQ(sub.Depth(0), 0);
  EXPECT_EQ(sub.Depth(1), 1);
  EXPECT_EQ(sub.SubtreeEnd(0), 3);
}

TEST(TreeTest, ExtractSubtreeOfRootIsIdentity) {
  Alphabet alphabet;
  Tree tree = Tree::FromTerm("a(b(d,e),c)", &alphabet).ValueOrDie();
  EXPECT_EQ(tree.ExtractSubtree(0), tree);
}

TEST(TreeTest, RelabelNode) {
  Alphabet alphabet;
  Tree tree = Tree::FromTerm("a(b,c)", &alphabet).ValueOrDie();
  const Symbol z = alphabet.Intern("z");
  Tree relabeled = tree.RelabelNode(1, z);
  EXPECT_EQ(relabeled.Label(1), z);
  EXPECT_EQ(relabeled.Label(0), tree.Label(0));
  EXPECT_EQ(relabeled.ToTerm(alphabet), "a(z,c)");
  // Original untouched.
  EXPECT_EQ(tree.ToTerm(alphabet), "a(b,c)");
}

bool WordBit(const uint64_t* words, int i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

// The child-slot columns and the accessors derived from them, checked
// against the parent and sibling links: every parent's slots hold exactly
// its children in sibling order, the slot-of column inverts the slot
// column (the root maps to -1), the last-slot and has-child bits mark the
// runs, the padding past the last slot reads kNoNode, and FirstChild,
// IsLeaf, ChildCount, LastChild, ForEachChild, ChildrenOf and SubtreeSize
// equal a sibling-link/SubtreeEnd walk.
void ExpectChildSlotsMatchLinks(const Tree& tree) {
  const int n = tree.size();
  const int slots = n - 1;
  ASSERT_EQ(tree.SlotBegin(0), 0);
  ASSERT_EQ(tree.SlotBegin(n), slots);
  const NodeId* slot_child = tree.SlotChildData();
  const int* slot_of = tree.SlotOfData();
  EXPECT_EQ(slot_of[0], -1);
  // First children from the links alone: the non-root nodes without a
  // previous sibling.
  std::vector<NodeId> first_child(static_cast<size_t>(n), kNoNode);
  for (NodeId c = 1; c < n; ++c) {
    if (tree.PrevSibling(c) == kNoNode) first_child[tree.Parent(c)] = c;
  }
  for (NodeId v = 0; v < n; ++v) {
    std::vector<NodeId> children;
    int size = 1;
    for (NodeId c = first_child[v]; c != kNoNode; c = tree.NextSibling(c)) {
      ASSERT_EQ(tree.Parent(c), v);
      children.push_back(c);
      size += tree.SubtreeEnd(c) - c;
    }
    const int begin = tree.SlotBegin(v);
    const int end = tree.SlotBegin(v + 1);
    ASSERT_EQ(std::vector<NodeId>(slot_child + begin, slot_child + end),
              children)
        << "node " << v;
    std::vector<NodeId> visited;
    tree.ForEachChild(v, [&](NodeId c) { visited.push_back(c); });
    EXPECT_EQ(visited, children) << "node " << v;
    EXPECT_EQ(tree.ChildrenOf(v), children) << "node " << v;
    EXPECT_EQ(tree.FirstChild(v), first_child[v]) << "node " << v;
    EXPECT_EQ(tree.IsLeaf(v), children.empty()) << "node " << v;
    EXPECT_EQ(tree.ChildCount(v), static_cast<int>(children.size()));
    EXPECT_EQ(tree.LastChild(v), children.empty() ? kNoNode : children.back());
    EXPECT_EQ(tree.SubtreeSize(v), size) << "node " << v;
    EXPECT_EQ(WordBit(tree.HasChildWords(), v), !children.empty());
    for (int s = begin; s < end; ++s) {
      EXPECT_EQ(slot_of[slot_child[s]], s) << "node " << v << " slot " << s;
      EXPECT_EQ(WordBit(tree.LastSlotWords(), s), s == end - 1)
          << "node " << v << " slot " << s;
    }
  }
  for (int s = slots; s % 64 != 0; ++s) {
    EXPECT_EQ(slot_child[s], kNoNode) << "padding slot " << s;
    EXPECT_FALSE(WordBit(tree.LastSlotWords(), s)) << "padding slot " << s;
  }
}

TEST(TreeTest, ChildSlotsMatchLinksOnEveryConstructor) {
  Alphabet alphabet;
  const Tree term =
      Tree::FromTerm("a(b(d,e,f(g,h)),c,i(j(k),l))", &alphabet).ValueOrDie();
  ExpectChildSlotsMatchLinks(term);
  ExpectChildSlotsMatchLinks(Tree::FromTerm("a", &alphabet).ValueOrDie());
  const Tree xml =
      ParseXml("<a><b><c/><d>text<e/></d></b><f/><g><h/></g></a>", &alphabet)
          .ValueOrDie();
  ExpectChildSlotsMatchLinks(xml);
  ExpectChildSlotsMatchLinks(term.ExtractSubtree(1));
  ExpectChildSlotsMatchLinks(term.ExtractSubtree(8));
  ExpectChildSlotsMatchLinks(term.RelabelNode(2, alphabet.Intern("z")));
  // Multi-word slot columns: every generated shape, plus subtrees and a
  // relabelling of the largest, and its XML round trip.
  Rng rng(31);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  for (TreeShape shape :
       {TreeShape::kUniformRecursive, TreeShape::kChain, TreeShape::kStar,
        TreeShape::kFullBinary, TreeShape::kCaterpillar}) {
    TreeGenOptions options;
    options.num_nodes = 700;
    options.shape = shape;
    const Tree tree = GenerateTree(options, labels, &rng);
    ExpectChildSlotsMatchLinks(tree);
    ExpectChildSlotsMatchLinks(tree.ExtractSubtree(tree.size() / 5));
    ExpectChildSlotsMatchLinks(tree.RelabelNode(tree.size() / 2, labels[0]));
    ExpectChildSlotsMatchLinks(
        ParseXml(WriteXml(tree, alphabet), &alphabet).ValueOrDie());
  }
}

TEST(GenerateTest, ShapesHaveRequestedSizes) {
  Alphabet alphabet;
  Rng rng(7);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  for (TreeShape shape :
       {TreeShape::kUniformRecursive, TreeShape::kChain, TreeShape::kStar,
        TreeShape::kFullBinary, TreeShape::kFullKAry, TreeShape::kComb,
        TreeShape::kCaterpillar}) {
    for (int n : {1, 2, 7, 33}) {
      TreeGenOptions options;
      options.num_nodes = n;
      options.shape = shape;
      Tree tree = GenerateTree(options, labels, &rng);
      EXPECT_EQ(tree.size(), n) << TreeShapeToString(shape);
      // Preorder/subtree invariants hold.
      EXPECT_EQ(tree.SubtreeEnd(0), n);
      for (NodeId v = 1; v < n; ++v) {
        EXPECT_LT(tree.Parent(v), v);
        EXPECT_LE(tree.SubtreeEnd(v), tree.SubtreeEnd(tree.Parent(v)));
      }
    }
  }
}

TEST(GenerateTest, ChainAndStarShapes) {
  Alphabet alphabet;
  Rng rng(11);
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  TreeGenOptions options;
  options.num_nodes = 10;
  options.shape = TreeShape::kChain;
  Tree chain = GenerateTree(options, labels, &rng);
  EXPECT_EQ(chain.Height(), 9);
  options.shape = TreeShape::kStar;
  Tree star = GenerateTree(options, labels, &rng);
  EXPECT_EQ(star.Height(), 1);
  EXPECT_EQ(star.ChildCount(0), 9);
}

TEST(GenerateTest, DeterministicGivenSeed) {
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 3);
  TreeGenOptions options;
  options.num_nodes = 50;
  Rng rng1(123), rng2(123);
  EXPECT_EQ(GenerateTree(options, labels, &rng1),
            GenerateTree(options, labels, &rng2));
}

TEST(EnumerateTest, CountsMatchCatalanTimesLabels) {
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  // #trees with n nodes over k labels = Catalan(n-1) * k^n.
  const int64_t expected[] = {0, 1 * 2, 1 * 4, 2 * 8, 5 * 16, 14 * 32};
  for (int n = 1; n <= 5; ++n) {
    int64_t seen = 0;
    const int64_t count = EnumerateTreesOfSize(
        n, labels, [&](const Tree& tree) {
          EXPECT_EQ(tree.size(), n);
          ++seen;
        });
    EXPECT_EQ(count, expected[n]);
    EXPECT_EQ(seen, expected[n]);
  }
}

TEST(EnumerateTest, TreesAreDistinct) {
  Alphabet alphabet;
  const std::vector<Symbol> labels = DefaultLabels(&alphabet, 2);
  std::vector<std::string> terms;
  EnumerateTrees(4, labels,
                 [&](const Tree& tree) { terms.push_back(tree.ToTerm(alphabet)); });
  std::sort(terms.begin(), terms.end());
  EXPECT_EQ(std::unique(terms.begin(), terms.end()), terms.end());
}

TEST(EnumerateTest, CatalanHelper) {
  EXPECT_EQ(CountTreeShapes(1), 1);
  EXPECT_EQ(CountTreeShapes(2), 1);
  EXPECT_EQ(CountTreeShapes(3), 2);
  EXPECT_EQ(CountTreeShapes(4), 5);
  EXPECT_EQ(CountTreeShapes(5), 14);
  EXPECT_EQ(CountTreeShapes(6), 42);
  EXPECT_EQ(CountTreeShapes(7), 132);
}

}  // namespace
}  // namespace xptc
