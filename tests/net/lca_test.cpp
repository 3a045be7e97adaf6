#include "net/lca.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace rmrn::net {
namespace {

// Same fixture as multicast_tree_test:
//
//          0
//         1   2        (children of 0)
//        3 4   5       (3, 4 under 1; 5 under 2)
//       6     7 8      (6 under 3; 7, 8 under 5)
MulticastTree fixtureTree() {
  std::vector<NodeId> parent(9, kInvalidNode);
  parent[1] = 0;
  parent[2] = 0;
  parent[3] = 1;
  parent[4] = 1;
  parent[5] = 2;
  parent[6] = 3;
  parent[7] = 5;
  parent[8] = 5;
  return MulticastTree(0, std::move(parent));
}

TEST(LcaIndexTest, MatchesNaiveOnFixture) {
  const MulticastTree tree = fixtureTree();
  const LcaIndex index(tree);
  for (const NodeId a : tree.members()) {
    for (const NodeId b : tree.members()) {
      EXPECT_EQ(index.lca(a, b), tree.firstCommonRouter(a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(LcaIndexTest, LcaDepth) {
  const MulticastTree tree = fixtureTree();
  const LcaIndex index(tree);
  EXPECT_EQ(index.lcaDepth(6, 4), 1u);
  EXPECT_EQ(index.lcaDepth(7, 8), 2u);
  EXPECT_EQ(index.lcaDepth(6, 7), 0u);
}

TEST(LcaIndexTest, AncestorWalk) {
  const MulticastTree tree = fixtureTree();
  const LcaIndex index(tree);
  EXPECT_EQ(index.ancestor(6, 0), 6u);
  EXPECT_EQ(index.ancestor(6, 1), 3u);
  EXPECT_EQ(index.ancestor(6, 2), 1u);
  EXPECT_EQ(index.ancestor(6, 3), 0u);
  EXPECT_EQ(index.ancestor(6, 4), kInvalidNode);
  EXPECT_EQ(index.ancestor(0, 1), kInvalidNode);
}

TEST(LcaIndexTest, ThrowsOnNonMember) {
  std::vector<NodeId> parent(5, kInvalidNode);
  parent[1] = 0;
  const MulticastTree tree(0, std::move(parent));
  const LcaIndex index(tree);
  EXPECT_THROW((void)index.lca(1, 3), std::invalid_argument);
  EXPECT_THROW((void)index.ancestor(4, 1), std::invalid_argument);
}

TEST(LcaIndexTest, SingleNodeTree) {
  std::vector<NodeId> parent(1, kInvalidNode);
  const MulticastTree tree(0, std::move(parent));
  const LcaIndex index(tree);
  EXPECT_EQ(index.lca(0, 0), 0u);
}

TEST(LcaIndexTest, DeepChain) {
  constexpr std::size_t kN = 1025;  // crosses a power-of-two boundary
  std::vector<NodeId> parent(kN, kInvalidNode);
  for (std::size_t v = 1; v < kN; ++v) parent[v] = static_cast<NodeId>(v - 1);
  const MulticastTree tree(0, std::move(parent));
  const LcaIndex index(tree);
  EXPECT_EQ(index.lca(kN - 1, 512), 512u);
  EXPECT_EQ(index.lca(100, 900), 100u);
  EXPECT_EQ(index.ancestor(kN - 1, kN - 1), 0u);
}

// The references: MulticastTree::firstCommonRouter for lca and lcaDepth,
// a parent walk for ancestor.
void expectPairMatches(const MulticastTree& tree, const LcaIndex& index,
                       NodeId a, NodeId b) {
  const NodeId want = tree.firstCommonRouter(a, b);
  ASSERT_EQ(index.lca(a, b), want) << "a=" << a << " b=" << b;
  ASSERT_EQ(index.lcaDepth(a, b), tree.depth(want)) << "a=" << a << " b=" << b;
}

void expectAncestorsMatch(const MulticastTree& tree, const LcaIndex& index,
                          NodeId v) {
  NodeId walk = v;
  for (HopCount steps = 0; steps <= tree.depth(v) + 1; ++steps) {
    ASSERT_EQ(index.ancestor(v, steps), walk) << "v=" << v << " up " << steps;
    if (walk != kInvalidNode) walk = tree.parent(walk);
  }
}

// rootPathSubtrees(v) must hold exactly the subtrees of v's ancestors, so
// that meetDepth finds where any member meets v's root path.
void expectPathMatches(const MulticastTree& tree, const LcaIndex& index,
                       NodeId v, std::span<const NodeId> others) {
  std::vector<LcaIndex::Subtree> path;
  index.rootPathSubtrees(v, path);
  ASSERT_EQ(path.size(), tree.depth(v) + 1u);
  for (NodeId a = v;; a = tree.parent(a)) {
    const LcaIndex::Subtree& s = path[tree.depth(a)];
    ASSERT_EQ(s.begin, tree.memberIndex(a)) << "v=" << v << " a=" << a;
    ASSERT_EQ(s.end - s.begin, tree.subtreeMembers(a).size())
        << "v=" << v << " a=" << a;
    if (a == tree.root()) break;
  }
  for (const NodeId w : others) {
    ASSERT_EQ(LcaIndex::meetDepth(path, tree.memberIndex(w)),
              tree.depth(tree.firstCommonRouter(v, w)))
        << "v=" << v << " w=" << w;
  }
}

void expectAllPairsMatch(const MulticastTree& tree) {
  const LcaIndex index(tree);
  for (const NodeId a : tree.members()) {
    expectAncestorsMatch(tree, index, a);
    expectPathMatches(tree, index, a, tree.members());
    for (const NodeId b : tree.members()) expectPairMatches(tree, index, a, b);
  }
}

TEST(LcaIndexTest, AllPairsOnShallowTrees) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    const Topology topo = generateShallowTreeTopology(400, rng);
    expectAllPairsMatch(topo.tree);
  }
}

TEST(LcaIndexTest, AllPairsOnGeneratedTopologies) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    TopologyConfig config;
    config.num_nodes = 300;
    const Topology topo = generateTopology(config, rng);
    expectAllPairsMatch(topo.tree);
  }
}

TEST(LcaIndexTest, AllPairsOnAStar) {
  std::vector<NodeId> parent(300, 0);
  parent[0] = kInvalidNode;
  expectAllPairsMatch(MulticastTree(0, std::move(parent)));
}

TEST(LcaIndexTest, SingleNodeAncestorAndDepth) {
  const MulticastTree tree(0, std::vector<NodeId>(1, kInvalidNode));
  const LcaIndex index(tree);
  EXPECT_EQ(index.lcaDepth(0, 0), 0u);
  EXPECT_EQ(index.ancestor(0, 0), 0u);
  EXPECT_EQ(index.ancestor(0, 1), kInvalidNode);
}

// A chain's preorder is its depth order, so pairs a short way apart cover
// every in-block offset and every block boundary, and far pairs cover the
// sparse table over whole blocks.
TEST(LcaIndexTest, ChainAcrossManyBlocks) {
  constexpr NodeId kN = 5000;
  std::vector<NodeId> parent(kN, kInvalidNode);
  // Shuffled ids, so preorder positions are not the node ids.
  std::vector<NodeId> ids(kN);
  for (NodeId i = 0; i < kN; ++i) ids[i] = (i * 2903u) % kN;
  for (NodeId i = 1; i < kN; ++i) parent[ids[i]] = ids[i - 1];
  const MulticastTree tree(ids[0], std::move(parent));
  ASSERT_EQ(tree.numMembers(), kN);
  const LcaIndex index(tree);
  for (NodeId i = 0; i < kN; ++i) {
    for (NodeId gap = 0; gap <= 70 && i + gap < kN; ++gap) {
      expectPairMatches(tree, index, ids[i], ids[i + gap]);
      expectPairMatches(tree, index, ids[i + gap], ids[i]);
    }
  }
  util::Rng rng(7);
  for (int k = 0; k < 5000; ++k) {
    const auto i = static_cast<NodeId>(rng.uniformInt(kN));
    const auto j = static_cast<NodeId>(rng.uniformInt(kN));
    ASSERT_EQ(index.lca(ids[i], ids[j]), ids[std::min(i, j)]);
    ASSERT_EQ(index.lcaDepth(ids[i], ids[j]), std::min(i, j));
    ASSERT_EQ(index.ancestor(ids[i], i - std::min(i, j)), ids[std::min(i, j)]);
  }
}

TEST(LcaIndexTest, SampledPairsOnALargeShallowTree) {
  util::Rng rng(11);
  const Topology topo = generateShallowTreeTopology(30000, rng);
  const MulticastTree& tree = topo.tree;
  const LcaIndex index(tree);
  const std::vector<NodeId>& members = tree.members();
  for (int k = 0; k < 120000; ++k) {
    const NodeId a = members[rng.uniformInt(members.size())];
    const NodeId b = members[rng.uniformInt(members.size())];
    expectPairMatches(tree, index, a, b);
  }
  for (int k = 0; k < 5000; ++k) {
    expectAncestorsMatch(tree, index, members[rng.uniformInt(members.size())]);
  }
  std::vector<NodeId> others(2000);
  for (int k = 0; k < 20; ++k) {
    for (NodeId& w : others) w = members[rng.uniformInt(members.size())];
    expectPathMatches(tree, index, members[rng.uniformInt(members.size())],
                      others);
  }
}

// The hinted RTT skips the LCA query under the tree metric and ignores the
// hint in table mode; either way it must equal the plain RTT bit for bit.
TEST(LcaIndexTest, HintedRttEqualsPlainRtt) {
  util::Rng rng(5);
  const Topology shallow = generateShallowTreeTopology(2000, rng);
  const Routing tree_metric(shallow.graph, shallow.tree);
  const LcaIndex shallow_index(shallow.tree);
  const std::vector<NodeId>& members = shallow.tree.members();
  for (int k = 0; k < 20000; ++k) {
    const NodeId u = members[rng.uniformInt(members.size())];
    const NodeId w = members[rng.uniformInt(members.size())];
    ASSERT_EQ(tree_metric.rtt(u, w, shallow_index.lca(u, w)),
              tree_metric.rtt(u, w))
        << "u=" << u << " w=" << w;
  }

  TopologyConfig config;
  config.num_nodes = 150;
  const Topology topo = generateTopology(config, rng);
  const Routing table(topo.graph);
  const LcaIndex index(topo.tree);
  for (const NodeId u : topo.tree.members()) {
    for (const NodeId w : topo.tree.members()) {
      ASSERT_EQ(table.rtt(u, w, index.lca(u, w)), table.rtt(u, w))
          << "u=" << u << " w=" << w;
    }
  }
}

class LcaRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LcaRandomTest, MatchesNaiveOnRandomTopologies) {
  util::Rng rng(GetParam());
  TopologyConfig config;
  config.num_nodes = 120;
  const Topology topo = generateTopology(config, rng);
  const LcaIndex index(topo.tree);
  // All client pairs (the planner's access pattern) plus random pairs.
  for (const NodeId a : topo.clients) {
    for (const NodeId b : topo.clients) {
      ASSERT_EQ(index.lca(a, b), topo.tree.firstCommonRouter(a, b));
    }
  }
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<NodeId>(rng.uniformInt(120));
    const auto b = static_cast<NodeId>(rng.uniformInt(120));
    ASSERT_EQ(index.lca(a, b), topo.tree.firstCommonRouter(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LcaRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace rmrn::net
