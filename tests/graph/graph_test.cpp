#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bisched {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, AddEdgesAndDegrees) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.degree(2), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Graph, AddVertexGrows) {
  Graph g(2);
  const int v = g.add_vertex();
  EXPECT_EQ(v, 2);
  EXPECT_EQ(g.num_vertices(), 3);
  const int first = g.add_vertices(5);
  EXPECT_EQ(first, 3);
  EXPECT_EQ(g.num_vertices(), 8);
  g.add_edge(v, first + 4);
  EXPECT_TRUE(g.has_edge(2, 7));
}

TEST(Graph, IndependenceMask) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const std::vector<std::uint8_t> independent{1, 0, 1, 0};
  const std::vector<std::uint8_t> dependent{1, 1, 0, 0};
  EXPECT_TRUE(g.is_independent_mask(independent));
  EXPECT_FALSE(g.is_independent_mask(dependent));
  const std::vector<int> list_ok{0, 2};
  const std::vector<int> list_bad{2, 3};
  EXPECT_TRUE(g.is_independent_list(list_ok));
  EXPECT_FALSE(g.is_independent_list(list_bad));
}

TEST(Graph, EmptySubsetIsIndependent) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.is_independent_list(std::vector<int>{}));
}

TEST(Graph, InducedSubgraph) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  std::vector<int> keep{1, 2, 4};
  std::vector<int> old_of_new;
  const Graph sub = induced_subgraph(g, keep, &old_of_new);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 1);  // only (1,2) survives
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_EQ(old_of_new, keep);
}

TEST(Graph, AppendDisjoint) {
  Graph g(2);
  g.add_edge(0, 1);
  Graph other(3);
  other.add_edge(0, 2);
  const int offset = append_disjoint(g, other);
  EXPECT_EQ(offset, 2);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(2, 4));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(Graph, FromEdgesMatchesAddEdgeOneByOne) {
  // Duplicate edges included: they count twice, as add_edge counts them.
  const std::vector<int> endpoints = {0, 3, 2, 1, 3, 1, 0, 1, 3, 0, 4, 2, 1, 2};
  Graph one_by_one(6);
  for (std::size_t i = 0; i < endpoints.size(); i += 2) {
    one_by_one.add_edge(endpoints[i], endpoints[i + 1]);
  }
  const Graph built = Graph::from_edges(6, endpoints);
  ASSERT_EQ(built.num_vertices(), one_by_one.num_vertices());
  EXPECT_EQ(built.num_edges(), 7);
  EXPECT_EQ(built.num_edges(), one_by_one.num_edges());
  for (int u = 0; u < built.num_vertices(); ++u) {
    EXPECT_EQ(built.neighbors(u), one_by_one.neighbors(u)) << u;
  }
  EXPECT_EQ(Graph::from_edges(3, {}).num_edges(), 0);
}

TEST(GraphDeath, FromEdgesKeepsAddEdgesChecks) {
  const std::vector<int> loop = {0, 1, 2, 2};
  EXPECT_DEATH(Graph::from_edges(3, loop), "self-loop");
  const std::vector<int> out_of_range = {0, 3};
  EXPECT_DEATH(Graph::from_edges(3, out_of_range), "out of range");
}

TEST(GraphDeath, SelfLoopRejected) {
  Graph g(2);
  EXPECT_DEATH(g.add_edge(1, 1), "self-loop");
}

TEST(GraphDeath, OutOfRangeRejected) {
  Graph g(2);
  EXPECT_DEATH(g.add_edge(0, 2), "out of range");
}

}  // namespace
}  // namespace bisched
