// Simple undirected graph over vertices 0..n-1, adjacency-list storage.
//
// This is the incompatibility-graph substrate: vertices are jobs, edges are
// conflicts ("cannot share a machine"). The scheduling model only needs
// simple graphs; `add_edge` rejects self-loops, and the generators never emit
// parallel edges (`has_edge` exists for tests and gadget assembly).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bisched {

class Graph {
 public:
  Graph() = default;
  explicit Graph(int n);

  // The graph on n vertices with one edge per endpoint pair of `endpoints`
  // (u0 v0 u1 v1 ...), in one pass: count the degrees, reserve each
  // adjacency list exactly, then append in input order. The adjacency lists
  // equal those of add_edge called edge by edge, under the same checks.
  static Graph from_edges(int n, std::span<const int> endpoints);

  int num_vertices() const { return static_cast<int>(adj_.size()); }
  std::int64_t num_edges() const { return num_edges_; }

  // Appends an isolated vertex; returns its index.
  int add_vertex();
  // Appends `count` isolated vertices; returns the index of the first.
  int add_vertices(int count);

  void add_edge(int u, int v);

  // O(min(deg(u), deg(v))) membership test; for tests/small gadgets.
  bool has_edge(int u, int v) const;

  const std::vector<int>& neighbors(int u) const { return adj_[u]; }
  int degree(int u) const { return static_cast<int>(adj_[u].size()); }

  // True if no two vertices of `subset` (given as a 0/1 mask over vertices)
  // are adjacent.
  bool is_independent_mask(std::span<const std::uint8_t> mask) const;
  // Same, subset given as a vertex list.
  bool is_independent_list(std::span<const int> vertices) const;

 private:
  std::vector<std::vector<int>> adj_;
  std::int64_t num_edges_ = 0;
};

// The subgraph induced by `vertices` (must be distinct). Vertex i of the
// result corresponds to vertices[i]; `old_of_new`, if non-null, receives that
// correspondence.
Graph induced_subgraph(const Graph& g, std::span<const int> vertices,
                       std::vector<int>* old_of_new = nullptr);

// Disjoint union: appends a copy of `other` to `g`; returns the offset added
// to each of `other`'s vertex ids.
int append_disjoint(Graph& g, const Graph& other);

}  // namespace bisched
