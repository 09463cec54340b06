#include "graph/graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bisched {

Graph::Graph(int n) : adj_(static_cast<std::size_t>(n)) {
  BISCHED_CHECK(n >= 0, "graph with negative vertex count");
}

Graph Graph::from_edges(int n, std::span<const int> endpoints) {
  BISCHED_CHECK(endpoints.size() % 2 == 0, "edge list with an odd endpoint count");
  Graph g(n);
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < endpoints.size(); i += 2) {
    const int u = endpoints[i];
    const int v = endpoints[i + 1];
    BISCHED_CHECK(u >= 0 && u < n, "edge endpoint out of range");
    BISCHED_CHECK(v >= 0 && v < n, "edge endpoint out of range");
    BISCHED_CHECK(u != v, "self-loop not allowed in incompatibility graph");
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
  }
  for (int u = 0; u < n; ++u) g.adj_[u].reserve(static_cast<std::size_t>(degree[u]));
  for (std::size_t i = 0; i < endpoints.size(); i += 2) {
    g.adj_[endpoints[i]].push_back(endpoints[i + 1]);
    g.adj_[endpoints[i + 1]].push_back(endpoints[i]);
  }
  g.num_edges_ = static_cast<std::int64_t>(endpoints.size() / 2);
  return g;
}

int Graph::add_vertex() {
  adj_.emplace_back();
  return num_vertices() - 1;
}

int Graph::add_vertices(int count) {
  BISCHED_CHECK(count >= 0, "add_vertices with negative count");
  const int first = num_vertices();
  adj_.resize(adj_.size() + static_cast<std::size_t>(count));
  return first;
}

void Graph::add_edge(int u, int v) {
  BISCHED_CHECK(u >= 0 && u < num_vertices(), "edge endpoint out of range");
  BISCHED_CHECK(v >= 0 && v < num_vertices(), "edge endpoint out of range");
  BISCHED_CHECK(u != v, "self-loop not allowed in incompatibility graph");
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++num_edges_;
}

bool Graph::has_edge(int u, int v) const {
  const auto& shorter = degree(u) <= degree(v) ? adj_[u] : adj_[v];
  const int target = degree(u) <= degree(v) ? v : u;
  return std::find(shorter.begin(), shorter.end(), target) != shorter.end();
}

bool Graph::is_independent_mask(std::span<const std::uint8_t> mask) const {
  BISCHED_CHECK(static_cast<int>(mask.size()) == num_vertices(),
                "independence mask size mismatch");
  for (int u = 0; u < num_vertices(); ++u) {
    if (!mask[static_cast<std::size_t>(u)]) continue;
    for (int v : adj_[u]) {
      if (v > u && mask[static_cast<std::size_t>(v)]) return false;
    }
  }
  return true;
}

bool Graph::is_independent_list(std::span<const int> vertices) const {
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(num_vertices()), 0);
  for (int v : vertices) {
    BISCHED_CHECK(v >= 0 && v < num_vertices(), "vertex out of range");
    mask[static_cast<std::size_t>(v)] = 1;
  }
  return is_independent_mask(mask);
}

Graph induced_subgraph(const Graph& g, std::span<const int> vertices,
                       std::vector<int>* old_of_new) {
  std::vector<int> new_of_old(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const int v = vertices[i];
    BISCHED_CHECK(v >= 0 && v < g.num_vertices(), "vertex out of range");
    BISCHED_CHECK(new_of_old[static_cast<std::size_t>(v)] == -1,
                  "duplicate vertex in induced_subgraph");
    new_of_old[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }
  Graph sub(static_cast<int>(vertices.size()));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const int u = vertices[i];
    for (int v : g.neighbors(u)) {
      const int nv = new_of_old[static_cast<std::size_t>(v)];
      if (nv != -1 && nv > static_cast<int>(i)) {
        sub.add_edge(static_cast<int>(i), nv);
      }
    }
  }
  if (old_of_new != nullptr) old_of_new->assign(vertices.begin(), vertices.end());
  return sub;
}

int append_disjoint(Graph& g, const Graph& other) {
  const int offset = g.add_vertices(other.num_vertices());
  for (int u = 0; u < other.num_vertices(); ++u) {
    for (int v : other.neighbors(u)) {
      if (v > u) g.add_edge(offset + u, offset + v);
    }
  }
  return offset;
}

}  // namespace bisched
