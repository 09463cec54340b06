#include "engine/graph_classes.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/check.hpp"
#include "util/fnv.hpp"

namespace bisched::engine {

const std::optional<Bipartition>& DetectContext::bipartition() {
  if (!bipartition_computed_) {
    bipartition_ = bisched::bipartition(graph_);
    bipartition_computed_ = true;
  }
  return bipartition_;
}

GraphClassId GraphClassLattice::register_class(std::string name,
                                               std::vector<GraphClassId> parents,
                                               DetectFn detect) {
  BISCHED_CHECK(static_cast<int>(nodes_.size()) < kMaxClasses,
                "graph-class lattice is full");
  BISCHED_CHECK(!name.empty(), "graph class needs a name");
  BISCHED_CHECK(find(name) == kGraphClassInvalid,
                "duplicate graph class '" + name + "'");
  BISCHED_CHECK(detect != nullptr, "graph class '" + name + "' needs a detector");
  const GraphClassId id = static_cast<GraphClassId>(nodes_.size());
  Node node;
  node.name = std::move(name);
  node.ancestors = std::uint64_t{1} << id;
  for (const GraphClassId parent : parents) {
    BISCHED_CHECK(parent >= 0 && parent < id,
                  "graph class '" + node.name + "' lists an unregistered parent");
    node.ancestors |= nodes_[static_cast<std::size_t>(parent)].ancestors;
  }
  node.parents = std::move(parents);
  node.detect = std::move(detect);
  nodes_.push_back(std::move(node));
  return id;
}

GraphClassId GraphClassLattice::find(std::string_view name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<GraphClassId>(i);
  }
  return kGraphClassInvalid;
}

const std::string& GraphClassLattice::name(GraphClassId id) const {
  BISCHED_CHECK(id >= 0 && id < size(), "graph class id out of range");
  return nodes_[static_cast<std::size_t>(id)].name;
}

const std::vector<GraphClassId>& GraphClassLattice::parents(GraphClassId id) const {
  BISCHED_CHECK(id >= 0 && id < size(), "graph class id out of range");
  return nodes_[static_cast<std::size_t>(id)].parents;
}

bool GraphClassLattice::subsumes(GraphClassId general, GraphClassId special) const {
  BISCHED_CHECK(general >= 0 && general < size(), "graph class id out of range");
  BISCHED_CHECK(special >= 0 && special < size(), "graph class id out of range");
  return ((nodes_[static_cast<std::size_t>(special)].ancestors >> general) & 1u) != 0;
}

std::uint64_t GraphClassLattice::detect(const Graph& g) const {
  DetectContext context(g);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    const bool parents_hold =
        std::all_of(node.parents.begin(), node.parents.end(),
                    [&](GraphClassId p) { return context.detected(p); });
    if (parents_hold && node.detect(context)) {
      context.mask_ |= std::uint64_t{1} << i;
    }
  }
  return context.mask_;
}

namespace {

// FNV-1a over the vertex ids' bytes; exact equality still compares the
// vectors, so a hash collision costs a comparison, never a wrong verdict.
struct NeighborhoodHash {
  std::size_t operator()(const std::vector<int>& adj) const {
    return static_cast<std::size_t>(fnv1a(std::string_view(
        reinterpret_cast<const char*>(adj.data()), adj.size() * sizeof(int))));
  }
};

}  // namespace

bool is_complete_multipartite(const Graph& g) {
  const int n = g.num_vertices();
  if (n == 0) return true;
  if (g.num_edges() == 0) return true;  // one part
  // This detector runs on every probe (its only lattice parent is `any`),
  // so it rejects cheap before it groups: in a complete multipartite graph
  // a vertex of degree d sits in a part of size n - d, hence (a) no vertex
  // is isolated once any edge exists, and (b) the number of vertices with
  // degree d is an exact multiple of n - d. O(V), and it disposes of almost
  // every non-multipartite instance.
  std::vector<int> degree_count(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    const int d = g.degree(v);
    if (d == 0) return false;
    degree_count[static_cast<std::size_t>(d)] += 1;
  }
  for (int d = 1; d < n; ++d) {
    if (degree_count[static_cast<std::size_t>(d)] % (n - d) != 0) return false;
  }
  // Twin classes: vertices with identical neighborhoods. In a complete
  // multipartite graph the parts are exactly the twin classes (two vertices
  // of one part see "everything else"; vertices of different parts see each
  // other, so their neighborhoods differ), and membership is equivalent to
  // every vertex being adjacent to all n - |its twin class| other vertices.
  // No intra-class edge can exist at all: u ~ v with N(u) = N(v) would put
  // u inside its own neighborhood.
  std::unordered_map<std::vector<int>, int, NeighborhoodHash> class_size;
  class_size.reserve(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> sorted_adj(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    auto& adj = sorted_adj[static_cast<std::size_t>(v)];
    adj = g.neighbors(v);
    std::sort(adj.begin(), adj.end());
    class_size[adj] += 1;
  }
  for (int v = 0; v < n; ++v) {
    const auto& adj = sorted_adj[static_cast<std::size_t>(v)];
    if (static_cast<int>(adj.size()) != n - class_size[adj]) return false;
  }
  return true;
}

const GraphClassLattice& GraphClassLattice::builtin() {
  static const GraphClassLattice* lattice = [] {
    auto* l = new GraphClassLattice;
    const GraphClassId any =
        l->register_class("any", {}, [](DetectContext&) { return true; });
    const GraphClassId bipartite =
        l->register_class("bipartite", {any}, [](DetectContext& ctx) {
          return ctx.bipartition().has_value();
        });
    const GraphClassId multipartite = l->register_class(
        "complete-multipartite", {any},
        [](DetectContext& ctx) { return is_complete_multipartite(ctx.graph()); });
    const GraphClassId complete_bipartite = l->register_class(
        "complete-bipartite", {bipartite, multipartite}, [](DetectContext& ctx) {
          // Complete bipartite = every cross pair of the 2-coloring present.
          // Sides are counted the same way solve_complete_bipartite_instance
          // counts them, so the probe and the solver's own expected-edge
          // check agree. The parent gate guarantees the bipartition exists.
          const auto& bp = ctx.bipartition();
          std::int64_t n1 = 0;
          for (std::uint8_t s : bp->side) n1 += (s == 0);
          const std::int64_t n2 = static_cast<std::int64_t>(bp->side.size()) - n1;
          return ctx.graph().num_edges() == n1 * n2;
        });
    BISCHED_CHECK(any == kGraphAny && bipartite == kGraphBipartite &&
                      multipartite == kGraphCompleteMultipartite &&
                      complete_bipartite == kGraphCompleteBipartite,
                  "builtin graph-class ids drifted");
    return l;
  }();
  return *lattice;
}

const std::string& graph_class_name(GraphClassId id) {
  return GraphClassLattice::builtin().name(id);
}

}  // namespace bisched::engine
