#include "sched/instance_hash.hpp"

#include "util/fnv.hpp"

namespace bisched {

namespace {

void mix_signed(Fnv1a& h, std::int64_t v) { h.u64(static_cast<std::uint64_t>(v)); }

// Edge insertion order is not part of instance identity. Instead of
// materializing and sorting the edge list (O(E log E) and an allocation on
// every cache lookup), combine the per-edge hashes with a commutative
// wrapping sum — order-independent by construction, one pass, no memory.
std::uint64_t edge_sum(const Graph& g) {
  std::uint64_t acc = 0;
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.neighbors(u)) {
      if (v > u) acc += edge_hash(u, v);
    }
  }
  return acc;
}

}  // namespace

// splitmix64-style finalizer: each (min, max) edge pair gets a well-mixed
// 64-bit value of its own.
std::uint64_t edge_hash(int u, int v) {
  std::uint64_t x =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
      static_cast<std::uint32_t>(v);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t content_hash(const HashedContent& content) {
  Fnv1a h;
  // 'Q' / 'R' model tag: a uniform and an unrelated instance never collide.
  h.u64(content.uniform ? 0x51u : 0x52u);
  mix_signed(h, content.jobs);
  mix_signed(h, content.machines);
  if (content.uniform) {
    for (std::int64_t pj : content.p) mix_signed(h, pj);
    for (std::int64_t s : content.speeds) mix_signed(h, s);
  } else {
    for (const auto& row : content.times) {
      for (std::int64_t t : row) mix_signed(h, t);
    }
  }
  mix_signed(h, content.edges);
  h.u64(content.edge_sum);
  return h.value();
}

std::uint64_t instance_hash(const UniformInstance& inst) {
  return content_hash({.uniform = true,
                       .jobs = inst.num_jobs(),
                       .machines = inst.num_machines(),
                       .p = inst.p,
                       .speeds = inst.speeds,
                       .times = {},
                       .edges = inst.conflicts.num_edges(),
                       .edge_sum = edge_sum(inst.conflicts)});
}

std::uint64_t instance_hash(const UnrelatedInstance& inst) {
  return content_hash({.uniform = false,
                       .jobs = inst.num_jobs(),
                       .machines = inst.num_machines(),
                       .p = {},
                       .speeds = {},
                       .times = inst.times,
                       .edges = inst.conflicts.num_edges(),
                       .edge_sum = edge_sum(inst.conflicts)});
}

std::string hash_hex(std::uint64_t h) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[h & 0xf];
    h >>= 4;
  }
  return out;
}

}  // namespace bisched
