#include "sched/instance_hash.hpp"

#include "util/fnv.hpp"

namespace bisched {

namespace {

void mix_signed(Fnv1a& h, std::int64_t v) { h.u64(static_cast<std::uint64_t>(v)); }

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

// Edge insertion order is not part of instance identity. Instead of
// materializing and sorting the edge list (O(E log E) and an allocation on
// every cache lookup), combine the per-edge hashes with a commutative
// wrapping sum — order-independent by construction, one pass, no memory.
void mix_edges(Fnv1a& h, const Graph& g) {
  mix_signed(h, g.num_edges());
  std::uint64_t acc = 0;
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.neighbors(u)) {
      if (v > u) acc += edge_hash(u, v);
    }
  }
  h.u64(acc);
}

}  // namespace

std::uint64_t instance_hash(const UniformInstance& inst) {
  Fnv1a h;
  h.u64(0x51u);  // 'Q' model tag: a uniform and an unrelated instance never collide
  mix_signed(h, inst.num_jobs());
  mix_signed(h, inst.num_machines());
  for (std::int64_t pj : inst.p) mix_signed(h, pj);
  for (std::int64_t s : inst.speeds) mix_signed(h, s);
  mix_edges(h, inst.conflicts);
  return h.value();
}

std::uint64_t instance_hash(const UnrelatedInstance& inst) {
  Fnv1a h;
  h.u64(0x52u);  // 'R' model tag
  mix_signed(h, inst.num_jobs());
  mix_signed(h, inst.num_machines());
  for (const auto& row : inst.times) {
    for (std::int64_t t : row) mix_signed(h, t);
  }
  mix_edges(h, inst.conflicts);
  return h.value();
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
