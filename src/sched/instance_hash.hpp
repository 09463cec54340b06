// Stable content hashing for scheduling instances.
//
// `instance_hash` is a 64-bit FNV-1a over a canonical serialization of the
// instance: a model tag, the job/machine counts, the processing requirements
// (or the full time matrix), and the conflict edge set folded in as a
// commutative sum of per-edge (min, max) hashes — order-independent without
// sorting. Two instances hash equally iff they have identical content —
// independent of edge insertion order, of the object's address, and of the
// process (no pointer or ASLR input) — so the value is a valid cross-run,
// cross-process cache key. The engine's profile cache
// (engine/profile_cache.hpp) keys probe() results by it, and batch/serve
// result rows surface it so repeated traffic is attributable downstream.
//
// The layout lives in one routine, `content_hash`: the instance overloads
// feed it from a built instance, and io/format's InstanceRecord feeds it the
// values as the parser read them (with the edge sum it streamed), so a cache
// can be asked before any Graph exists.
//
// The function is part of the serving contract: changing it invalidates every
// persisted key derived from it, so the golden value pinned in
// tests/engine/profile_cache_test.cpp must only change intentionally.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sched/instance.hpp"

namespace bisched {

// An instance's content in hash order. A uniform instance gives p and its
// speeds sorted non-increasingly; an unrelated one gives its time rows.
struct HashedContent {
  bool uniform = true;
  std::int64_t jobs = 0;
  std::int64_t machines = 0;
  std::span<const std::int64_t> p;
  std::span<const std::int64_t> speeds;
  std::span<const std::vector<std::int64_t>> times;
  std::int64_t edges = 0;
  std::uint64_t edge_sum = 0;  // wrapping sum of edge_hash(min, max) per edge
};

// The one FNV-1a layout: the model tag, n and m; p then the speeds, or else
// the time matrix; the edge count and the edge sum.
std::uint64_t content_hash(const HashedContent& content);

// One edge's share of the edge sum; u < v. A duplicate edge counts twice.
std::uint64_t edge_hash(int u, int v);

std::uint64_t instance_hash(const UniformInstance& inst);
std::uint64_t instance_hash(const UnrelatedInstance& inst);

// 16 lowercase hex digits, zero-padded — the form result rows carry.
std::string hash_hex(std::uint64_t h);

}  // namespace bisched
