// FNV-1a with its value step as a plain byte loop, verbatim from
// util/fnv.hpp before Fnv1a::u64 folded the zero bytes above a value's
// highest nonzero byte into one multiply, and sched/instance_hash.cpp's
// content hash mixed through it.
//
// The fold's contract is that every hash stays bit-identical:
// tests/util/fnv_test.cpp diffs Fnv1a::u64 and content_hash against these,
// and bench/bench_hotpaths.cpp times content_hash against the one here.
// Deliberately unoptimized; its value is being the old behavior.
#pragma once

#include <cstdint>
#include <string_view>

#include "sched/instance_hash.hpp"

namespace bisched::reference {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 14695981039346656037ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  void bytes(std::string_view data) {
    for (const char c : data) state_ = (state_ ^ static_cast<std::uint8_t>(c)) * kPrime;
  }
  // A 64-bit value as its 8 little-endian bytes, independent of the host.
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) state_ = (state_ ^ ((v >> (8 * b)) & 0xff)) * kPrime;
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = kOffset;
};

inline void mix_signed(Fnv1a& h, std::int64_t v) { h.u64(static_cast<std::uint64_t>(v)); }

inline std::uint64_t content_hash(const HashedContent& content) {
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

}  // namespace bisched::reference
