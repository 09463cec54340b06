// 64-bit FNV-1a, the one copy: content hashes (sched/instance_hash), store
// record checksums, the router's fallback placement key, trace-id tags and
// hash-table keys all mix through it.
#pragma once

#include <cstdint>
#include <string_view>

namespace bisched {

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

inline std::uint64_t fnv1a(std::string_view data) {
  Fnv1a h;
  h.bytes(data);
  return h.value();
}

}  // namespace bisched
