// 64-bit FNV-1a, the one copy: content hashes (sched/instance_hash), store
// record checksums, the router's fallback placement key, trace-id tags and
// hash-table keys all mix through it.
#pragma once

#include <array>
#include <cstddef>
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
  // A zero byte's step is just `state *= kPrime`, so the zero bytes above
  // the highest nonzero one fold into that byte's multiply: a value below
  // 256 costs one multiply instead of eight, and every result is the byte
  // loop's, bit for bit.
  void u64(std::uint64_t v) {
    std::size_t zeros = 7;  // zero bytes above the top one (byte 0 when v is 0)
    for (; v > 0xff; v >>= 8, --zeros) state_ = (state_ ^ (v & 0xff)) * kPrime;
    state_ = (state_ ^ v) * kPrimePowers[zeros + 1];
  }
  std::uint64_t value() const { return state_; }

 private:
  // kPrimePowers[k] = kPrime^k (mod 2^64).
  static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{};
    powers[0] = 1;
    for (std::size_t k = 1; k < powers.size(); ++k) powers[k] = powers[k - 1] * kPrime;
    return powers;
  }();

  std::uint64_t state_ = kOffset;
};

inline std::uint64_t fnv1a(std::string_view data) {
  Fnv1a h;
  h.bytes(data);
  return h.value();
}

}  // namespace bisched
