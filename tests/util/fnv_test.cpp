// Fnv1a::u64 folds the zero bytes above a value's highest nonzero byte into
// one multiply. The fold must give the byte loop's state bit for bit
// (tests/reference_hash.hpp), from any running state: seeded values of
// every width, with zero bytes inside them too, and the values at each byte
// boundary. The content hash built on it is pinned the same way, and by the
// golden in tests/engine/profile_cache_test.cpp.
#include "util/fnv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "reference_hash.hpp"
#include "sched/instance_hash.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

// A value exactly `width` bytes wide (0..8): its top byte is nonzero, and
// each byte below it is zero with probability 1/4.
std::uint64_t random_value(Rng& rng, int width) {
  std::uint64_t v = 0;
  for (int b = 0; b < width; ++b) {
    const bool zero = b + 1 < width && rng.uniform_int(0, 3) == 0;
    const auto byte = static_cast<std::uint64_t>(zero ? 0 : rng.uniform_int(1, 255));
    v |= byte << (8 * b);
  }
  return v;
}

TEST(Fnv1a, U64FoldMatchesTheByteLoop) {
  const std::vector<std::uint64_t> edges = {
      0,
      0xff,
      0x100,
      (std::uint64_t{1} << 56) - 1,
      std::uint64_t{1} << 56,
      std::uint64_t{1} << 63,
      static_cast<std::uint64_t>(std::int64_t{-1}),
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min()),
  };
  Rng rng(20261020);
  Fnv1a shipped;
  reference::Fnv1a oracle;
  for (int i = 0; i < 20000; ++i) {
    // Every fourth value is a boundary value, so each one meets many
    // running states.
    const std::uint64_t v =
        i % 4 == 0 ? edges[static_cast<std::size_t>(i / 4) % edges.size()]
                   : random_value(rng, static_cast<int>(rng.uniform_int(0, 8)));
    shipped.u64(v);
    oracle.u64(v);
    ASSERT_EQ(shipped.value(), oracle.value()) << "value " << v << " at step " << i;
  }
  // Each boundary value alone, from the offset basis.
  for (const std::uint64_t v : edges) {
    Fnv1a one;
    reference::Fnv1a want;
    one.u64(v);
    want.u64(v);
    EXPECT_EQ(one.value(), want.value()) << "value " << v;
  }
}

TEST(Fnv1a, ContentHashMatchesTheByteLoopLayout) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const bool uniform = trial % 2 == 0;
    const auto jobs = rng.uniform_int(0, 40);
    const auto machines = rng.uniform_int(1, 5);
    const auto wide = [&rng] {
      return static_cast<std::int64_t>(random_value(rng, static_cast<int>(rng.uniform_int(0, 8))));
    };
    std::vector<std::int64_t> p, speeds;
    std::vector<std::vector<std::int64_t>> times;
    if (uniform) {
      for (std::int64_t j = 0; j < jobs; ++j) p.push_back(wide());
      for (std::int64_t i = 0; i < machines; ++i) speeds.push_back(wide());
    } else {
      times.assign(static_cast<std::size_t>(machines), {});
      for (auto& row : times) {
        for (std::int64_t j = 0; j < jobs; ++j) row.push_back(wide());
      }
    }
    const HashedContent content{.uniform = uniform,
                                .jobs = jobs,
                                .machines = machines,
                                .p = p,
                                .speeds = speeds,
                                .times = times,
                                .edges = rng.uniform_int(0, 100),
                                .edge_sum = rng.next_u64()};
    ASSERT_EQ(content_hash(content), reference::content_hash(content)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace bisched
