// ResultCache tests, mirroring profile_cache_test.cpp: miss-then-hit
// round-trips, key sensitivity (alg / eps / options are part of the key, so
// different requests never alias), the only-ok-results policy, LRU bounding
// with eviction accounting, and the batch/serve integration through
// run_parsed (the `solve_cache` row field).
#include "engine/result_cache.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "engine/batch.hpp"
#include "engine/profile_cache.hpp"
#include "engine/registry.hpp"
#include "io/format.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

using engine::ResultCache;
using engine::ResultKey;
using engine::SolveOptions;
using engine::SolveResult;

SolveResult ok_result(const std::string& solver, int jobs) {
  SolveResult r;
  r.ok = true;
  r.solver = solver;
  r.guarantee = "exact";
  r.schedule.machine_of.assign(static_cast<std::size_t>(jobs), 0);
  r.cmax = Rational(jobs);
  return r;
}

ResultKey key_of(std::uint64_t hash, const std::string& alg, double eps = 0.1) {
  SolveOptions solve;
  solve.eps = eps;
  return engine::make_result_key(hash, alg, solve);
}

TEST(ResultCache, MissThenHitReturnsTheStoredResult) {
  ResultCache cache;
  const ResultKey key = key_of(42, "auto");
  EXPECT_FALSE(cache.lookup(key).has_value());

  cache.store(key, ok_result("q2dp", 5));
  const auto warm = cache.lookup(key);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->ok);
  EXPECT_EQ(warm->solver, "q2dp");
  EXPECT_EQ(warm->schedule.machine_of.size(), 5u);
  EXPECT_EQ(warm->cmax, Rational(5));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ResultCache, KeyCoversAlgEpsAndOptions) {
  ResultCache cache;
  cache.store(key_of(7, "auto", 0.1), ok_result("a", 1));

  EXPECT_TRUE(cache.lookup(key_of(7, "auto", 0.1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(8, "auto", 0.1)).has_value());   // other instance
  EXPECT_FALSE(cache.lookup(key_of(7, "alg1", 0.1)).has_value());   // other solver
  EXPECT_FALSE(cache.lookup(key_of(7, "auto", 0.2)).has_value());   // other eps

  SolveOptions run_all;
  run_all.eps = 0.1;
  run_all.run_all = true;
  EXPECT_FALSE(
      cache.lookup(engine::make_result_key(7, "auto", run_all)).has_value());

  SolveOptions budgeted = run_all;
  budgeted.budget_ms = 50;
  const auto budget_key = engine::make_result_key(7, "auto", budgeted);
  cache.store(budget_key, ok_result("b", 2));
  EXPECT_TRUE(cache.lookup(budget_key).has_value());
  EXPECT_FALSE(
      cache.lookup(engine::make_result_key(7, "auto", run_all)).has_value());
}

TEST(ResultCache, FailedResultsAreNeverStored) {
  ResultCache cache;
  SolveResult failed;
  failed.ok = false;
  failed.error = "deadline exceeded";
  const ResultKey key = key_of(9, "auto");
  cache.store(key, failed);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, LruEvictsTheColdestEntryAndCounts) {
  ResultCache cache(2);
  cache.store(key_of(1, "auto"), ok_result("a", 1));
  cache.store(key_of(2, "auto"), ok_result("b", 2));
  // Touch 1 so 2 becomes the LRU entry, then insert a third.
  EXPECT_TRUE(cache.lookup(key_of(1, "auto")).has_value());
  cache.store(key_of(3, "auto"), ok_result("c", 3));

  EXPECT_TRUE(cache.lookup(key_of(1, "auto")).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2, "auto")).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(key_of(3, "auto")).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResultCache, RunParsedMemoizesRepeatedSolves) {
  Rng rng(51);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  std::ostringstream text;
  write_instance(text, inst);

  engine::WarmState warm_state;
  const auto solve_once = [&] {
    std::istringstream in(text.str());
    return engine::run_parsed(engine::SolverRegistry::builtin(), warm_state, "auto",
                              SolveOptions{}, parse_instance(in));
  };

  const auto cold = solve_once();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_TRUE(cold.result_cache_used);
  EXPECT_EQ(cold.result_tier, engine::CacheTier::kMiss);

  const auto warm = solve_once();
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.result_tier, engine::CacheTier::kMemory);
  EXPECT_EQ(warm.solver, cold.solver);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm_state.results().stats().hits, 1u);
  EXPECT_EQ(warm_state.results().stats().misses, 1u);
  EXPECT_EQ(warm_state.results().stats().disk_hits, 0u);  // no store attached

  // A different eps is a different request: no false sharing.
  std::istringstream in(text.str());
  SolveOptions finer;
  finer.eps = 0.01;
  const auto other = engine::run_parsed(engine::SolverRegistry::builtin(), warm_state,
                                        "auto", finer, parse_instance(in));
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_EQ(other.result_tier, engine::CacheTier::kMiss);
}

}  // namespace
}  // namespace bisched
