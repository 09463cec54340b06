// The benchmark's own seeded instance generator and lower bounds.
//
// Instance text is produced here, in the program's native format, from the
// run's --seed; the program under test only ever sees the generated bytes.
// Its random module and `gen` subcommand are deliberately not used, so a
// change to them cannot change the benchmark's inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct Instance {
  std::string cls;        // workload class label
  std::string text;       // native instance text, newline-terminated
  std::string json_text;  // `text` escaped for a JSON string member
  // The harness's own makespan lower bound, exact: lb_num / lb_den.
  // Uniform: max(p_max / s_1, sum p / sum s).
  // Unrelated: max(max_j min_i t_ij, sum_j min_i t_ij / m).
  __int128 lb_num = 0;
  __int128 lb_den = 1;
  double lb() const { return static_cast<double>(lb_num) / static_cast<double>(lb_den); }
};

// Q instance: unit jobs on a Gilbert random bipartite graph between n1 left
// and n2 right jobs, each edge present independently so that the mean degree
// is `mean_degree`; m machines with speeds uniform in [1, smax].
Instance gen_gilbert_uniform(Rng& rng, const std::string& cls, int n1, int n2,
                             double mean_degree, int m, std::int64_t smax);

// R2 instance: n1 + n2 jobs with times uniform in [0, tmax] on each of two
// machines, and exactly `edges` distinct left-right conflict edges.
Instance gen_r2(Rng& rng, const std::string& cls, int n1, int n2, std::int64_t tmax,
                int edges);

// One cold_mix class: its shape and how many of it one block holds.
struct MixClass {
  const char* name;
  int per_block;
};
const std::vector<MixClass>& cold_mix_classes();

// Block `b` of the cold_mix list: every class `per_block` times, shuffled.
// A pure function of (seed, b), so the list extends on demand identically.
std::vector<Instance> cold_mix_block(std::uint64_t seed, std::uint64_t b);

// The fixed working sets.
std::vector<Instance> hot_repeat_set(std::uint64_t seed);   // 64 x 1000+1000, m=3
std::vector<Instance> routed_warm_set(std::uint64_t seed);  // 256 x 100+100, m=3

// Exact check: does the rational `makespan` meet the instance's bound?
bool meets_lower_bound(const Instance& inst, const std::string& makespan);

}  // namespace perfbench
