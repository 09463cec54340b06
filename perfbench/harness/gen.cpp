#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {

namespace {

void append_int(std::string* out, std::int64_t v) { *out += std::to_string(v); }

void finish(Instance* inst) { inst->json_text = json_escape(inst->text); }

void append_edges(std::string* text, const std::vector<std::pair<int, int>>& edges) {
  *text += "edges ";
  append_int(text, static_cast<std::int64_t>(edges.size()));
  *text += '\n';
  for (const auto& [u, v] : edges) {
    append_int(text, u);
    *text += ' ';
    append_int(text, v);
    *text += '\n';
  }
}

}  // namespace

Instance gen_gilbert_uniform(Rng& rng, const std::string& cls, int n1, int n2,
                             double mean_degree, int m, std::int64_t smax) {
  Instance inst;
  inst.cls = cls;
  const int n = n1 + n2;
  std::vector<std::int64_t> speeds(static_cast<std::size_t>(m));
  for (auto& s : speeds) s = rng.range(1, smax);

  // Geometric skipping over the n1 * n2 candidate pairs: O(#edges).
  const double q = std::min(1.0, mean_degree * n / (2.0 * n1 * n2));
  const std::int64_t total = static_cast<std::int64_t>(n1) * n2;
  std::vector<std::pair<int, int>> edges;
  const double log_miss = std::log1p(-q);
  for (std::int64_t idx = -1;;) {
    const double skip = std::floor(std::log(rng.unit_open0()) / log_miss);
    if (skip >= static_cast<double>(total - idx)) break;
    idx += 1 + static_cast<std::int64_t>(skip);
    if (idx >= total) break;
    edges.emplace_back(static_cast<int>(idx / n2), n1 + static_cast<int>(idx % n2));
  }

  std::string& t = inst.text;
  t.reserve(static_cast<std::size_t>(n) * 2 + edges.size() * 10 + 64);
  t += "bisched uniform v1\njobs ";
  append_int(&t, n);
  t += "\np";
  for (int j = 0; j < n; ++j) t += " 1";
  t += "\nspeeds ";
  append_int(&t, m);
  t += '\n';
  for (int i = 0; i < m; ++i) {
    if (i > 0) t += ' ';
    append_int(&t, speeds[static_cast<std::size_t>(i)]);
  }
  t += '\n';
  append_edges(&t, edges);

  // Unit jobs: max(1 / s_max, n / sum s), compared exactly.
  std::int64_t s_max = 0;
  std::int64_t s_sum = 0;
  for (std::int64_t s : speeds) {
    s_max = std::max(s_max, s);
    s_sum += s;
  }
  // 1/s_max >= n/s_sum  <=>  s_sum >= n * s_max
  if (s_sum >= static_cast<std::int64_t>(n) * s_max) {
    inst.lb_num = 1;
    inst.lb_den = s_max;
  } else {
    inst.lb_num = n;
    inst.lb_den = s_sum;
  }
  finish(&inst);
  return inst;
}

Instance gen_r2(Rng& rng, const std::string& cls, int n1, int n2, std::int64_t tmax,
                int edges) {
  Instance inst;
  inst.cls = cls;
  const int n = n1 + n2;
  std::vector<std::int64_t> t0(static_cast<std::size_t>(n));
  std::vector<std::int64_t> t1(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    t0[static_cast<std::size_t>(j)] = rng.range(0, tmax);
    t1[static_cast<std::size_t>(j)] = rng.range(0, tmax);
  }
  std::unordered_set<std::int64_t> seen;
  std::vector<std::pair<int, int>> list;
  while (static_cast<int>(list.size()) < edges) {
    const int u = static_cast<int>(rng.range(0, n1 - 1));
    const int v = n1 + static_cast<int>(rng.range(0, n2 - 1));
    if (seen.insert(static_cast<std::int64_t>(u) * n + v).second) list.emplace_back(u, v);
  }
  std::sort(list.begin(), list.end());

  std::string& t = inst.text;
  t += "bisched unrelated v1\njobs ";
  append_int(&t, n);
  t += "\nmachines 2\ntimes\n";
  for (const auto* row : {&t0, &t1}) {
    for (int j = 0; j < n; ++j) {
      if (j > 0) t += ' ';
      append_int(&t, (*row)[static_cast<std::size_t>(j)]);
    }
    t += '\n';
  }
  append_edges(&t, list);

  std::int64_t max_min = 0;
  std::int64_t sum_min = 0;
  for (int j = 0; j < n; ++j) {
    const std::int64_t lo =
        std::min(t0[static_cast<std::size_t>(j)], t1[static_cast<std::size_t>(j)]);
    max_min = std::max(max_min, lo);
    sum_min += lo;
  }
  // max(max_min, sum_min / 2), compared exactly.
  if (2 * max_min >= sum_min) {
    inst.lb_num = max_min;
    inst.lb_den = 1;
  } else {
    inst.lb_num = sum_min;
    inst.lb_den = 2;
  }
  finish(&inst);
  return inst;
}

const std::vector<MixClass>& cold_mix_classes() {
  // Counts per block, set so that every class but q2_exact takes a
  // comparable share of solve time (README.md records the measured shares).
  static const std::vector<MixClass> classes = {
      {"r2_fptas", 12}, {"r2_exact", 160}, {"alg1", 90},
      {"bb_proved", 130}, {"bb_fallthrough", 1}, {"q2_exact", 8},
  };
  return classes;
}

namespace {

Instance make_mix_instance(const std::string& cls, Rng& rng) {
  if (cls == "r2_fptas") return gen_r2(rng, cls, 800, 800, 1000, 400);
  if (cls == "r2_exact") return gen_r2(rng, cls, 200, 200, 50, 100);
  if (cls == "alg1") return gen_gilbert_uniform(rng, cls, 2000, 2000, 2.0, 4, 8);
  if (cls == "bb_proved") return gen_gilbert_uniform(rng, cls, 10, 10, 2.0, 3, 8);
  if (cls == "bb_fallthrough") return gen_gilbert_uniform(rng, cls, 30, 30, 2.0, 3, 8);
  return gen_gilbert_uniform(rng, cls, 500, 500, 2.0, 2, 8);  // q2_exact
}

}  // namespace

std::vector<Instance> cold_mix_block(std::uint64_t seed, std::uint64_t b) {
  Rng order(mix_seed(seed ^ 0xc01dULL, b));
  std::vector<std::string> classes;
  for (const MixClass& c : cold_mix_classes()) {
    for (int k = 0; k < c.per_block; ++k) classes.emplace_back(c.name);
  }
  for (std::size_t i = classes.size(); i > 1; --i) {
    std::swap(classes[i - 1], classes[static_cast<std::size_t>(
                                  order.range(0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<Instance> out;
  out.reserve(classes.size());
  for (std::size_t i = 0; i < classes.size(); ++i) {
    Rng rng(mix_seed(mix_seed(seed, b), i));
    out.push_back(make_mix_instance(classes[i], rng));
  }
  return out;
}

std::vector<Instance> hot_repeat_set(std::uint64_t seed) {
  std::vector<Instance> out;
  for (std::uint64_t i = 0; i < 64; ++i) {
    Rng rng(mix_seed(seed ^ 0x407ULL, i));
    out.push_back(gen_gilbert_uniform(rng, "hot", 1000, 1000, 2.0, 3, 8));
  }
  return out;
}

std::vector<Instance> routed_warm_set(std::uint64_t seed) {
  std::vector<Instance> out;
  for (std::uint64_t i = 0; i < 256; ++i) {
    Rng rng(mix_seed(seed ^ 0x7047ULL, i));
    out.push_back(gen_gilbert_uniform(rng, "routed", 100, 100, 2.0, 3, 8));
  }
  return out;
}

bool meets_lower_bound(const Instance& inst, const std::string& makespan) {
  __int128 num = 0;
  __int128 den = 1;
  if (!parse_rational(makespan, &num, &den)) return false;
  // num/den >= lb_num/lb_den, all denominators positive.
  return num * inst.lb_den >= inst.lb_num * den;
}

}  // namespace perfbench
