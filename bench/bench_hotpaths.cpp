// HOTPATHS — before/after microbenches for the profiled hot paths: the
// R2/R3 FPTAS DP grid (the workhorse behind Theorem 22, Algorithm 1 step 3,
// and every Q2 solver), Dinic's min-cut (Algorithm 1's independent-set
// step), and reading one warm serve request (record parse, content hash,
// request decode). "Before" is the old code preserved verbatim in
// tests/reference_{kernels,format,hash,jsonl}.hpp; "after" is the shipped
// library. Every comparison also checks the outputs are bit-identical, and
// the bench exits 1 when any row's `identical` is false — the differential
// tests prove it exhaustively, this is the tripwire in the timing loop.
//
// Emits BENCH_hotpaths.json (override with --json-out=PATH) with one row per
// configuration: wall times, instance size, the speedup, and p50/p95/p99 of
// the shipped kernel's per-trial latency from a telemetry histogram (the same
// bucket ladder and percentile math the serve scrape path exposes). --quick
// shrinks sizes and repetitions; ctest runs it that way and checks the
// report's rows (bench/check_hotpaths.cmake). Any other argument exits 2.
//
//   --quick          CI-sized run (seconds, not minutes)
//   --json-out=PATH  where to write the JSON report
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include <algorithm>
#include <functional>
#include <sstream>

#include "bench_util.hpp"
#include "engine/api.hpp"
#include "engine/telemetry/metrics.hpp"
#include "graph/maxflow.hpp"
#include "io/format.hpp"
#include "io/jsonl.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "reference_format.hpp"
#include "reference_hash.hpp"
#include "reference_jsonl.hpp"
#include "reference_kernels.hpp"
#include "sched/instance_hash.hpp"
#include "sched/makespan_solvers.hpp"
#include "sched/simd_dispatch.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace telemetry = engine::telemetry;

// Every row's `identical`, ANDed: main exits 1 when any comparison differed.
bool all_identical = true;

bool tally(bool identical) {
  all_identical = all_identical && identical;
  return identical;
}

// Forces the R2 row kernels onto one ISA level for a scope (BISCHED_SIMD +
// refresh), restoring detection-resolved dispatch on the way out.
class ScopedSimd {
 public:
  explicit ScopedSimd(SimdLevel level) {
    ::setenv("BISCHED_SIMD", to_string(level), 1);
    simd_refresh_level();
  }
  ~ScopedSimd() {
    ::unsetenv("BISCHED_SIMD");
    simd_refresh_level();
  }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;
};

std::vector<R2Job> random_r2_jobs(int n, std::int64_t tmax, Rng& rng) {
  std::vector<R2Job> jobs(static_cast<std::size_t>(n));
  for (auto& job : jobs) {
    job.p1 = rng.uniform_int(1, tmax);
    job.p2 = rng.uniform_int(1, tmax);
  }
  return jobs;
}

std::vector<R3Job> random_r3_jobs(int n, std::int64_t tmax, Rng& rng) {
  std::vector<R3Job> jobs(static_cast<std::size_t>(n));
  for (auto& job : jobs) {
    job.p1 = rng.uniform_int(1, tmax);
    job.p2 = rng.uniform_int(1, tmax);
    job.p3 = rng.uniform_int(1, tmax);
  }
  return jobs;
}

void r2_kernel_bench(bench::JsonReport& report, bool quick) {
  TextTable t("R2 FPTAS binary search: seed kernel vs arena + SIMD row, per ISA");
  t.set_header(
      {"isa", "n", "eps", "trials", "seed ms", "opt ms", "speedup", "identical"});
  const int trials = quick ? 2 : 5;
  const std::vector<std::pair<int, double>> configs =
      quick ? std::vector<std::pair<int, double>>{{60, 0.1}, {120, 0.05}}
            : std::vector<std::pair<int, double>>{
                  {200, 0.1}, {200, 0.05}, {400, 0.05}, {400, 0.02}};
  // One axis per dispatch level this host can run: the scalar row is the
  // portable floor, and the AVX2 vs AVX-512 rows isolate the lane-width win.
  for (const SimdLevel level : simd_available_levels()) {
    ScopedSimd forced(level);
    const char* isa = to_string(level);
    for (const auto& [n, eps] : configs) {
      double seed_ms = 0;
      double opt_ms = 0;
      bool identical = true;
      telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(derive_seed(bench::kBenchSeed + 17,
                            static_cast<std::uint64_t>(n) * 131 +
                                static_cast<std::uint64_t>(trial) * 7 +
                                static_cast<std::uint64_t>(eps * 1e4)));
        const auto jobs = random_r2_jobs(n, 1000, rng);
        Timer timer;
        const R2Result before = reference::r2_fptas(jobs, eps);
        seed_ms += timer.millis();
        timer.reset();
        const R2Result after = r2_fptas(jobs, eps);
        const double trial_ms = timer.millis();
        opt_ms += trial_ms;
        latency.observe(trial_ms);
        identical = identical && before.cmax == after.cmax &&
                    before.on_machine2 == after.on_machine2;
      }
      const double speedup = opt_ms > 0 ? seed_ms / opt_ms : 0;
      const auto lat = latency.snapshot();
      t.add_row({isa, fmt_count(n), fmt_double(eps, 2), fmt_count(trials),
                 fmt_double(seed_ms, 2), fmt_double(opt_ms, 2), fmt_ratio(speedup),
                 fmt_bool(identical)});
      report.add({{"kernel", "r2_fptas"},
                  {"isa", isa},
                  {"mode", "value-only"},
                  {"n", n},
                  {"eps", eps},
                  {"trials", trials},
                  {"seed_ms", seed_ms},
                  {"opt_ms", opt_ms},
                  {"p50_ms", lat.percentile(0.5)},
                  {"p95_ms", lat.percentile(0.95)},
                  {"p99_ms", lat.percentile(0.99)},
                  {"speedup", speedup},
                  {"identical", tally(identical)}});
    }
  }
  t.print(std::cout);
}

// The probe-mode ablation: identical instances solved with eager
// (choice-writing) probes and with value-only probes + one terminal
// materialization, at the host's resolved dispatch level. Isolates the
// memory-traffic saving of skipping the choice matrix during the search.
void probe_mode_bench(bench::JsonReport& report, bool quick) {
  TextTable t("FPTAS probe modes: eager choice-writing vs value-only search");
  t.set_header({"kernel", "n", "eps", "trials", "eager ms", "value-only ms",
                "speedup", "identical"});
  const char* isa = to_string(simd_level());
  const int trials = quick ? 2 : 5;

  {  // R2: the large shape — wide rows, many rejected probes.
    const int n = quick ? 160 : 600;
    const double eps = quick ? 0.05 : 0.02;
    double eager_ms = 0;
    double value_ms = 0;
    bool identical = true;
    telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(derive_seed(bench::kBenchSeed + 41,
                          static_cast<std::uint64_t>(n) * 131 +
                              static_cast<std::uint64_t>(trial) * 7));
      const auto jobs = random_r2_jobs(n, 2000, rng);
      Timer timer;
      const R2Result eager = r2_fptas(jobs, eps, ProbeMode::kEager);
      eager_ms += timer.millis();
      timer.reset();
      const R2Result value_only = r2_fptas(jobs, eps, ProbeMode::kValueOnly);
      const double trial_ms = timer.millis();
      value_ms += trial_ms;
      latency.observe(trial_ms);
      identical = identical && eager.cmax == value_only.cmax &&
                  eager.on_machine2 == value_only.on_machine2;
    }
    const double speedup = value_ms > 0 ? eager_ms / value_ms : 0;
    const auto lat = latency.snapshot();
    t.add_row({"r2_fptas", fmt_count(n), fmt_double(eps, 2), fmt_count(trials),
               fmt_double(eager_ms, 2), fmt_double(value_ms, 2), fmt_ratio(speedup),
               fmt_bool(identical)});
    report.add({{"kernel", "r2_probe_mode"},
                {"isa", isa},
                {"mode", "eager"},
                {"n", n},
                {"eps", eps},
                {"trials", trials},
                {"opt_ms", eager_ms},
                {"identical", tally(identical)}});
    report.add({{"kernel", "r2_probe_mode"},
                {"isa", isa},
                {"mode", "value-only"},
                {"n", n},
                {"eps", eps},
                {"trials", trials},
                {"opt_ms", value_ms},
                {"p50_ms", lat.percentile(0.5)},
                {"p95_ms", lat.percentile(0.95)},
                {"p99_ms", lat.percentile(0.99)},
                {"speedup_vs_eager", speedup},
                {"identical", tally(identical)}});
  }

  {  // R3: the 2-D grid — the choice matrix is quadratic, so the saving is
     // proportionally larger.
    const int n = quick ? 16 : 32;
    const double eps = quick ? 0.4 : 0.3;
    double eager_ms = 0;
    double value_ms = 0;
    bool identical = true;
    telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(derive_seed(bench::kBenchSeed + 43,
                          static_cast<std::uint64_t>(n) * 131 +
                              static_cast<std::uint64_t>(trial) * 7));
      const auto jobs = random_r3_jobs(n, 200, rng);
      Timer timer;
      const R3Result eager = r3_fptas(jobs, eps, ProbeMode::kEager);
      eager_ms += timer.millis();
      timer.reset();
      const R3Result value_only = r3_fptas(jobs, eps, ProbeMode::kValueOnly);
      const double trial_ms = timer.millis();
      value_ms += trial_ms;
      latency.observe(trial_ms);
      identical = identical && eager.cmax == value_only.cmax &&
                  eager.machine_of == value_only.machine_of;
    }
    const double speedup = value_ms > 0 ? eager_ms / value_ms : 0;
    const auto lat = latency.snapshot();
    t.add_row({"r3_fptas", fmt_count(n), fmt_double(eps, 2), fmt_count(trials),
               fmt_double(eager_ms, 2), fmt_double(value_ms, 2), fmt_ratio(speedup),
               fmt_bool(identical)});
    report.add({{"kernel", "r3_probe_mode"},
                {"isa", isa},
                {"mode", "eager"},
                {"n", n},
                {"eps", eps},
                {"trials", trials},
                {"opt_ms", eager_ms},
                {"identical", tally(identical)}});
    report.add({{"kernel", "r3_probe_mode"},
                {"isa", isa},
                {"mode", "value-only"},
                {"n", n},
                {"eps", eps},
                {"trials", trials},
                {"opt_ms", value_ms},
                {"p50_ms", lat.percentile(0.5)},
                {"p95_ms", lat.percentile(0.95)},
                {"p99_ms", lat.percentile(0.99)},
                {"speedup_vs_eager", speedup},
                {"identical", tally(identical)}});
  }
  t.print(std::cout);
}

void r3_kernel_bench(bench::JsonReport& report, bool quick) {
  TextTable t("R3 FPTAS binary search: seed kernel vs arena + window pruning");
  t.set_header({"n", "eps", "trials", "seed ms", "opt ms", "speedup", "identical"});
  const int trials = quick ? 2 : 4;
  const std::vector<std::pair<int, double>> configs =
      quick ? std::vector<std::pair<int, double>>{{16, 0.4}}
            : std::vector<std::pair<int, double>>{{24, 0.4}, {32, 0.3}};
  for (const auto& [n, eps] : configs) {
    double seed_ms = 0;
    double opt_ms = 0;
    bool identical = true;
    telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(derive_seed(bench::kBenchSeed + 23,
                          static_cast<std::uint64_t>(n) * 131 +
                              static_cast<std::uint64_t>(trial) * 7 +
                              static_cast<std::uint64_t>(eps * 1e4)));
      const auto jobs = random_r3_jobs(n, 200, rng);
      Timer timer;
      const R3Result before = reference::r3_fptas(jobs, eps);
      seed_ms += timer.millis();
      timer.reset();
      const R3Result after = r3_fptas(jobs, eps);
      const double trial_ms = timer.millis();
      opt_ms += trial_ms;
      latency.observe(trial_ms);
      identical = identical && before.cmax == after.cmax &&
                  before.machine_of == after.machine_of;
    }
    const double speedup = opt_ms > 0 ? seed_ms / opt_ms : 0;
    const auto lat = latency.snapshot();
    t.add_row({fmt_count(n), fmt_double(eps, 2), fmt_count(trials),
               fmt_double(seed_ms, 2), fmt_double(opt_ms, 2), fmt_ratio(speedup),
               fmt_bool(identical)});
    report.add({{"kernel", "r3_fptas"},
                {"mode", "value-only"},
                {"n", n},
                {"eps", eps},
                {"trials", trials},
                {"seed_ms", seed_ms},
                {"opt_ms", opt_ms},
                {"p50_ms", lat.percentile(0.5)},
                {"p95_ms", lat.percentile(0.95)},
                {"p99_ms", lat.percentile(0.99)},
                {"speedup", speedup},
                {"identical", tally(identical)}});
  }
  t.print(std::cout);
}

// The Algorithm-1 min-cut shape: a bipartite conflict graph turned into a
// flow network — source -> side-0 vertex (weight), side-0 -> side-1 neighbor
// (infinite), side-1 vertex -> sink (weight) — then max_flow + the residual
// BFS for the cut side.
template <typename DinicT>
std::pair<std::int64_t, std::int64_t> run_mincut(const Graph& g, int a,
                                                 const std::vector<std::int64_t>& w) {
  const int n = g.num_vertices();
  DinicT network(n + 2);
  const int source = n;
  const int sink = n + 1;
  for (int v = 0; v < n; ++v) {
    if (v < a) {
      network.add_edge(source, v, w[static_cast<std::size_t>(v)]);
      for (int u : g.neighbors(v)) network.add_edge(v, u, DinicT::kCapInfinity);
    } else {
      network.add_edge(v, sink, w[static_cast<std::size_t>(v)]);
    }
  }
  const std::int64_t flow = network.max_flow(source, sink);
  const auto side = network.min_cut_source_side(source);
  std::int64_t side_sum = 0;
  for (std::size_t v = 0; v < side.size(); ++v) {
    if (side[v]) side_sum += static_cast<std::int64_t>(v) + 1;
  }
  return {flow, side_sum};
}

void dinic_bench(bench::JsonReport& report, bool quick) {
  TextTable t("Dinic min-cut (Algorithm 1 shape): intrusive lists vs CSR");
  t.set_header({"vertices", "edges", "reps", "seed ms", "opt ms", "speedup", "identical"});
  const std::vector<std::pair<int, int>> configs =
      quick ? std::vector<std::pair<int, int>>{{200, 2}}
            : std::vector<std::pair<int, int>>{{500, 4}, {2000, 4}, {2000, 16}};
  const int reps = quick ? 10 : 30;
  for (const auto& [a, degree] : configs) {
    Rng rng(derive_seed(bench::kBenchSeed + 31,
                        static_cast<std::uint64_t>(a) * 67 +
                            static_cast<std::uint64_t>(degree)));
    const Graph g =
        random_bipartite_edges(a, a, static_cast<std::int64_t>(a) * degree, rng);
    std::vector<std::int64_t> w(static_cast<std::size_t>(2 * a));
    for (auto& x : w) x = rng.uniform_int(1, 50);

    double seed_ms = 0;
    double opt_ms = 0;
    bool identical = true;
    telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
    for (int rep = 0; rep < reps; ++rep) {
      Timer timer;
      const auto before = run_mincut<reference::Dinic>(g, a, w);
      seed_ms += timer.millis();
      timer.reset();
      const auto after = run_mincut<Dinic>(g, a, w);
      const double rep_ms = timer.millis();
      opt_ms += rep_ms;
      latency.observe(rep_ms);
      identical = identical && before == after;
    }
    const double speedup = opt_ms > 0 ? seed_ms / opt_ms : 0;
    const auto lat = latency.snapshot();
    const auto edges = static_cast<long long>(g.num_edges());
    t.add_row({fmt_count(2 * a), fmt_count(edges), fmt_count(reps),
               fmt_double(seed_ms, 2), fmt_double(opt_ms, 2), fmt_ratio(speedup),
               fmt_bool(identical)});
    report.add({{"kernel", "dinic_mincut"},
                {"vertices", 2 * a},
                {"edges", edges},
                {"reps", reps},
                {"seed_ms", seed_ms},
                {"opt_ms", opt_ms},
                {"p50_ms", lat.percentile(0.5)},
                {"p95_ms", lat.percentile(0.95)},
                {"p99_ms", lat.percentile(0.99)},
                {"speedup", speedup},
                {"identical", tally(identical)}});
  }
  t.print(std::cout);
}

// One warm serve request as the benchmark's hot_repeat workload sends it: a
// Gilbert 1000+1000 instance at mean degree 2 with unit jobs on 3 machines of
// speeds 1..8 (about 22 KB of text), and the same text inline in a v1 frame.
struct WarmRequest {
  std::string text;
  std::string frame;
};

WarmRequest warm_request() {
  Rng rng(derive_seed(bench::kBenchSeed + 53, 1000));
  Graph g = gilbert_bipartite(1000, 2.0 / 1000, rng);
  std::vector<std::int64_t> speeds(3);
  for (auto& s : speeds) s = rng.uniform_int(1, 8);
  std::ostringstream out;
  write_instance(out, make_uniform_instance(unit_weights(2000), std::move(speeds), std::move(g)));
  WarmRequest req;
  req.text = out.str();
  req.frame = "{\"v\": 1, \"id\": \"r1\", \"instance\": " + json_quote(req.text) + "}";
  return req;
}

// Times `before` and `after` once each per rep, alternating, and asks
// `identical` after every rep (outside the timed calls).
struct PairTiming {
  double seed_ms = 0;
  double opt_ms = 0;
  bool identical = true;
  telemetry::HistogramSnapshot latency;
};

PairTiming time_pair(int reps, const std::function<void()>& before,
                     const std::function<void()>& after,
                     const std::function<bool()>& identical) {
  PairTiming out;
  telemetry::Histogram latency(telemetry::Histogram::default_latency_bounds_ms());
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    before();
    out.seed_ms += timer.millis();
    timer.reset();
    after();
    const double rep_ms = timer.millis();
    out.opt_ms += rep_ms;
    latency.observe(rep_ms);
    out.identical = out.identical && identical();
  }
  out.latency = latency.snapshot();
  return out;
}

// Reading one warm request, layer by layer, against the code it replaced:
// the record parse (MB/s of instance text), the content hash (ns per hashed
// value) and decode_request_json (MB/s of frame).
void io_bench(bench::JsonReport& report, bool quick) {
  TextTable t("Reading a warm request (hot_repeat shape): old code vs shipped");
  t.set_header({"layer", "bytes", "reps", "seed", "opt", "unit", "speedup", "identical"});
  const int reps = quick ? 20 : 400;
  const WarmRequest req = warm_request();
  const auto mb_per_s = [reps](std::size_t bytes, double ms) {
    return ms > 0 ? static_cast<double>(bytes) * reps / (ms * 1e3) : 0;
  };
  const auto add_row = [&](const char* kernel, std::size_t bytes, const PairTiming& pair,
                           double seed_rate, double opt_rate, const char* unit) {
    const double speedup = pair.opt_ms > 0 ? pair.seed_ms / pair.opt_ms : 0;
    t.add_row({kernel, fmt_count(static_cast<long long>(bytes)), fmt_count(reps),
               fmt_double(seed_rate, 1), fmt_double(opt_rate, 1), unit, fmt_ratio(speedup),
               fmt_bool(pair.identical)});
    report.add({{"kernel", kernel},
                {"bytes", bytes},
                {"reps", reps},
                {"seed_ms", pair.seed_ms},
                {"opt_ms", pair.opt_ms},
                {"unit", unit},
                {"seed_rate", seed_rate},
                {"opt_rate", opt_rate},
                {"p50_ms", pair.latency.percentile(0.5)},
                {"p95_ms", pair.latency.percentile(0.95)},
                {"p99_ms", pair.latency.percentile(0.99)},
                {"speedup", speedup},
                {"identical", tally(pair.identical)}});
  };

  {  // The record parse: the pre-rewrite istream parser vs the push parser.
    ParsedInstance before;
    InstanceRecord after;
    const PairTiming pair = time_pair(
        reps,
        [&] {
          std::istringstream in(req.text);
          before = reference::parse_instance(in);
        },
        [&] { after = parse_instance_record(req.text); },
        [&] {
          return before.ok() && after.ok() && after.hash() == instance_hash(*before.uniform) &&
                 after.build().uniform->p == before.uniform->p;
        });
    add_row("io_parse", req.text.size(), pair, mb_per_s(req.text.size(), pair.seed_ms),
            mb_per_s(req.text.size(), pair.opt_ms), "MB/s");
  }

  {  // The content hash of the parsed record: byte-loop FNV vs the fold.
    const InstanceRecord record = parse_instance_record(req.text);
    const ParsedInstance built = record.build();
    const UniformInstance& inst = *built.uniform;
    std::vector<std::int64_t> speeds = inst.speeds;
    std::sort(speeds.begin(), speeds.end(), std::greater<>());
    std::uint64_t edge_sum = 0;
    for (int u = 0; u < inst.num_jobs(); ++u) {
      for (const int v : inst.conflicts.neighbors(u)) {
        if (v > u) edge_sum += edge_hash(u, v);
      }
    }
    const HashedContent content{.uniform = true,
                                .jobs = inst.num_jobs(),
                                .machines = inst.num_machines(),
                                .p = inst.p,
                                .speeds = speeds,
                                .times = {},
                                .edges = inst.conflicts.num_edges(),
                                .edge_sum = edge_sum};
    // Tag, n, m, p, speeds, the edge count and the edge sum.
    const auto values = static_cast<double>(5 + inst.num_jobs() + inst.num_machines());
    std::uint64_t before = 0;
    std::uint64_t after = 0;
    const PairTiming pair = time_pair(
        reps, [&] { before = reference::content_hash(content); },
        [&] { after = content_hash(content); },
        [&] { return before == after && after == record.hash(); });
    const auto ns_per_value = [&](double ms) { return ms * 1e6 / (reps * values); };
    add_row("content_hash", req.text.size(), pair, ns_per_value(pair.seed_ms),
            ns_per_value(pair.opt_ms), "ns/value");
  }

  {  // The request decode: the char-by-char flat parser copying the instance
     // out, as decode_request_json did, vs decode_request_json.
    std::string before;
    std::optional<engine::SolveRequest> after;
    const PairTiming pair = time_pair(
        reps,
        [&] {
          std::string error;
          const auto object = reference::parse_flat_json_object(req.frame, &error);
          before = object->at("instance");
        },
        [&] {
          std::string error;
          after = engine::decode_request_json(req.frame, &error);
        },
        [&] {
          return after.has_value() && after->has_inline_text && after->inline_text == before &&
                 before == req.text;
        });
    add_row("decode_request_json", req.frame.size(), pair,
            mb_per_s(req.frame.size(), pair.seed_ms), mb_per_s(req.frame.size(), pair.opt_ms),
            "MB/s");
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace bisched

int main(int argc, char** argv) {
  using namespace bisched;
  bool quick = false;
  std::string report_path = "BENCH_hotpaths.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.starts_with("--json-out=")) {
      report_path = arg.substr(std::string_view("--json-out=").size());
    } else {
      std::cerr << "unknown argument '" << arg
                << "'\nusage: bench_hotpaths [--quick] [--json-out=PATH]\n";
      return 2;
    }
  }
  bench::banner("HOTPATHS — DP-grid, min-cut and request-reading paths, before vs. after",
                "Arena + in-place window-pruned DP, CSR Dinic and the one-pass "
                "request read return bit-identical results at a fraction of the "
                "old cost");
  bench::JsonReport report("hotpaths", report_path);
  r2_kernel_bench(report, quick);
  r3_kernel_bench(report, quick);
  probe_mode_bench(report, quick);
  dinic_bench(report, quick);
  io_bench(report, quick);
  const bool written = report.write();
  if (!all_identical) {
    std::cerr << "hotpaths: a shipped path differed from its reference "
                 "(a row with identical=false)\n";
  }
  return written && all_identical ? 0 : 1;
}
