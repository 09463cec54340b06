// The sim report: what a replay measured, in two renderings.
//
// Summaries are built per phase from the driver's telemetry registry — the
// p50/p95/p99 in the report are HistogramSnapshot::percentile over the
// bisched_sim_latency_ms series, the same estimate a PromQL
// histogram_quantile over a scrape would give, not a re-sort of raw samples.
// The raw RequestSamples feed only the time-series charts.
//
//   JSON  {"bench": "sim", "rows": [...]} — the BENCH_<name>.json dialect
//         every bench emits (bench/bench_util.hpp), one row per phase plus a
//         "total" row carrying run-level fields (scenario, seed, mode,
//         connections, driver wall time, and the server's own stats-frame
//         counters as server_*). Diffable across PRs.
//   HTML  one self-contained file, no external assets: inline-SVG latency
//         over time (per-time-bucket p50/p95), cache-tier mix as a stacked
//         area, and the per-phase summary table. Open it from a CI artifact
//         and the whole run is legible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/sim/driver.hpp"
#include "engine/sim/scenario.hpp"
#include "engine/telemetry/metrics.hpp"

namespace bisched::engine::sim {

// One phase's aggregate, sourced from the registry series + samples.
struct PhaseSummary {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t retries = 0;
  std::uint64_t sla_miss = 0;
  std::uint64_t tier_memory = 0;
  std::uint64_t tier_disk = 0;
  std::uint64_t tier_miss = 0;
  double p50_ms = 0;  // registry histogram percentiles
  double p95_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double send_delay_p95_ms = 0;
};

struct ReportOptions {
  std::string scenario;
  std::uint64_t seed = 0;
  std::string mode;  // "in-process" | "unix" | "tcp"
  int connections = 0;
  double sla_ms = 0;
  bool stable = false;  // zero the total row's wall_ms (byte-stable reports)
};

// Aggregates per phase, in trace phase order. `registry` must be the one
// run_driver registered its series into (lookup is by re-registration, which
// returns the existing objects — hence non-const).
std::vector<PhaseSummary> summarize(const Trace& trace, const DriverResult& result,
                                    telemetry::Registry& registry);

// The BENCH_sim JSON document (complete file contents, trailing newline).
std::string render_report_json(const Trace& trace, const DriverResult& result,
                               const std::vector<PhaseSummary>& phases,
                               const ReportOptions& options);

// The self-contained HTML report.
std::string render_report_html(const Trace& trace, const DriverResult& result,
                               const std::vector<PhaseSummary>& phases,
                               const ReportOptions& options);

}  // namespace bisched::engine::sim
