// Simulator tests: the scenario codec (golden-pinned canonical encoding,
// seed determinism, trace round trips), the in-process driver (cache-warmth
// dynamics must show up in the tier counters), the report renderers, and
// the acceptance path — a subprocess `bisched_cli route` fleet with
// BISCHED_FAULT crashing a backend mid-replay, where the driver must
// complete with zero visible errors while the report carries the router's
// retry/respawn counters.
#include "engine/sim/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_process.hpp"
#include "engine/sim/driver.hpp"
#include "engine/sim/report.hpp"
#include "engine/telemetry/metrics.hpp"
#include "io/jsonl.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::sim::DriverOptions;
using engine::sim::DriverResult;
using engine::sim::InProcessEngine;
using engine::sim::Scenario;
using engine::sim::SimEndpoint;
using engine::sim::Trace;

// --------------------------------------------------------- scenario codec ---

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string small_scenario_text() {
  return R"({"v": 1, "scenario": "warmup", "seed": 7}
{"phase": "cold", "arrival": "poisson", "rate_rps": 400, "duration_ms": 150, "family": "gilbert", "n": 8, "machines": 3, "repeat_p": 0}
{"phase": "warm", "arrival": "burst", "burst_size": 12, "burst_every_ms": 30, "duration_ms": 150, "family": "gilbert", "n": 8, "machines": 3, "repeat_p": 0.9}
)";
}

#ifdef BISCHED_GOLDEN_DIR

// The checked-in golden (all three arrival processes, all three instance
// families, per-phase alg/eps overrides) IS the canonical encoding:
// encode(parse(golden)) must reproduce it byte for byte. A diff here means
// the scenario format changed — bump kScenarioVersion and regenerate.
TEST(SimScenario, GoldenCanonicalEncodingIsAFixedPoint) {
  const std::string path =
      std::string(BISCHED_GOLDEN_DIR) + "/sim_scenario_v1.jsonl";
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "golden file missing: " << path;

  std::string error;
  const auto scenario = engine::sim::parse_scenario(golden, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->name, "golden-mix");
  EXPECT_EQ(scenario->seed, 42u);
  ASSERT_EQ(scenario->phases.size(), 3u);
  EXPECT_EQ(scenario->phases[0].arrival, "poisson");
  EXPECT_EQ(scenario->phases[1].arrival, "burst");
  EXPECT_EQ(scenario->phases[2].arrival, "ramp");
  EXPECT_EQ(scenario->phases[2].mix.family, "r2");
  EXPECT_TRUE(scenario->phases[2].has_eps);

  EXPECT_EQ(engine::sim::encode_scenario(*scenario), golden);
}

#endif  // BISCHED_GOLDEN_DIR

TEST(SimScenario, ParseRejectsMalformedInput) {
  std::string error;
  // Unknown key.
  EXPECT_FALSE(engine::sim::parse_scenario(
                   "{\"v\": 1, \"scenario\": \"x\"}\n"
                   "{\"phase\": \"p\", \"rate_rps\": 5, \"duration_ms\": 100, "
                   "\"bogus\": 1}\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  // Unknown arrival process.
  EXPECT_FALSE(engine::sim::parse_scenario(
                   "{\"v\": 1, \"scenario\": \"x\"}\n"
                   "{\"phase\": \"p\", \"arrival\": \"warp\", \"rate_rps\": 5, "
                   "\"duration_ms\": 100}\n",
                   &error)
                   .has_value());
  // A phase name that could not be a telemetry label or id prefix.
  EXPECT_FALSE(engine::sim::parse_scenario(
                   "{\"v\": 1, \"scenario\": \"x\"}\n"
                   "{\"phase\": \"a b\", \"rate_rps\": 5, \"duration_ms\": 100}\n",
                   &error)
                   .has_value());
  // Version drift is an error, not a guess.
  EXPECT_FALSE(
      engine::sim::parse_scenario("{\"v\": 2, \"scenario\": \"x\"}\n", &error)
          .has_value());
}

TEST(SimScenario, TraceGenerationIsSeedDeterministic) {
  std::string error;
  const auto scenario = engine::sim::parse_scenario(small_scenario_text(), &error);
  ASSERT_TRUE(scenario.has_value()) << error;

  const auto a = engine::sim::generate_trace(*scenario, 7, &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = engine::sim::generate_trace(*scenario, 7, &error);
  ASSERT_TRUE(b.has_value()) << error;
  ASSERT_FALSE(a->entries.empty());

  // Same seed: byte-identical expansion. Different seed: a different stream.
  EXPECT_EQ(engine::sim::encode_trace(*a), engine::sim::encode_trace(*b));
  const auto c = engine::sim::generate_trace(*scenario, 8, &error);
  ASSERT_TRUE(c.has_value()) << error;
  EXPECT_NE(engine::sim::encode_trace(*a), engine::sim::encode_trace(*c));

  // Send order, phase windows, and the repeat pool all survived expansion.
  std::int64_t last = 0;
  bool any_repeat = false;
  for (const auto& entry : a->entries) {
    EXPECT_GE(entry.t_us, last);
    last = entry.t_us;
    any_repeat = any_repeat || entry.repeat;
    ASSERT_FALSE(entry.instance.empty());
  }
  EXPECT_TRUE(any_repeat) << "repeat_p=0.9 phase drew no repeats";
}

TEST(SimScenario, TraceEncodeDecodeRoundTripsByteIdentically) {
  std::string error;
  const auto scenario = engine::sim::parse_scenario(small_scenario_text(), &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const auto trace = engine::sim::generate_trace(*scenario, 7, &error);
  ASSERT_TRUE(trace.has_value()) << error;

  const std::string encoded = engine::sim::encode_trace(*trace);
  const auto decoded = engine::sim::decode_trace(encoded, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(engine::sim::encode_trace(*decoded), encoded);
  EXPECT_EQ(decoded->entries.size(), trace->entries.size());
  EXPECT_EQ(decoded->phases.size(), trace->phases.size());

  EXPECT_FALSE(engine::sim::decode_trace("not a trace\n", &error).has_value());
}

// ------------------------------------------------------- in-process driver ---

TEST(SimDriver, InProcessReplayWarmPhaseHitsTheCache) {
  std::string error;
  const auto scenario = engine::sim::parse_scenario(small_scenario_text(), &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const auto trace = engine::sim::generate_trace(*scenario, 7, &error);
  ASSERT_TRUE(trace.has_value()) << error;

  engine::WarmState warm;
  engine::telemetry::Registry registry;
  InProcessEngine in_process;
  in_process.registry = &engine::SolverRegistry::builtin();
  in_process.warm = &warm;
  DriverOptions options;
  options.connections = 1;  // sequential: byte-deterministic replay
  options.stable_outputs = true;
  const DriverResult result =
      engine::sim::run_driver(*trace, SimEndpoint{}, options, registry, in_process);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.samples.size(), trace->entries.size());
  for (const auto& sample : result.samples) {
    EXPECT_TRUE(sample.ok) << sample.output;
    ASSERT_FALSE(sample.output.empty());
  }

  const auto phases = engine::sim::summarize(*trace, result, registry);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "cold");
  EXPECT_EQ(phases[1].name, "warm");
  EXPECT_EQ(phases[0].errors, 0u);
  EXPECT_EQ(phases[1].errors, 0u);
  EXPECT_EQ(phases[0].requests + phases[1].requests, result.samples.size());
  // The whole point of repeat_p: the warm phase must be served warmer than
  // the cold one (which, with a fresh state, is all misses).
  EXPECT_EQ(phases[0].tier_memory, 0u);
  EXPECT_GT(phases[1].tier_memory, phases[1].requests / 2);
  EXPECT_GT(phases[0].p50_ms, 0);

  // Two sequential replays of one trace produce identical response lines.
  engine::WarmState warm2;
  engine::telemetry::Registry registry2;
  in_process.warm = &warm2;
  const DriverResult again =
      engine::sim::run_driver(*trace, SimEndpoint{}, options, registry2, in_process);
  ASSERT_TRUE(again.ok) << again.error;
  ASSERT_EQ(again.samples.size(), result.samples.size());
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    EXPECT_EQ(again.samples[i].output, result.samples[i].output) << i;
  }
}

TEST(SimReport, JsonAndHtmlCarryThePhaseRows) {
  std::string error;
  const auto scenario = engine::sim::parse_scenario(small_scenario_text(), &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const auto trace = engine::sim::generate_trace(*scenario, 7, &error);
  ASSERT_TRUE(trace.has_value()) << error;

  engine::WarmState warm;
  engine::telemetry::Registry registry;
  InProcessEngine in_process;
  in_process.registry = &engine::SolverRegistry::builtin();
  in_process.warm = &warm;
  DriverOptions options;
  options.connections = 2;
  const DriverResult result =
      engine::sim::run_driver(*trace, SimEndpoint{}, options, registry, in_process);
  ASSERT_TRUE(result.ok) << result.error;

  const auto phases = engine::sim::summarize(*trace, result, registry);
  engine::sim::ReportOptions report;
  report.scenario = trace->scenario;
  report.seed = trace->seed;
  report.mode = "in-process";
  report.connections = options.connections;
  report.sla_ms = options.sla_ms;

  const std::string json =
      engine::sim::render_report_json(*trace, result, phases, report);
  EXPECT_NE(json.find("\"bench\": \"sim\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"cold\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"warm\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"total\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"sla_miss\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_memory\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"warmup\""), std::string::npos);
  // The document is the repo's flat-JSON dialect: every row parses.
  std::istringstream lines(json);
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("  {", 0) != 0) continue;
    if (line.back() == ',') line.pop_back();
    ASSERT_TRUE(parse_flat_json_object(line, &error).has_value())
        << error << " in " << line;
    ++rows;
  }
  EXPECT_EQ(rows, 3);  // cold, warm, total

  const std::string html =
      engine::sim::render_report_html(*trace, result, phases, report);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("Latency over time"), std::string::npos);
  EXPECT_NE(html.find("warmup"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

// ----------------------------------------------------- acceptance (fleet) ---
// Subprocess `bisched_cli route` fleet on a unix socket with a backend that
// BISCHED_FAULT-crashes mid-replay: the driver completes every request with
// zero visible errors, and the report carries the router's own counters.

#ifdef BISCHED_CLI_PATH

TEST(SimCli, FleetReplayAbsorbsABackendCrashInvisibly) {
  const auto dir = fs::temp_directory_path() / "bisched_sim_fleet";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = (dir / "route.sock").string();

  // Crash backend 0 after 5 solve frames; the supervisor respawns it (with
  // the fault still armed, so it keeps crashing — the router must keep
  // absorbing).
  testing::CliServer fleet({"route", "--fleet=2", "--stable", "--deadline-ms=20000",
                            "--listen=unix:" + socket_path},
                           {{"BISCHED_FAULT", "backend=0;crash-after:5"}});
  ASSERT_TRUE(fleet.ready()) << "router never started listening: " << fleet.log();

  std::string error;
  const auto scenario = engine::sim::parse_scenario(small_scenario_text(), &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const auto trace = engine::sim::generate_trace(*scenario, 7, &error);
  ASSERT_TRUE(trace.has_value()) << error;

  SimEndpoint endpoint;
  endpoint.kind = SimEndpoint::Kind::kUnix;
  endpoint.path = socket_path;
  DriverOptions options;
  options.connections = 2;
  options.timeout_ms = 20000;
  options.max_attempts = 5;
  engine::telemetry::Registry registry;
  const DriverResult result =
      engine::sim::run_driver(*trace, endpoint, options, registry);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.samples.size(), trace->entries.size());
  // Acceptance: a crashing backend is the ROUTER's problem. Every replayed
  // request succeeds from the driver's point of view.
  for (const auto& sample : result.samples) {
    EXPECT_TRUE(sample.ok) << sample.output;
  }

  // ...and the report admits the crash happened: the scraped stats frame
  // carries nonzero retries (and at least one respawn).
  ASSERT_FALSE(result.server_stats.empty());
  EXPECT_EQ(result.server_stats.at("role"), "router");
  EXPECT_GT(std::atol(result.server_stats.at("retries").c_str()), 0);
  EXPECT_GT(std::atol(result.server_stats.at("respawns").c_str()), 0);
  EXPECT_EQ(std::atol(result.server_stats.at("errors").c_str()), 0);
  const auto phases = engine::sim::summarize(*trace, result, registry);
  std::uint64_t errors = 0;
  for (const auto& p : phases) errors += p.errors;
  EXPECT_EQ(errors, 0u);
  engine::sim::ReportOptions report;
  report.mode = "unix";
  const std::string json =
      engine::sim::render_report_json(*trace, result, phases, report);
  EXPECT_NE(json.find("\"server_retries\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"server_respawns\": "), std::string::npos) << json;

  // Shut the fleet down and reap it.
  EXPECT_NE(fleet.stop(), -1) << fleet.log();

  fs::remove_all(dir);
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
