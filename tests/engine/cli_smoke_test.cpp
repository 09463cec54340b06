// End-to-end smokes through real `bisched_cli` processes, one test per
// surface: batch shards, a store warmed by one batch process and read by
// the next, socket serve with its `client` and `metrics` peers and the slow
// log, TCP serve off a warm store and its public-bind refusal, the
// `list-algs --json` catalog, SIMD dispatch, and `sim` — deterministic
// in-process replays, a saved trace through a fleet whose backend keeps
// crashing, and 64 connections plus a pipelined client on one TCP serve.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli_process.hpp"
#include "io/jsonl.hpp"

namespace bisched {
namespace {

#ifdef BISCHED_CLI_PATH

namespace fs = std::filesystem;

using testing::CliRun;
using testing::CliServer;
using testing::run_cli;
using Members = std::map<std::string, std::string>;

// Two phases of tiny n=8 requests: all misses, then 90% repeats.
constexpr const char* kScenario =
    R"({"v": 1, "scenario": "cli-smoke", "seed": 7}
{"phase": "cold", "arrival": "poisson", "rate_rps": 300, "duration_ms": 200, "family": "gilbert", "n": 8, "machines": 3, "repeat_p": 0}
{"phase": "warm", "arrival": "burst", "burst_size": 10, "burst_every_ms": 40, "duration_ms": 200, "family": "gilbert", "n": 8, "machines": 3, "repeat_p": 0.9}
)";

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  return lines;
}

// True when one line of `text` holds `parts` in this order (grep's A.*B).
bool line_has(const std::string& text, std::initializer_list<std::string_view> parts) {
  for (const std::string& line : lines_of(text)) {
    std::size_t at = 0;
    bool all = true;
    for (const std::string_view part : parts) {
      at = line.find(part, at);
      if (at == std::string::npos) {
        all = false;
        break;
      }
      at += part.size();
    }
    if (all) return true;
  }
  return false;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

// `text` as one JSON object (nested arrays and objects stay raw text); a
// test failure when it does not parse.
Members json_object(const std::string& text) {
  std::string error;
  auto members =
      parse_flat_json_object(text.substr(0, text.find_last_not_of(" \n") + 1), &error);
  EXPECT_TRUE(members.has_value()) << error << " in " << text;
  return members.value_or(Members{});
}

// The elements of a raw JSON array of objects, each through json_object.
std::vector<Members> json_objects(const std::string& array) {
  std::vector<Members> objects;
  int depth = 0;
  bool quoted = false;
  bool escaped = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i < array.size(); ++i) {
    const char c = array[i];
    if (quoted) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == '[' || c == '{') {
      if (++depth == 2) start = i;
    } else if (c == ']' || c == '}') {
      if (depth-- == 2 && c == '}') {
        objects.push_back(json_object(array.substr(start, i - start + 1)));
      }
    }
  }
  return objects;
}

// A sim report's rows by phase.
std::map<std::string, Members> report_rows(const std::string& path) {
  Members doc = json_object(slurp(path));
  EXPECT_EQ(doc["bench"], "sim");
  std::map<std::string, Members> rows;
  for (Members& row : json_objects(doc["rows"])) rows[row["phase"]] = std::move(row);
  return rows;
}

long long number(const Members& row, const std::string& key) {
  const auto it = row.find(key);
  return it == row.end() ? -1 : std::atoll(it->second.c_str());
}

class CliSmoke : public ::testing::Test {
 protected:
  // Five `gen gilbert` instances in corpus/ and the scenario file.
  static void SetUpTestSuite() {
    fs::remove_all(dir());
    fs::create_directories(dir() / "corpus");
    for (int i = 1; i <= 5; ++i) {
      const CliRun gen = run_cli({"gen", "gilbert", "--n=12", "--a=2", "--m=3",
                                  "--seed=" + std::to_string(i)});
      ASSERT_EQ(gen.exit_code, 0) << gen.err;
      std::ofstream(instance(i)) << gen.out;
    }
    std::ofstream(path("scenario.jsonl")) << kScenario;
  }

  static void TearDownTestSuite() { fs::remove_all(dir()); }

  static fs::path dir() {
    return fs::temp_directory_path() / ("bisched_cli_smoke_" + std::to_string(::getpid()));
  }
  static std::string path(const std::string& name) { return (dir() / name).string(); }
  static std::string corpus() { return path("corpus"); }
  static std::string instance(int i) {
    return (dir() / "corpus" / ("q" + std::to_string(i) + ".inst")).string();
  }

  static std::vector<std::string> sim_in_process(const std::string& tag) {
    return {"sim",
            "--scenario=" + path("scenario.jsonl"),
            "--seed=7",
            "--connections=1",
            "--stable",
            "--trace-out=" + path("trace-" + tag + ".txt"),
            "--out=" + path("sim-" + tag + ".out"),
            "--json-out=" + path("sim-" + tag + ".json")};
  }

  // The scenario's trace at seed 7 as an in-process `sim --trace-out`
  // saved it, run the first time a test asks.
  static std::string saved_trace() {
    const std::string trace = path("trace-1.txt");
    if (!fs::exists(trace)) {
      const CliRun run = run_cli(sim_in_process("1"));
      EXPECT_EQ(run.exit_code, 0) << run.err;
    }
    return trace;
  }
};

// ------------------------------------------------------------------ batch ---

TEST_F(CliSmoke, BatchShardsPartitionTheCorpus) {
  std::size_t rows = 0;
  for (const char* shard : {"--shard=0/2", "--shard=1/2"}) {
    const CliRun run = run_cli({"batch", "--dir=" + corpus(), shard, "--stable"});
    ASSERT_EQ(run.exit_code, 0) << run.err;
    rows += lines_of(run.out).size() - 1;  // less the CSV header
  }
  EXPECT_EQ(rows, 5u);
}

TEST_F(CliSmoke, SecondBatchProcessAnswersEveryRowFromTheDiskTier) {
  const std::vector<std::string> args = {"batch", "--dir=" + corpus(), "--stable",
                                         "--threads=1", "--store=" + path("batch-store")};
  const CliRun cold = run_cli(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const CliRun warm = run_cli(args);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_EQ(count_of(warm.out, "hit-disk,hit-disk"), 5u) << warm.out;
  EXPECT_EQ(cold.out.find("hit-disk"), std::string::npos) << cold.out;
  // Identical rows apart from the two provenance columns.
  const auto provenance_free = [](std::string text) {
    for (const std::string tier : {"hit-disk", "hit-memory"}) {
      for (auto at = text.find(tier); at != std::string::npos; at = text.find(tier, at)) {
        text.replace(at, tier.size(), "miss");
      }
    }
    return text;
  };
  EXPECT_EQ(provenance_free(warm.out), provenance_free(cold.out));
}

// ------------------------------------------------------------------ serve ---

TEST_F(CliSmoke, SocketServeAnswersConcurrentClientsAndExposesItsCounters) {
  CliServer server({"serve", "--listen=unix:" + path("serve.sock"), "--threads=1",
                    "--stable", "--slow-ms=0"});
  ASSERT_TRUE(server.ready()) << server.log();

  // Two client processes at once against the one resident server.
  CliRun clients[2];
  std::thread threads[2];
  for (int i = 0; i < 2; ++i) {
    threads[i] = std::thread([&, i] {
      clients[i] = run_cli({"client", "--connect=" + server.endpoint()},
                           "solve " + instance(i + 1) + " c" + std::to_string(i + 1) + "\n");
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(clients[i].exit_code, 0) << clients[i].err << server.log();
    const std::string id = "\"id\": \"c" + std::to_string(i + 1) + "\"";
    EXPECT_TRUE(line_has(clients[i].out, {id, "\"status\": \"ok\""})) << clients[i].out;
  }

  // Both solves are settled (their clients exited), so the counters are exact.
  const CliRun scrape = run_cli({"metrics", "--connect=" + server.endpoint()});
  ASSERT_EQ(scrape.exit_code, 0) << scrape.err << server.log();
  for (const char* sample : {"# TYPE bisched_solve_latency_ms histogram",
                             "bisched_solves_total{status=\"ok\"} 2",
                             "bisched_serve_frames_total{type=\"solve\"} 2",
                             "bisched_cache_lookups_total{cache=\"profile\",result=\"miss\"} 2",
                             "bisched_simd_level{level=\""}) {
    EXPECT_NE(scrape.out.find(sample), std::string::npos) << sample << "\n" << scrape.out;
  }
  // Exposition syntax: every sample line is `series value`.
  for (const std::string& line : lines_of(scrape.out)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::size_t fields = 0;
    for (std::string word; words >> word;) ++fields;
    EXPECT_EQ(fields, 2u) << line;
  }

  ASSERT_EQ(server.stop(), 0) << server.log();
  const std::string log = server.log();
  EXPECT_NE(log.find("4 sessions"), std::string::npos) << log;  // 2 clients, scrape, shutdown
  // --slow-ms=0 logs every solve with its trace id, status and span tree.
  EXPECT_EQ(count_of(log, "serve: slow-request trace=t-"), 2u) << log;
  EXPECT_TRUE(line_has(log, {"serve: slow-request trace=t-", " status=ok ", " spans=request:"}))
      << log;
}

TEST_F(CliSmoke, TcpServeAnswersOffAWarmStoreAndRefusesAPublicBind) {
  const std::string store = path("tcp-store");
  const CliRun warmup = run_cli(
      {"batch", "--dir=" + corpus(), "--stable", "--threads=1", "--store=" + store});
  ASSERT_EQ(warmup.exit_code, 0) << warmup.err;
  {
    CliServer server({"serve", "--listen=tcp:127.0.0.1:0", "--threads=1", "--stable",
                      "--store=" + store});
    ASSERT_TRUE(server.ready()) << server.log();
    const CliRun client = run_cli({"client", "--connect=" + server.endpoint()},
                                  "solve " + instance(1) + " over-tcp\n");
    EXPECT_TRUE(line_has(client.out, {"\"id\": \"over-tcp\"", "\"solve_cache\": \"hit-disk\""}))
        << client.out << server.log();
    EXPECT_EQ(server.stop(), 0) << server.log();
  }
  // A wildcard bind without --allow-remote exits instead of serving.
  CliServer refused({"serve", "--listen=tcp:0.0.0.0:0", "--threads=1"});
  EXPECT_FALSE(refused.ready()) << refused.log();
  EXPECT_NE(refused.stop(), 0);
  EXPECT_NE(refused.log().find("allow-remote"), std::string::npos) << refused.log();
}

// ---------------------------------------------------------------- catalog ---

TEST_F(CliSmoke, ListAlgsJsonAdvertisesTheGraphClassLattice) {
  const CliRun run = run_cli({"list-algs", "--json"});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  Members doc = json_object(run.out);
  EXPECT_NE(doc["simd"], "");
  std::map<std::string, std::string> parents;
  for (Members& cls : json_objects(doc["graph_classes"])) parents[cls["name"]] = cls["parents"];
  EXPECT_EQ(parents["complete-multipartite"], R"(["any"])");
  EXPECT_EQ(parents["complete-bipartite"], R"(["bipartite", "complete-multipartite"])");
  std::map<std::string, std::string> graph_of;
  for (Members& solver : json_objects(doc["solvers"])) graph_of[solver["name"]] = solver["graph"];
  EXPECT_EQ(graph_of["kab"], "complete-bipartite");
}

TEST_F(CliSmoke, ScalarDispatchSolvesByteIdenticallyToTheDefault) {
  const std::vector<std::string> args = {"solve", "--alg=auto", "--json", "--stable",
                                         instance(1)};
  const CliRun dispatched = run_cli(args, "", {{"BISCHED_SIMD", std::nullopt}});
  const CliRun scalar = run_cli(args, "", {{"BISCHED_SIMD", "scalar"}});
  ASSERT_EQ(dispatched.exit_code, 0) << dispatched.err;
  ASSERT_EQ(scalar.exit_code, 0) << scalar.err;
  EXPECT_EQ(scalar.out, dispatched.out);
}

// -------------------------------------------------------------------- sim ---

TEST_F(CliSmoke, InProcessSimRepeatsByteForByteAndWarmsItsSecondPhase) {
  for (const char* tag : {"1", "2"}) {
    auto args = sim_in_process(tag);
    args.push_back("--html-out=" + path(std::string("sim-") + tag + ".html"));
    const CliRun run = run_cli(args);
    ASSERT_EQ(run.exit_code, 0) << run.err;
  }
  const std::string trace = slurp(path("trace-1.txt"));
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(slurp(path("trace-2.txt")), trace);
  EXPECT_EQ(slurp(path("sim-2.out")), slurp(path("sim-1.out")));

  auto rows = report_rows(path("sim-1.json"));
  std::vector<std::string> phases;
  for (const auto& [phase, row] : rows) phases.push_back(phase);
  EXPECT_EQ(phases, (std::vector<std::string>{"cold", "total", "warm"}));
  for (const char* phase : {"cold", "warm"}) {
    const Members& row = rows[phase];
    for (const char* key : {"requests", "ok", "errors", "retries", "sla_miss", "p50_ms",
                            "p95_ms", "p99_ms", "mean_ms", "send_delay_p95_ms",
                            "hit_memory", "hit_disk", "miss"}) {
      EXPECT_EQ(row.count(key), 1u) << phase << " lacks " << key;
    }
    EXPECT_EQ(number(row, "errors"), 0) << phase;
    EXPECT_GT(number(row, "requests"), 0) << phase;
    EXPECT_EQ(number(row, "ok"), number(row, "requests")) << phase;
  }
  Members& total = rows["total"];
  for (const char* key : {"scenario", "seed", "mode", "connections", "sla_ms", "wall_ms"}) {
    EXPECT_EQ(total.count(key), 1u) << "total lacks " << key;
  }
  EXPECT_EQ(total["scenario"], "cli-smoke");
  EXPECT_EQ(total["mode"], "in-process");
  // The repeat_p=0.9 phase is served warmer than the all-miss cold one.
  EXPECT_EQ(number(rows["cold"], "hit_memory"), 0);
  EXPECT_GT(number(rows["warm"], "hit_memory"), number(rows["warm"], "requests") / 2);

  const std::string html = slurp(path("sim-1.html"));
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

TEST_F(CliSmoke, InProcessSimWarmsTheStoreItIsGiven) {
  const std::string store = path("sim-store");
  auto args = sim_in_process("store");
  args.push_back("--store=" + store);
  const CliRun run = run_cli(args);
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const CliRun stats = run_cli({"stats", "--store=" + store});
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  for (const char* ns : {"profile namespace: ", "result namespace: "}) {
    const auto at = stats.out.find(ns);
    ASSERT_NE(at, std::string::npos) << stats.out;
    EXPECT_GT(std::atol(stats.out.c_str() + at + std::string(ns).size()), 0) << stats.out;
  }
}

TEST_F(CliSmoke, SavedTraceReplaysThroughACrashingFleetWithoutClientErrors) {
  const std::string trace = saved_trace();
  // Backend 0 crashes after every 5 solves; the router must absorb it.
  CliServer fleet({"route", "--fleet=2", "--stable", "--deadline-ms=60000",
                   "--listen=unix:" + path("fleet.sock")},
                  {{"BISCHED_FAULT", "backend=0;crash-after:5"}});
  ASSERT_TRUE(fleet.ready()) << fleet.log();
  const CliRun replay =
      run_cli({"sim", "--trace-in=" + trace, "--connect=" + fleet.endpoint(),
               "--connections=2", "--max-attempts=5", "--timeout-ms=60000",
               "--json-out=" + path("sim-fleet.json")});
  ASSERT_EQ(replay.exit_code, 0) << replay.err << fleet.log();

  auto rows = report_rows(path("sim-fleet.json"));
  Members& total = rows["total"];
  EXPECT_EQ(total["mode"], "unix");
  EXPECT_EQ(number(total, "errors"), 0);
  EXPECT_EQ(number(total, "ok"), number(total, "requests"));
  EXPECT_EQ(total["server_role"], "router");
  EXPECT_GT(number(total, "server_retries"), 0);
  EXPECT_GT(number(total, "server_respawns"), 0);
  EXPECT_EQ(number(total, "server_errors"), 0);
  EXPECT_EQ(fleet.stop(), 0) << fleet.log();
}

TEST_F(CliSmoke, TcpServeTakesSixtyFourConnectionsAndAnswersAPipelineInOrder) {
  const std::string trace = saved_trace();
  CliServer server({"serve", "--listen=tcp:127.0.0.1:0", "--threads=1", "--stable"});
  ASSERT_TRUE(server.ready()) << server.log();

  const CliRun replay =
      run_cli({"sim", "--trace-in=" + trace, "--connect=" + server.endpoint(),
               "--connections=64", "--timeout-ms=60000",
               "--json-out=" + path("sim-async.json")});
  ASSERT_EQ(replay.exit_code, 0) << replay.err << server.log();
  auto rows = report_rows(path("sim-async.json"));
  Members& total = rows["total"];
  EXPECT_EQ(total["mode"], "tcp");
  EXPECT_EQ(number(total, "connections"), 64);
  EXPECT_EQ(number(total, "errors"), 0);
  EXPECT_EQ(number(total, "ok"), number(total, "requests"));

  // Five frames sent four ahead of the reads come back in send order.
  std::string frames;
  for (int i = 1; i <= 5; ++i) {
    frames += "solve " + instance(i) + " p" + std::to_string(i) + "\n";
  }
  const CliRun pipelined =
      run_cli({"client", "--connect=" + server.endpoint(), "--pipeline=4"}, frames);
  EXPECT_EQ(pipelined.exit_code, 0) << pipelined.err;
  EXPECT_NE(pipelined.err.find("client: 5 responses over a window of 4, seq-ordered"),
            std::string::npos)
      << pipelined.err;
  for (int i = 1; i <= 5; ++i) {
    const std::string id = "\"id\": \"p" + std::to_string(i) + "\"";
    EXPECT_TRUE(line_has(pipelined.out, {id, "\"status\": \"ok\""})) << pipelined.out;
  }

  // The event-loop series ride the same scrape as everything else.
  const CliRun scrape = run_cli({"metrics", "--connect=" + server.endpoint()});
  ASSERT_EQ(scrape.exit_code, 0) << scrape.err;
  for (const char* series : {"bisched_serve_open_sessions", "bisched_serve_parked_sessions",
                             "bisched_serve_pipeline_depth_peak",
                             "bisched_serve_loop_wakeups_total"}) {
    EXPECT_NE(("\n" + scrape.out).find("\n" + std::string(series) + " "), std::string::npos)
        << series << "\n" << scrape.out;
  }
  EXPECT_EQ(server.stop(), 0) << server.log();
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
