// Fleet tests: the routing primitives (hash ring, health tracker), the
// fault-injection spec parser, and the acceptance paths — a subprocess
// `bisched_cli route` over two supervised backends with BISCHED_FAULT
// crashing one mid-batch, where every client request must still be answered
// (retried/failed-over invisibly) and the responses must match a
// single-backend run byte-for-byte modulo placement provenance; a backend
// SIGKILLed mid-stream costing no client-visible error; pooled backend
// connections (reused on warm traffic, closed after a failed attempt,
// dropped when their backend respawns); pipelined responses coming back
// from the router in send order; and `client --pipeline` windowing native
// bodies and failing on unanswered frames.
#include "engine/fleet/hash_ring.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/fault.hpp"
#include "engine/fleet/health.hpp"
#include "engine/fleet/router.hpp"
#include "engine/registry.hpp"
#include "engine/serve.hpp"
#include "engine/transport.hpp"
#include "io/format.hpp"
#include "sched/instance_hash.hpp"
#include "testing_util.hpp"
#include "util/fnv.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::fleet::HashRing;
using engine::fleet::HealthTracker;

// ------------------------------------------------------------- hash ring ---

TEST(HashRing, OwnerIsDeterministicAndCandidatesPermuteAllBackends) {
  const HashRing ring(4);
  const HashRing twin(4);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const std::uint64_t key = i * 0x9E3779B97F4A7C15ull;
    // Placement is a pure function of (key, backend count): a router restart
    // (or a second router over the same fleet) routes identically.
    EXPECT_EQ(ring.owner(key), twin.owner(key));
    const auto candidates = ring.candidates(key);
    ASSERT_EQ(candidates.size(), 4u);
    EXPECT_EQ(candidates.front(), ring.owner(key));
    const std::set<std::size_t> unique(candidates.begin(), candidates.end());
    EXPECT_EQ(unique.size(), 4u);  // every backend exactly once
  }
}

TEST(HashRing, VirtualNodesKeepTheSlicesRoughlyBalanced) {
  const HashRing ring(4);
  std::vector<int> owned(4, 0);
  const int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i) {
    owned[ring.owner(static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull)]++;
  }
  for (int b = 0; b < 4; ++b) {
    // Perfect balance is 25%; 64 virtual nodes keep every slice within a
    // loose band (a single-point-per-backend ring routinely lands below 5%).
    EXPECT_GT(owned[b], kKeys / 10) << "backend " << b << " owns too little";
    EXPECT_LT(owned[b], kKeys / 2) << "backend " << b << " owns too much";
  }
}

TEST(HashRing, SingleBackendOwnsEverything) {
  const HashRing ring(1);
  for (std::uint64_t key : {0ull, 1ull, 0xFFFFFFFFFFFFFFFFull}) {
    EXPECT_EQ(ring.owner(key), 0u);
    EXPECT_EQ(ring.candidates(key), std::vector<std::size_t>{0});
  }
}

// -------------------------------------------------------------- placement ---

TEST(RouterPlacement, KeysByTheContentHashAndFallsBackToTheSourceText) {
  Rng rng(83);
  const auto inst = testing::random_uniform_instance(5, 4, 3, 9, 6, rng);
  std::ostringstream text;
  write_instance(text, inst);
  const std::uint64_t want = instance_hash(inst);

  engine::SolveRequest by_text;
  by_text.inline_text = text.str();
  by_text.has_inline_text = true;
  EXPECT_EQ(engine::fleet::placement_key(by_text), want);

  engine::SolveRequest by_record;
  by_record.parsed = std::make_shared<const InstanceRecord>(parse_instance_record(text.str()));
  EXPECT_EQ(engine::fleet::placement_key(by_record), want);

  const auto dir = fs::temp_directory_path() / "bisched_placement_key";
  fs::create_directories(dir);
  engine::SolveRequest by_path;
  by_path.path = (dir / "q.inst").string();
  {
    std::ofstream f(by_path.path);
    f << text.str();
  }
  EXPECT_EQ(engine::fleet::placement_key(by_path), want);
  fs::remove_all(dir);

  // Sources that do not parse key by their own text, deterministically.
  engine::SolveRequest garbage;
  garbage.inline_text = "bisched uniform v1\njobs two\n";
  garbage.has_inline_text = true;
  EXPECT_EQ(engine::fleet::placement_key(garbage), fnv1a(garbage.inline_text));
  engine::SolveRequest missing;
  missing.path = "/nonexistent/placement.inst";
  EXPECT_EQ(engine::fleet::placement_key(missing), fnv1a(missing.path));
}

// ---------------------------------------------------------------- health ---

TEST(HealthTracker, DemotesAfterConsecutiveFailuresAndReadmitsOnSuccess) {
  HealthTracker health(2, /*unhealthy_after=*/3);
  EXPECT_TRUE(health.healthy(0));
  EXPECT_EQ(health.healthy_count(), 2u);

  // One lost race does not eject a backend...
  health.record_failure(0);
  health.record_failure(0);
  EXPECT_TRUE(health.healthy(0));
  // ...a success wipes the streak...
  health.record_success(0);
  health.record_failure(0);
  health.record_failure(0);
  EXPECT_TRUE(health.healthy(0));
  // ...and only the full consecutive run demotes.
  health.record_failure(0);
  EXPECT_FALSE(health.healthy(0));
  EXPECT_TRUE(health.healthy(1));
  EXPECT_EQ(health.healthy_count(), 1u);

  // Recovery needs no quarantine: one answered probe re-admits.
  health.record_success(0);
  EXPECT_TRUE(health.healthy(0));

  // reset() = the supervisor respawned the slot: clean record.
  health.record_failure(1);
  health.record_failure(1);
  health.record_failure(1);
  EXPECT_FALSE(health.healthy(1));
  health.reset(1);
  EXPECT_TRUE(health.healthy(1));
}

// ----------------------------------------------------------------- fault ---

// Restores the fault module to inert whatever a test did — a leaked armed
// plan would make every later in-process serve test misbehave.
struct FaultEnvGuard {
  ~FaultEnvGuard() {
    ::unsetenv("BISCHED_FAULT");
    ::unsetenv("BISCHED_BACKEND_INDEX");
    engine::fault::refresh_from_env();
  }
};

TEST(Fault, SpecParsingScopingAndDropAction) {
  FaultEnvGuard guard;

  // Unset: every hook is a no-op.
  ::unsetenv("BISCHED_FAULT");
  engine::fault::refresh_from_env();
  EXPECT_FALSE(engine::fault::active());
  EXPECT_EQ(engine::fault::on_solve_frame(), engine::fault::Action::kNone);

  // drop-after:1 — the first solve frame passes, the second drops.
  ::setenv("BISCHED_FAULT", "drop-after:1", 1);
  engine::fault::refresh_from_env();
  EXPECT_TRUE(engine::fault::active());
  EXPECT_EQ(engine::fault::on_solve_frame(), engine::fault::Action::kNone);
  EXPECT_EQ(engine::fault::on_solve_frame(),
            engine::fault::Action::kDropConnection);

  // refresh resets the counters, not just the spec.
  engine::fault::refresh_from_env();
  EXPECT_EQ(engine::fault::on_solve_frame(), engine::fault::Action::kNone);

  // backend=<i> scoping: inert unless BISCHED_BACKEND_INDEX matches, so one
  // spec in a router's environment can target one backend of its fleet.
  ::setenv("BISCHED_FAULT", "backend=2;drop-after:0", 1);
  ::unsetenv("BISCHED_BACKEND_INDEX");
  engine::fault::refresh_from_env();
  EXPECT_FALSE(engine::fault::active());
  EXPECT_EQ(engine::fault::on_solve_frame(), engine::fault::Action::kNone);
  ::setenv("BISCHED_BACKEND_INDEX", "1", 1);
  engine::fault::refresh_from_env();
  EXPECT_FALSE(engine::fault::active());
  ::setenv("BISCHED_BACKEND_INDEX", "2", 1);
  engine::fault::refresh_from_env();
  EXPECT_TRUE(engine::fault::active());
  EXPECT_EQ(engine::fault::on_solve_frame(),
            engine::fault::Action::kDropConnection);

  // A malformed token disarms the whole spec (a typo'd fault must not half
  // apply), and stall-ms actually stalls.
  ::setenv("BISCHED_FAULT", "drop-after:oops;stall-ms:50", 1);
  ::unsetenv("BISCHED_BACKEND_INDEX");
  engine::fault::refresh_from_env();
  EXPECT_FALSE(engine::fault::active());
  ::setenv("BISCHED_FAULT", "stall-ms:50", 1);
  engine::fault::refresh_from_env();
  const auto t0 = std::chrono::steady_clock::now();
  engine::fault::maybe_stall();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 45);
}

// ----------------------------------------------------- acceptance (route) ---
// Subprocess `bisched_cli route`: BISCHED_CLI_PATH is injected by CMake.

#ifdef BISCHED_CLI_PATH

struct RouteRun {
  std::string out;
  int exit_code = -1;
};

// Runs `bisched_cli <args>` with `input` on stdin, `fault` (when non-null)
// as BISCHED_FAULT in the child only, and returns its stdout.
RouteRun run_cli(const std::vector<std::string>& args, const char* fault,
                 const std::string& input) {
  RouteRun run;
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return run;
  const pid_t pid = ::fork();
  if (pid < 0) return run;
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    if (fault != nullptr) {
      ::setenv("BISCHED_FAULT", fault, 1);
    } else {
      ::unsetenv("BISCHED_FAULT");
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(BISCHED_CLI_PATH));
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(BISCHED_CLI_PATH, argv.data());
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  size_t off = 0;
  while (off < input.size()) {
    const ssize_t n = ::write(to_child[1], input.data() + off, input.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  ::close(to_child[1]);
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(from_child[0], buf, sizeof(buf))) > 0) {
    run.out.append(buf, static_cast<size_t>(n));
  }
  ::close(from_child[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

RouteRun run_route(std::vector<std::string> args, const char* fault,
                   const std::string& input) {
  args.insert(args.begin(), "route");
  return run_cli(args, fault, input);
}

std::map<std::string, std::string> lines_by_id(const std::string& out) {
  std::map<std::string, std::string> by_id;
  std::istringstream stream(out);
  std::string line;
  while (std::getline(stream, line)) {
    const auto at = line.find("\"id\": \"");
    if (at == std::string::npos) continue;
    const auto start = at + 7;
    const auto end = line.find('"', start);
    by_id[line.substr(start, end - start)] = line;
  }
  return by_id;
}

// Strips the fields that legitimately differ between a 1-backend and a
// faulted 2-backend run: admission order (seq) and cache provenance (which
// backend's warmth served the repeat). Everything else must match exactly.
std::string placement_normalized(std::string line) {
  const auto strip_value = [&line](const std::string& key) {
    const auto at = line.find(key);
    if (at == std::string::npos) return;
    const auto start = at + key.size();
    auto end = start;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    line.replace(start, end - start, "X");
  };
  strip_value("\"seq\": ");
  strip_value("\"cache\": ");
  strip_value("\"solve_cache\": ");
  return line;
}

long json_long(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::atol(text.c_str() + at + key.size());
}

TEST(FleetCli, CrashMidBatchFailsOverInvisiblyAndMatchesSingleBackendRun) {
  // Build a work set whose placement is known in advance: at least four
  // instances homed on backend 0 (so the crash-after:2 fault actually
  // trips mid-batch) and at least two on backend 1.
  const HashRing ring(2);
  Rng rng(77);
  std::vector<UniformInstance> instances;
  int homed0 = 0;
  int homed1 = 0;
  for (int guard = 0; (homed0 < 4 || homed1 < 2) && guard < 1000; ++guard) {
    auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
    const std::size_t owner = ring.owner(instance_hash(inst));
    if (owner == 0 && homed0 >= 4) continue;
    if (owner == 1 && homed1 >= 2) continue;
    (owner == 0 ? homed0 : homed1)++;
    instances.push_back(std::move(inst));
  }
  ASSERT_EQ(homed0, 4);
  ASSERT_EQ(homed1, 2);

  const auto dir = fs::temp_directory_path() / "bisched_fleet_accept";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    paths.push_back((dir / ("i" + std::to_string(i) + ".inst")).string());
    std::ofstream f(paths.back());
    write_instance(f, instances[i]);
  }

  // Two passes over the set (the repeat pass is warm traffic), then the
  // router's own stats + metrics, then quit.
  std::ostringstream frames;
  int id = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::string& path : paths) {
      frames << "solve " << path << " q" << id++ << "\n";
    }
  }
  std::ostringstream fleet_input;
  fleet_input << frames.str() << "stats s\nmetrics m\nquit\n";

  // --route-threads=1: sequential routing, so the fault's frame count maps
  // deterministically onto the request order. --max-inflight=1 serializes
  // admission completely: every solve (and its retries) settles before the
  // trailing stats/metrics probes are even read, so the counters they report
  // are exact, not a point-in-time race.
  const std::vector<std::string> fleet_args = {"--fleet=2", "--stable",
                                               "--route-threads=1",
                                               "--max-inflight=1",
                                               "--deadline-ms=20000"};
  const RouteRun faulted =
      run_route(fleet_args, "backend=0;crash-after:2", fleet_input.str());
  // Exit 0 = the router itself counted zero client-visible errors.
  EXPECT_EQ(faulted.exit_code, 0) << faulted.out;

  const auto responses = lines_by_id(faulted.out);
  for (int i = 0; i < id; ++i) {
    const auto at = responses.find("q" + std::to_string(i));
    ASSERT_NE(at, responses.end()) << "missing response q" << i;
    EXPECT_NE(at->second.find("\"status\": \"ok\""), std::string::npos)
        << at->second;
  }

  // The crash was absorbed, not hidden: the router's stats admit the
  // retries, and the Prometheus scrape carries a nonzero retry counter.
  const auto stats = responses.find("s");
  ASSERT_NE(stats, responses.end());
  EXPECT_NE(stats->second.find("\"role\": \"router\""), std::string::npos);
  EXPECT_GT(json_long(stats->second, "\"retries\": "), 0) << stats->second;
  EXPECT_EQ(json_long(stats->second, "\"degraded\": "), 0) << stats->second;
  const auto metrics = responses.find("m");
  ASSERT_NE(metrics, responses.end());
  // The exposition rides JSON-escaped in "body": samples appear as
  // `\nNAME VALUE`. The retry counter must be present and nonzero.
  const auto retries_at = metrics->second.find("\\nbisched_fleet_retries_total ");
  ASSERT_NE(retries_at, std::string::npos) << metrics->second;
  EXPECT_GT(std::atol(metrics->second.c_str() + retries_at + 30), 0);
  EXPECT_NE(metrics->second.find("bisched_fleet_backends"), std::string::npos);

  // Control run: one backend, no fault. Same requests must produce the same
  // responses modulo seq and cache provenance — failover changed WHERE a
  // request ran, never its answer.
  const RouteRun single = run_route({"--fleet=1", "--stable", "--route-threads=1"},
                                    nullptr, frames.str() + "quit\n");
  EXPECT_EQ(single.exit_code, 0) << single.out;
  const auto control = lines_by_id(single.out);
  for (int i = 0; i < id; ++i) {
    const std::string key = "q" + std::to_string(i);
    const auto a = responses.find(key);
    const auto b = control.find(key);
    ASSERT_NE(a, responses.end());
    ASSERT_NE(b, control.end());
    EXPECT_EQ(placement_normalized(a->second), placement_normalized(b->second))
        << key;
  }

  fs::remove_all(dir);
}

// `count` distinct small instances homed on `backend` of a two-backend ring.
std::vector<UniformInstance> homed_instances(std::size_t backend, int count, Rng& rng) {
  const HashRing ring(2);
  std::vector<UniformInstance> out;
  while (static_cast<int>(out.size()) < count) {
    auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
    if (ring.owner(instance_hash(inst)) == backend) out.push_back(std::move(inst));
  }
  return out;
}

engine::fleet::RouterOptions two_backend_options() {
  engine::fleet::RouterOptions options;
  options.fleet = 2;
  options.cli_path = BISCHED_CLI_PATH;
  options.serve_args = {"--stable"};
  options.deadline_ms = 60000;
  return options;
}

// A backend SIGKILLed between two halves of one client stream: the second
// half, homed on the dead backend, is retried or failed over, and the
// client sees no error at all.
TEST(FleetKill, SigkillOfABackendMidStreamCostsNoClientErrors) {
  Rng rng(78);
  const auto before = homed_instances(1, 2, rng);
  const auto after = homed_instances(0, 4, rng);

  std::string error;
  engine::fleet::Router router(two_backend_options(), &error);
  ASSERT_TRUE(router.ok()) << error;

  int to_router[2] = {-1, -1};
  int from_router[2] = {-1, -1};
  ASSERT_EQ(::pipe(to_router), 0);
  ASSERT_EQ(::pipe(from_router), 0);
  std::thread session([&] {
    engine::FdTransport in(to_router[0], "stdin");
    engine::FdTransport out(from_router[1], "stdout");
    engine::serve_stream(router, in.in(), out.out());
  });
  engine::FdTransport client(to_router[1], "client");
  engine::FdTransport responses(from_router[0], "responses");

  const auto send = [&](const std::string& id, const UniformInstance& inst) {
    client.out() << "instance " << id << "\n";
    write_instance(client.out(), inst);
    client.out().flush();
  };
  std::vector<std::string> lines;
  const auto read_line = [&] {
    std::string line;
    if (std::getline(responses.in(), line)) lines.push_back(line);
  };
  for (std::size_t i = 0; i < before.size(); ++i) {
    send("before-" + std::to_string(i), before[i]);
    read_line();
  }
  const pid_t victim = router.supervisor().pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  for (std::size_t i = 0; i < after.size(); ++i) {
    send("after-" + std::to_string(i), after[i]);
  }
  client.out() << "quit\n";
  client.out().flush();
  for (std::size_t i = 0; i < after.size(); ++i) read_line();
  session.join();

  ASSERT_EQ(lines.size(), before.size() + after.size());
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos) << line;
  }
  const auto stats = router.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_GT(stats.retries + stats.failovers, 0u) << "the kill never cost a detour";
}

// --------------------------------------------------- pooled connections ---

std::string native_frames(const std::vector<UniformInstance>& instances,
                          const std::string& id_prefix) {
  std::ostringstream frames;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    frames << "instance " << id_prefix << i << "\n";
    write_instance(frames, instances[i]);
  }
  return frames.str();
}

// One stdio session through `router`; `frames` ends with `quit`.
std::vector<std::string> route_session(engine::fleet::Router& router,
                                       const std::string& frames) {
  std::istringstream in(frames);
  std::ostringstream out;
  engine::serve_stream(router, in, out);
  std::vector<std::string> lines;
  std::istringstream stream(out.str());
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  return lines;
}

// Backend `i`'s own `stats` frame, read on a connection of its own.
std::string backend_stats(engine::fleet::Router& router, std::size_t i) {
  std::string error;
  const int fd = engine::tcp_connect("127.0.0.1", router.supervisor().port(i), &error);
  if (fd < 0) return error;
  engine::FdTransport backend(fd, "scrape");
  backend.out() << "stats scrape\n" << std::flush;
  std::string line;
  std::getline(backend.in(), line);
  return line;
}

// Warm traffic reuses backend connections: a backend session per attempt
// would make 200 routed solves cost at least 200 sessions; the pool opens
// no more than there are threads attempting at once.
TEST(FleetPool, RoutedSolvesReuseBackendConnections) {
  Rng rng(80);
  std::vector<UniformInstance> instances;
  for (int i = 0; i < 20; ++i) {
    instances.push_back(testing::random_uniform_instance(4, 4, 2, 3, 3, rng));
  }
  std::string frames;
  for (int rep = 0; rep < 10; ++rep) {
    frames += native_frames(instances, "r" + std::to_string(rep) + "-");
  }

  std::string error;
  engine::fleet::Router router(two_backend_options(), &error);
  ASSERT_TRUE(router.ok()) << error;
  const auto lines = route_session(router, frames + "quit\n");
  ASSERT_EQ(lines.size(), 200u);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos) << line;
  }

  long sessions = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string stats = backend_stats(router, i);
    ASSERT_NE(stats.find("\"type\": \"stats\""), std::string::npos) << stats;
    sessions += json_long(stats, "\"sessions\": ");
  }
  // Per backend: the routing workers (2 * fleet by default) plus the
  // maintenance thread's probes; each scrape adds its own session.
  const long threads = 2 * 2 + 1;
  EXPECT_LE(sessions, 2 * threads + 2);
  EXPECT_EQ(router.stats().retries, 0u);
}

// A connection whose attempt timed out is closed, never checked out again:
// backend 0 stalls every solve past the attempt deadline, so each request
// homed on it times out there and is answered by backend 1, while backend 0
// still writes its late answers. A reused connection would hand one of
// them to a later request.
TEST(FleetPool, ATimedOutConnectionIsNeverReused) {
  FaultEnvGuard guard;
  ASSERT_EQ(::setenv("BISCHED_FAULT", "backend=0;stall-ms:300", 1), 0);
  Rng rng(81);
  const auto homed = homed_instances(0, 6, rng);

  engine::fleet::RouterOptions options = two_backend_options();
  options.threads = 1;  // one attempt at a time, in request order
  options.attempt_timeout_ms = 100;
  // Backend 0 stays the first candidate however often it times out.
  options.unhealthy_after = 1000;
  std::string error;
  engine::fleet::Router router(options, &error);
  ASSERT_TRUE(router.ok()) << error;
  const auto lines = route_session(router, native_frames(homed, "late-") + "quit\n");

  ASSERT_EQ(lines.size(), homed.size());
  for (std::size_t i = 0; i < homed.size(); ++i) {
    EXPECT_NE(lines[i].find("\"id\": \"late-" + std::to_string(i) + "\""),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"hash\": \"" + hash_hex(instance_hash(homed[i])) + "\""),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"status\": \"ok\""), std::string::npos) << lines[i];
  }
  const auto stats = router.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.failovers, homed.size());
}

// A respawned slot is never tried over its predecessor's connections: the
// pool holds connections to backend 0 when it is SIGKILLed, and once the
// slot runs again under a new generation, the solves homed on it are
// answered there at the first attempt.
TEST(FleetKill, RespawnedBackendIsNeverTriedOverItsPredecessorsConnections) {
  Rng rng(82);
  const auto warm = homed_instances(0, 4, rng);
  const auto later = homed_instances(0, 4, rng);

  engine::fleet::RouterOptions options = two_backend_options();
  // No health probes: one would fail on a dead process's connection and
  // close it before the respawned slot is routed to.
  options.health_interval_ms = 600000;
  std::string error;
  engine::fleet::Router router(options, &error);
  ASSERT_TRUE(router.ok()) << error;
  for (const std::string& line : route_session(router, native_frames(warm, "warm-") + "quit\n")) {
    EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos) << line;
  }

  engine::fleet::Supervisor& supervisor = router.supervisor();
  const std::uint64_t generation = supervisor.generation(0);
  ASSERT_EQ(::kill(supervisor.pid(0), SIGKILL), 0);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((supervisor.generation(0) == generation ||
          supervisor.state(0) != engine::fleet::BackendState::kRunning) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(supervisor.generation(0), generation);
  ASSERT_EQ(supervisor.state(0), engine::fleet::BackendState::kRunning);

  const auto before = router.stats();
  const auto lines = route_session(router, native_frames(later, "later-") + "quit\n");
  ASSERT_EQ(lines.size(), later.size());
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos) << line;
  }
  const auto after = router.stats();
  EXPECT_EQ(after.retries, before.retries);
  EXPECT_EQ(after.failovers, before.failovers);
  EXPECT_EQ(json_long(backend_stats(router, 0), "\"solve_frames\": "),
            static_cast<long>(later.size()));
}

// Pipelined through a routing listener, a slow solve followed by three
// fast ones: the fast ones finish first on the backends, and the router
// must still answer in send order (`client --pipeline` exits 1 otherwise).
TEST(FleetCli, PipelinedResponsesComeBackInSendOrder) {
  const auto dir = fs::temp_directory_path() / "bisched_fleet_order";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const RouteRun slow =
      run_cli({"gen", "gilbert", "--n=30", "--a=2", "--m=3", "--seed=3"}, nullptr, "");
  ASSERT_EQ(slow.exit_code, 0);
  std::ofstream((dir / "slow.inst").string()) << slow.out;
  std::ostringstream frames;
  frames << "solve " << (dir / "slow.inst").string() << " slow\n";
  Rng rng(79);
  for (int i = 1; i <= 3; ++i) {
    const std::string path = (dir / ("fast" + std::to_string(i) + ".inst")).string();
    std::ofstream file(path);
    write_instance(file, testing::random_uniform_instance(4, 4, 2, 3, 3, rng));
    frames << "solve " << path << " fast" << i << "\n";
  }

  std::string error;
  auto listener = engine::UnixListener::open((dir / "route.sock").string(), &error);
  ASSERT_NE(listener, nullptr) << error;
  std::thread router([&] {
    engine::fleet::route_listener(two_backend_options(), *listener, &error);
  });
  const RouteRun client =
      run_cli({"client", "--connect=unix:" + listener->path(), "--pipeline=4"}, nullptr,
              frames.str());
  const int bye = engine::unix_connect(listener->path(), &error);
  if (bye >= 0) {
    EXPECT_EQ(::write(bye, "shutdown\n", 9), 9);
    ::close(bye);
  }
  router.join();
  EXPECT_TRUE(error.empty()) << error;

  EXPECT_EQ(client.exit_code, 0) << client.out;
  std::vector<std::string> ids;
  std::istringstream lines(client.out);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos) << line;
    const auto at = line.find("\"id\": \"");
    if (at == std::string::npos) continue;
    ids.push_back(line.substr(at + 7, line.find('"', at + 7) - at - 7));
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"slow", "fast1", "fast2", "fast3"}));
  listener.reset();
  fs::remove_all(dir);
}

// `client --pipeline` against a socket serve. A native body and the lines
// its parser consumes are one frame holding one window slot, and a body the
// parser rejects runs to the blank line where serve resyncs, so a window of
// 1 never waits on a header's answer. A session that closes with answers
// still owed exits 1.
TEST(FleetCli, PipelinedClientWindowsNativeBodiesAndFailsOnUnansweredFrames) {
  const auto dir = fs::temp_directory_path() / "bisched_client_window";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto pipelined = [&dir](const std::string& frames, const std::string& window) {
    std::string error;
    auto listener = engine::UnixListener::open((dir / "serve.sock").string(), &error);
    EXPECT_NE(listener, nullptr) << error;
    if (listener == nullptr) return RouteRun{};
    engine::ServeOptions options;
    options.threads = 1;
    options.stable_output = true;
    std::thread server([&] {
      engine::serve_listener(engine::SolverRegistry::builtin(), *listener, options, &error);
    });
    const RouteRun client = run_cli({"client", "--connect=unix:" + listener->path(),
                                     "--pipeline=" + window, "--timeout-ms=5000"},
                                    nullptr, frames);
    const int bye = engine::unix_connect(listener->path(), &error);
    if (bye >= 0) {
      EXPECT_EQ(::write(bye, "shutdown\n", 9), 9);
      ::close(bye);
    }
    server.join();
    return client;
  };

  Rng rng(83);
  std::ostringstream frames;
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    const std::string id = "w" + std::to_string(i);
    ids.push_back(id);
    std::ostringstream text;
    write_instance(text, testing::random_uniform_instance(4, 4, 2, 3, 3, rng));
    if (i % 4 != 3) {
      const std::string path = (dir / (id + ".inst")).string();
      std::ofstream(path) << text.str();
      frames << "solve " << path << " " << id << "\n";
    } else if (i == 3) {
      // Fails on its `speeds` line; the discard runs to the blank line.
      std::string broken = text.str();
      broken.replace(broken.find("speeds"), 6, "speds");
      frames << "instance " << id << "\n" << broken << "\n";
    } else {
      frames << "instance " << id << "\n" << text.str();
    }
  }
  const RouteRun windowed = pipelined(frames.str(), "1");
  EXPECT_EQ(windowed.exit_code, 0) << windowed.out;
  std::vector<std::string> answered;
  std::istringstream lines(windowed.out);
  for (std::string line; std::getline(lines, line);) {
    const auto at = line.find("\"id\": \"");
    ASSERT_NE(at, std::string::npos) << line;
    answered.push_back(line.substr(at + 7, line.find('"', at + 7) - at - 7));
    const bool broken = answered.back() == "w3";
    EXPECT_NE(line.find(broken ? "\"error\": \"parse error" : "\"status\": \"ok\""),
              std::string::npos)
        << line;
  }
  EXPECT_EQ(answered, ids);

  // drop-after:1 closes the session at the second solve, which is owed
  // (a window of 1 has the first answered before the second is sent).
  FaultEnvGuard guard;
  ASSERT_EQ(::setenv("BISCHED_FAULT", "drop-after:1", 1), 0);
  engine::fault::refresh_from_env();
  const std::string path = (dir / "w0.inst").string();
  const RouteRun dropped =
      pipelined("solve " + path + " d0\nsolve " + path + " d1\n", "1");
  EXPECT_EQ(dropped.exit_code, 1) << dropped.out;
  EXPECT_NE(dropped.out.find("\"id\": \"d0\""), std::string::npos) << dropped.out;
  fs::remove_all(dir);
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
