// Serve-mode tests: the in-process loop (protocol, cache reuse, error
// frames) and a full subprocess round trip driving `bisched_cli serve`
// through pipes — the acceptance path: two sequential framed requests
// answered by one process, the second a recorded probe-cache hit, each
// response streamed back before the next request is even written.
#include "engine/serve.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <thread>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "engine/fault.hpp"
#include "engine/portfolio.hpp"
#include "io/format.hpp"
#include "io/jsonl.hpp"
#include "sched/instance_hash.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::ServeOptions;
using engine::SolverRegistry;

std::string instance_text(const UniformInstance& inst) {
  std::ostringstream out;
  write_instance(out, inst);
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

TEST(Serve, AnswersEveryFrameFormAndReusesTheCache) {
  Rng rng(41);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  // Frame 1: inline native text. Frame 2: the same instance as an inline
  // JSON string (same content hash -> cache hit). Frame 3: bad frame.
  std::string escaped = text;
  std::string json_text;
  for (char c : escaped) {
    if (c == '\n') {
      json_text += "\\n";
    } else if (c == '"') {
      json_text += "\\\"";
    } else {
      json_text += c;
    }
  }
  std::ostringstream in_text;
  in_text << "# warm-up comment\n\n";
  in_text << "instance first\n" << text;
  in_text << "{\"id\": \"second\", \"instance\": \"" << json_text << "\"}\n";
  in_text << "bogus frame\n";
  in_text << "quit\n";
  in_text << "instance after-quit\n";  // must never be read

  std::istringstream in(in_text.str());
  std::ostringstream out;
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  const auto stats = engine::serve(SolverRegistry::builtin(), in, out, options);

  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  std::string first;
  std::string second;
  std::string bogus;
  for (const auto& line : lines) {
    if (line.find("\"id\": \"first\"") != std::string::npos) first = line;
    if (line.find("\"id\": \"second\"") != std::string::npos) second = line;
    if (line.find("unrecognized frame") != std::string::npos) bogus = line;
  }
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  ASSERT_FALSE(bogus.empty());
  EXPECT_NE(first.find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_NE(second.find("\"cache\": \"hit-memory\""), std::string::npos);
  EXPECT_NE(bogus.find("\"status\": \"error\""), std::string::npos);

  // Identical content: both responses carry the same hash and makespan.
  const auto field = [](const std::string& line, const char* key) {
    const auto at = line.find(key);
    if (at == std::string::npos) return std::string();
    return line.substr(at, line.find(',', at) - at);
  };
  EXPECT_EQ(field(first, "\"hash\": "), field(second, "\"hash\": "));
  EXPECT_EQ(field(first, "\"makespan\": "), field(second, "\"makespan\": "));

  // Hash first, for each source form (inline JSON text, path, native body):
  // a first request builds its instance once, in a `build` span that is a
  // direct child of `request`; a repeat is a memory hit that builds
  // nothing; a new alg for a known instance (profile hit, result miss)
  // builds once to solve. The answers are those of solving the built
  // instance, and the caches count as if every request had built first.
  const UniformInstance forms[] = {testing::random_uniform_instance(4, 4, 2, 3, 3, rng),
                                   testing::random_uniform_instance(4, 4, 2, 3, 3, rng),
                                   testing::random_uniform_instance(4, 4, 2, 3, 3, rng)};
  const auto dir = fs::temp_directory_path() / "bisched_serve_hash_first";
  fs::create_directories(dir);
  const std::string path = (dir / "b.inst").string();
  {
    std::ofstream f(path);
    write_instance(f, forms[1]);
  }
  const std::string inline_a = json_quote(instance_text(forms[0]));
  std::ostringstream stream;
  stream << "{\"id\": \"a1\", \"instance\": " << inline_a << "}\n"
         << "{\"id\": \"a2\", \"instance\": " << inline_a << "}\n"
         << "solve " << path << " b1\n"
         << "solve " << path << " b2\n"
         << "instance c1\n" << instance_text(forms[2])
         << "instance c2\n" << instance_text(forms[2])
         << "{\"id\": \"a-split\", \"instance\": " << inline_a << ", \"alg\": \"split\"}\n"
         << "instance a-native\n" << instance_text(forms[0]);
  engine::WarmState warm;
  std::istringstream hash_in(stream.str());
  std::ostringstream hash_out;
  std::ostringstream slow;
  ServeOptions traced = options;
  traced.slow_ms = 0;  // every solve's span tree goes to the slow log
  traced.slow_log = &slow;
  engine::serve(SolverRegistry::builtin(), hash_in, hash_out, traced, &warm);

  struct Expect {
    const char* id;
    int form;
    const char* cache;
    const char* solve_cache;
    int builds;
  };
  const Expect expected[] = {
      {"a1", 0, "miss", "miss", 1},         {"a2", 0, "hit-memory", "hit-memory", 0},
      {"b1", 1, "miss", "miss", 1},         {"b2", 1, "hit-memory", "hit-memory", 0},
      {"c1", 2, "miss", "miss", 1},         {"c2", 2, "hit-memory", "hit-memory", 0},
      {"a-split", 0, "hit-memory", "miss", 1}, {"a-native", 0, "hit-memory", "hit-memory", 0},
  };
  std::map<std::string, std::map<std::string, std::string>> responses;
  for (const std::string& line : lines_of(hash_out.str())) {
    std::string error;
    auto object = parse_flat_json_object(line, &error);
    ASSERT_TRUE(object.has_value()) << error << " in " << line;
    responses[object->at("id")] = std::move(*object);
  }
  std::map<std::string, std::string> spans;
  for (const std::string& line : lines_of(slow.str())) {
    const auto id_at = line.find(" id=");
    ASSERT_NE(id_at, std::string::npos) << line;
    const std::string id = line.substr(id_at + 4, line.find(' ', id_at + 4) - id_at - 4);
    spans[id] = line.substr(line.find(" spans=") + 7);
  }
  for (const Expect& e : expected) {
    SCOPED_TRACE(e.id);
    ASSERT_EQ(responses.count(e.id), 1u) << hash_out.str();
    const auto& r = responses.at(e.id);
    const UniformInstance& inst = forms[e.form];
    const std::string alg = std::string(e.id) == "a-split" ? "split" : "auto";
    const auto want = alg == "auto" ? engine::solve_auto(SolverRegistry::builtin(), inst, {})
                                    : engine::solve_named(SolverRegistry::builtin(), alg,
                                                          inst, {}, engine::probe(inst));
    EXPECT_EQ(r.at("status"), "ok");
    EXPECT_EQ(r.at("hash"), hash_hex(instance_hash(inst)));
    EXPECT_EQ(r.at("jobs"), std::to_string(inst.num_jobs()));
    EXPECT_EQ(r.at("machines"), std::to_string(inst.num_machines()));
    EXPECT_EQ(r.at("solver"), want.solver);
    EXPECT_EQ(r.at("makespan"), want.cmax.to_string());
    EXPECT_EQ(r.at("cache"), e.cache);
    EXPECT_EQ(r.at("solve_cache"), e.solve_cache);
    EXPECT_EQ(r.at("elapsed_ms"), "0");  // stable output: timing only differs
    // Each build span sits directly under `request`, beside the others.
    const std::string& tree = spans.at(e.id);
    int builds = 0;
    for (auto at = tree.find("build:"); at != std::string::npos;
         at = tree.find("build:", at + 1)) {
      ++builds;
      const std::string before = tree.substr(0, at);
      EXPECT_EQ(std::count(before.begin(), before.end(), '(') -
                    std::count(before.begin(), before.end(), ')'),
                1)
          << tree;
    }
    EXPECT_EQ(builds, e.builds) << tree;
  }

  // The stats frame of a second session sees the settled counts.
  std::istringstream stats_in("stats s\n");
  std::ostringstream stats_out;
  engine::serve(SolverRegistry::builtin(), stats_in, stats_out, options, &warm);
  std::string stats_line = stats_out.str();
  stats_line.pop_back();
  std::string error;
  const auto counts = parse_flat_json_object(stats_line, &error);
  ASSERT_TRUE(counts.has_value()) << error;
  EXPECT_EQ(counts->at("profile_misses"), "3");
  EXPECT_EQ(counts->at("profile_hits_memory"), "5");
  EXPECT_EQ(counts->at("result_misses"), "4");
  EXPECT_EQ(counts->at("result_hits_memory"), "4");
  fs::remove_all(dir);
}

TEST(Serve, MalformedInlineBodyYieldsOneErrorAndResynchronizes) {
  Rng rng(44);
  const auto good = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  // A body with a typo mid-file: the parser stops there; the loop must skip
  // the rest of the body (to the blank line) instead of answering each
  // leftover body line as a bogus frame.
  std::ostringstream in_text;
  in_text << "instance broken\n"
          << "bisched uniform v1\njobs 3\np 1 2 3\nspeds 2\n2 1\nedges 0\n"
          << "\n"  // resynchronization point
          << "instance good\n"
          << instance_text(good);
  std::istringstream in(in_text.str());
  std::ostringstream out;
  ServeOptions options;
  options.threads = 1;
  const auto stats = engine::serve(SolverRegistry::builtin(), in, out, options);

  EXPECT_EQ(stats.requests, 2u);  // broken + good, nothing in between
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 1u);
  // An `instance` header with extra tokens must also consume its body.
  std::istringstream in2("instance too many ids\n" + instance_text(good) +
                         "instance fine\n" + instance_text(good));
  std::ostringstream out2;
  const auto stats2 = engine::serve(SolverRegistry::builtin(), in2, out2, options);
  EXPECT_EQ(stats2.requests, 2u);
  EXPECT_EQ(stats2.ok, 1u);
  EXPECT_EQ(stats2.errors, 1u);
  EXPECT_NE(out2.str().find("at most one id"), std::string::npos);
  EXPECT_NE(out2.str().find("\"id\": \"fine\""), std::string::npos);
  // A body whose failing token ends its line: the rest of that (empty) line
  // is not the blank resync line, so the later edge lines are discarded too.
  std::istringstream in3("instance bad-edge\nbisched uniform v1\njobs 4\np 1 2 3 4\n"
                         "speeds 1\n1\nedges 3\n0 0\n1 2\n2 3\n\ninstance after\n" +
                         instance_text(good));
  std::ostringstream out3;
  const auto stats3 = engine::serve(SolverRegistry::builtin(), in3, out3, options);
  EXPECT_EQ(stats3.requests, 2u) << out3.str();
  EXPECT_EQ(stats3.ok, 1u);
  EXPECT_EQ(stats3.errors, 1u);
  EXPECT_NE(out3.str().find("bad edge (0, 0)"), std::string::npos);
  EXPECT_NE(out3.str().find("\"id\": \"after\""), std::string::npos);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  const auto text = out.str();
  const auto broken = text.find("\"id\": \"broken\"");
  ASSERT_NE(broken, std::string::npos);
  EXPECT_NE(text.find("parse error", broken), std::string::npos);
  const auto goodr = text.find("\"id\": \"good\"");
  ASSERT_NE(goodr, std::string::npos);
  EXPECT_NE(text.find("\"status\": \"ok\"", goodr), std::string::npos);
}

TEST(Serve, PathRequestsAndPerRequestAlgOverrides) {
  Rng rng(42);
  const auto q2 = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const auto dir = fs::temp_directory_path() / "bisched_serve_inproc";
  fs::create_directories(dir);
  const auto path = (dir / "q2.inst").string();
  {
    std::ofstream f(path);
    write_instance(f, q2);
  }

  std::ostringstream in_text;
  in_text << "solve " << path << " by-line\n";
  in_text << "{\"id\": \"by-json\", \"path\": \"" << path << "\", \"alg\": \"split\"}\n";
  in_text << "{\"id\": \"missing\", \"path\": \"" << path << ".nope\"}\n";
  std::istringstream in(in_text.str());
  std::ostringstream out;
  ServeOptions options;
  options.threads = 1;
  const auto stats = engine::serve(SolverRegistry::builtin(), in, out, options);
  fs::remove_all(dir);

  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 1u);

  const auto text = out.str();
  EXPECT_NE(text.find("\"id\": \"by-line\""), std::string::npos);
  const auto by_json = text.find("\"id\": \"by-json\"");
  ASSERT_NE(by_json, std::string::npos);
  EXPECT_NE(text.find("\"solver\": \"split\"", by_json), std::string::npos);
  const auto missing = text.find("\"id\": \"missing\"");
  ASSERT_NE(missing, std::string::npos);
  EXPECT_NE(text.find("cannot open file", missing), std::string::npos);

  // A typo'd key must be rejected, not silently solved with defaults.
  std::istringstream in2("{\"id\": \"typo\", \"path\": \"" + path +
                         "\", \"ep\": 0.01}\n");
  std::ostringstream out2;
  const auto stats2 = engine::serve(SolverRegistry::builtin(), in2, out2, options);
  EXPECT_EQ(stats2.errors, 1u);
  EXPECT_NE(out2.str().find("unknown key \\\"ep\\\""), std::string::npos);
}

TEST(Serve, MalformedJsonFramesAreAnsweredUnderTheClientsId) {
  // The id is salvageable whenever the frame is a parseable object, even
  // when a later field fails validation — a client correlating strictly by
  // its own ids must still see the error.
  std::istringstream in(
      "{\"id\": \"r9\", \"path\": \"a.inst\", \"eps\": \"fast\"}\n"
      "{\"id\": \"r10\"}\n"
      "{\"id\": \"#3\", \"ep\": 1}\n");  // reserved id: auto id applies
  std::ostringstream out;
  ServeOptions options;
  options.threads = 1;
  const auto stats = engine::serve(SolverRegistry::builtin(), in, out, options);
  EXPECT_EQ(stats.errors, 3u);
  const auto text = out.str();
  const auto r9 = text.find("\"id\": \"r9\"");
  ASSERT_NE(r9, std::string::npos) << text;
  EXPECT_NE(text.find("eps is not a number", r9), std::string::npos);
  const auto r10 = text.find("\"id\": \"r10\"");
  ASSERT_NE(r10, std::string::npos) << text;
  EXPECT_NE(text.find("exactly one of", r10), std::string::npos);
  EXPECT_EQ(text.find("\"id\": \"#3\""), std::string::npos);
  EXPECT_NE(text.find("\"id\": \"#2\""), std::string::npos);  // auto id instead
}

TEST(Serve, RejectsClientIdsInTheReservedForm) {
  Rng rng(45);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);
  const auto dir = fs::temp_directory_path() / "bisched_serve_reserved";
  fs::create_directories(dir);
  const auto path = (dir / "q.inst").string();
  {
    std::ofstream f(path);
    write_instance(f, inst);
  }

  // `#<digits>` is the server's auto-id namespace: both frame forms must be
  // rejected with an error response; `#x7` (not all digits) stays legal.
  std::ostringstream in_text;
  in_text << "{\"id\": \"#7\", \"path\": \"" << path << "\"}\n";
  in_text << "solve " << path << " #12\n";
  in_text << "solve " << path << " #x7\n";
  std::istringstream in(in_text.str());
  std::ostringstream out;
  ServeOptions options;
  options.threads = 1;
  const auto stats = engine::serve(SolverRegistry::builtin(), in, out, options);
  fs::remove_all(dir);

  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 2u);
  const auto text_out = out.str();
  EXPECT_NE(text_out.find("reserved #<digits> form"), std::string::npos);
  // The rejected requests are answered under their auto-assigned ids.
  EXPECT_NE(text_out.find("\"id\": \"#0\""), std::string::npos);
  EXPECT_NE(text_out.find("\"id\": \"#1\""), std::string::npos);
  const auto legal = text_out.find("\"id\": \"#x7\"");
  ASSERT_NE(legal, std::string::npos);
  EXPECT_NE(text_out.find("\"status\": \"ok\"", legal), std::string::npos);
}

TEST(Serve, StatsFrameIsAnsweredInlineAndValidated) {
  Rng rng(47);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  std::ostringstream in_text;
  in_text << "instance a\n" << instance_text(inst);
  in_text << "stats s1\n";
  in_text << "stats one two\n";  // malformed: at most one id
  in_text << "stats #7\n";       // reserved id form: rejected like any frame
  std::istringstream in(in_text.str());
  std::ostringstream out;
  ServeOptions options;
  options.threads = 1;
  const auto stats = engine::serve(SolverRegistry::builtin(), in, out, options);

  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.ok, 2u);  // the solve + the well-formed stats frame
  EXPECT_EQ(stats.errors, 2u);
  const auto text = out.str();
  const auto at = text.find("\"type\": \"stats\"");
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_NE(text.find("\"id\": \"s1\""), std::string::npos) << text;
  // Structural fields (counter *values* race the pool, so only presence is
  // pinned here; the lockstep subprocess test asserts exact numbers).
  for (const char* key :
       {"\"requests\": ", "\"store\": \"\"", "\"profile_entries\": ",
        "\"profile_hits_disk\": ", "\"profile_hit_rate\": ", "\"result_entries\": ",
        "\"result_hits_memory\": ", "\"result_evictions\": ", "\"result_hit_rate\": "}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
  // And it is one parseable flat JSON line, like every other response.
  const auto open_brace = text.rfind('{', at);
  const std::string line = text.substr(open_brace, text.find('\n', at) - open_brace);
  std::string parse_error;
  EXPECT_TRUE(parse_flat_json_object(line, &parse_error).has_value())
      << parse_error << " in " << line;
  EXPECT_NE(text.find("stats takes at most one id"), std::string::npos);
  EXPECT_NE(text.find("reserved #<digits> form"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Unix-socket listener: one in-process Server, a listener thread, and two
// concurrent raw-socket clients sharing its warm state.

TEST(ServeUnix, TwoConcurrentClientsShareOneResidentServer) {
  Rng rng(46);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::string text = instance_text(inst);

  const auto dir = fs::temp_directory_path() / "bisched_serve_unix";
  fs::create_directories(dir);
  const std::string socket_path = (dir / "serve.sock").string();

  engine::ServeStats stats;
  std::string serve_error;
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  std::thread server([&] {
    stats = engine::serve_unix(SolverRegistry::builtin(), socket_path, options,
                               &serve_error);
  });

  // Wait for the socket to exist, then for connects to succeed.
  const auto connect_client = [&] {
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::string error;
      const int fd = engine::unix_connect(socket_path, &error);
      if (fd >= 0) return fd;
      ::usleep(10'000);
    }
    return -1;
  };

  // Both clients connect BEFORE either sends — the sessions are
  // demonstrably concurrent, not serialized accept-handle-accept.
  const int c1 = connect_client();
  const int c2 = connect_client();
  ASSERT_GE(c1, 0) << serve_error;
  ASSERT_GE(c2, 0) << serve_error;

  const auto talk = [&](int fd, const std::string& id) {
    const std::string frame = "instance " + id + "\n" + text;
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);  // EOF: the session drains and closes
    std::string response;
    char c = 0;
    while (::read(fd, &c, 1) == 1) response += c;
    ::close(fd);
    EXPECT_NE(response.find("\"id\": \"" + id + "\""), std::string::npos) << response;
    EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;
    EXPECT_NE(response.find("\"v\": 1"), std::string::npos) << response;
  };
  std::thread t1([&] { talk(c1, "client-one"); });
  std::thread t2([&] { talk(c2, "client-two"); });
  t1.join();
  t2.join();

  // An idle client that holds its connection open must NOT be able to hang
  // shutdown: the server interrupts still-connected sessions once the
  // listener stops, drains, and returns.
  const int idle = connect_client();
  ASSERT_GE(idle, 0);

  // Another client shuts the listener down; serve_unix returns even though
  // `idle` never sent a byte and never disconnected.
  const int c3 = connect_client();
  ASSERT_GE(c3, 0);
  const char* bye = "shutdown\n";
  ASSERT_EQ(::write(c3, bye, strlen(bye)), static_cast<ssize_t>(strlen(bye)));
  ::close(c3);
  server.join();
  ::close(idle);
  fs::remove_all(dir);

  EXPECT_TRUE(serve_error.empty()) << serve_error;
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.sessions, 4u);  // two talkers + the idle holdout + shutdown
  // One resident cache across clients: the second identical instance probes warm.
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

// ---------------------------------------------------------------------------
// TCP transport: the same session machinery over an AF_INET listener, plus
// the no-auth guard (non-loopback binds are refused without allow_remote).

TEST(ServeTcp, LoopbackListenerServesAndPublicBindsNeedAllowRemote) {
  Rng rng(48);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  std::string error;
  auto listener = engine::TcpListener::open("127.0.0.1", /*port=*/0,
                                            /*allow_remote=*/false, &error);
  ASSERT_NE(listener, nullptr) << error;
  const int port = listener->port();
  ASSERT_GT(port, 0);  // port 0 resolved to the kernel's pick
  EXPECT_EQ(listener->endpoint(), "tcp:127.0.0.1:" + std::to_string(port));

  engine::ServeStats stats;
  std::string serve_error;
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  std::thread server([&] {
    stats = engine::serve_listener(SolverRegistry::builtin(), *listener, options,
                                   &serve_error);
  });

  const auto connect_client = [&] {
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::string connect_error;
      const int fd = engine::tcp_connect("127.0.0.1", port, &connect_error);
      if (fd >= 0) return fd;
      ::usleep(10'000);
    }
    return -1;
  };
  const int c1 = connect_client();
  ASSERT_GE(c1, 0);
  const std::string frame = "instance over-tcp\n" + text;
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(c1, frame.data() + off, frame.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
  ::shutdown(c1, SHUT_WR);
  std::string response;
  char c = 0;
  while (::read(c1, &c, 1) == 1) response += c;
  ::close(c1);
  EXPECT_NE(response.find("\"id\": \"over-tcp\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;

  const int c2 = connect_client();
  ASSERT_GE(c2, 0);
  const char* bye = "shutdown\n";
  ASSERT_EQ(::write(c2, bye, strlen(bye)), static_cast<ssize_t>(strlen(bye)));
  ::close(c2);
  server.join();
  EXPECT_TRUE(serve_error.empty()) << serve_error;
  EXPECT_EQ(stats.ok, 1u);

  // The loopback guard: a wildcard bind is refused, naming both things
  // exposing serve takes...
  EXPECT_EQ(engine::TcpListener::open("0.0.0.0", 0, /*allow_remote=*/false, &error),
            nullptr);
  EXPECT_NE(error.find("--allow-remote"), std::string::npos) << error;
  EXPECT_NE(error.find("auth token"), std::string::npos) << error;
  // ...and allowed only with the explicit opt-in.
  auto exposed = engine::TcpListener::open("0.0.0.0", 0, /*allow_remote=*/true, &error);
  EXPECT_NE(exposed, nullptr) << error;
}

// ---------------------------------------------------------------------------
// The auth gate: with a configured token, `auth TOKEN` must be the first
// frame. A bad token or a pre-auth frame gets exactly one error line and the
// session closes; a good token is acked silently by serving the next frame.

TEST(ServeAuth, GateClosesUnauthedSessionsAndAdmitsTheRightToken) {
  Rng rng(52);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  options.auth_token = "sesame";

  const auto one_session = [&](const std::string& input) {
    std::istringstream in(input);
    std::ostringstream out;
    const auto stats = engine::serve(SolverRegistry::builtin(), in, out, options);
    return std::make_pair(stats, out.str());
  };

  // A pre-auth solve: one error line, then the session is CLOSED — the
  // well-formed solve queued behind it is never read.
  {
    const auto [stats, out] = one_session("instance sneak\n" + text +
                                          "instance sneak2\n" + text + "quit\n");
    const auto lines = lines_of(out);
    ASSERT_EQ(lines.size(), 1u) << out;
    EXPECT_NE(lines[0].find("auth required"), std::string::npos) << out;
    EXPECT_NE(lines[0].find("\"status\": \"error\""), std::string::npos) << out;
    EXPECT_EQ(stats.ok, 0u);
    EXPECT_EQ(stats.errors, 1u);
  }

  // A bad token (tokens are case-exact): same one-line contract.
  {
    const auto [stats, out] =
        one_session("auth SESAME\ninstance x\n" + text + "quit\n");
    const auto lines = lines_of(out);
    ASSERT_EQ(lines.size(), 1u) << out;
    EXPECT_NE(lines[0].find("auth failed: bad token"), std::string::npos) << out;
    EXPECT_EQ(stats.ok, 0u);
    EXPECT_EQ(stats.errors, 1u);
  }

  // The right token: the auth frame itself produces NO response line; the
  // ack is the next frame being served normally.
  {
    const auto [stats, out] =
        one_session("auth sesame\ninstance good\n" + text + "quit\n");
    const auto lines = lines_of(out);
    ASSERT_EQ(lines.size(), 1u) << out;
    EXPECT_NE(lines[0].find("\"id\": \"good\""), std::string::npos) << out;
    EXPECT_NE(lines[0].find("\"status\": \"ok\""), std::string::npos) << out;
    EXPECT_EQ(stats.ok, 1u);
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.auth_frames, 1u);
  }

  // No configured token: an auth frame is counted and ignored, not an error.
  {
    ServeOptions open = options;
    open.auth_token.clear();
    std::istringstream in("auth whatever\ninstance open\n" + text + "quit\n");
    std::ostringstream out;
    const auto stats = engine::serve(SolverRegistry::builtin(), in, out, open);
    EXPECT_EQ(stats.ok, 1u);
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.auth_frames, 1u);
    EXPECT_NE(out.str().find("\"status\": \"ok\""), std::string::npos) << out.str();
  }
}

// ---------------------------------------------------------------------------
// Per-session quota: with session_max_inflight=1 and the worker stalled by
// fault injection, the second frame arrives while the first is still in
// flight and is refused inline with a structured over-quota error — the
// session stays open and the first solve still completes.

TEST(ServeQuota, ExcessInflightFrameIsRefusedInlineWithOverQuota) {
  Rng rng(53);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string text = instance_text(inst);

  ASSERT_EQ(::setenv("BISCHED_FAULT", "stall-ms:200", 1), 0);
  engine::fault::refresh_from_env();

  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  options.session_max_inflight = 1;

  std::istringstream in("instance slow\n" + text + "instance greedy\n" + text +
                        "quit\n");
  std::ostringstream out;
  const auto stats = engine::serve(SolverRegistry::builtin(), in, out, options);

  ::unsetenv("BISCHED_FAULT");
  engine::fault::refresh_from_env();

  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 1u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u) << out.str();
  std::string ok_line;
  std::string quota_line;
  for (const auto& line : lines) {
    if (line.find("over-quota") != std::string::npos) quota_line = line;
    if (line.find("\"status\": \"ok\"") != std::string::npos) ok_line = line;
  }
  ASSERT_FALSE(quota_line.empty()) << out.str();
  ASSERT_FALSE(ok_line.empty()) << out.str();
  EXPECT_NE(quota_line.find("\"id\": \"greedy\""), std::string::npos) << quota_line;
  EXPECT_NE(ok_line.find("\"id\": \"slow\""), std::string::npos) << ok_line;
}

// ---------------------------------------------------------------------------
// A client that vanishes mid-solve costs the server nothing but a failed
// write: SIGPIPE is ignored, so the next client is served by the same
// process instead of the whole server dying on the broken pipe.

TEST(ServeUnix, ClientDisconnectMidSolveLeavesTheServerStanding) {
  Rng rng(54);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::string text = instance_text(inst);

  // Stall the solve so the response write happens strictly AFTER the ghost
  // client has hung up.
  ASSERT_EQ(::setenv("BISCHED_FAULT", "stall-ms:150", 1), 0);
  engine::fault::refresh_from_env();

  const auto dir = fs::temp_directory_path() / "bisched_serve_hangup";
  fs::create_directories(dir);
  const std::string socket_path = (dir / "serve.sock").string();

  engine::ServeStats stats;
  std::string serve_error;
  ServeOptions options;
  options.threads = 1;
  options.stable_output = true;
  std::thread server([&] {
    stats = engine::serve_unix(SolverRegistry::builtin(), socket_path, options,
                               &serve_error);
  });

  const auto connect_client = [&] {
    for (int attempt = 0; attempt < 200; ++attempt) {
      std::string error;
      const int fd = engine::unix_connect(socket_path, &error);
      if (fd >= 0) return fd;
      ::usleep(10'000);
    }
    return -1;
  };

  // The ghost sends a full solve frame and hangs up without reading a byte.
  const int ghost = connect_client();
  ASSERT_GE(ghost, 0) << serve_error;
  const std::string frame = "instance ghost\n" + text;
  ASSERT_EQ(::write(ghost, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  ::close(ghost);

  // Let the stalled solve finish and write into the dead socket.
  ::usleep(400'000);

  // The survivor is served by the SAME process.
  const int fd = connect_client();
  ASSERT_GE(fd, 0);
  const std::string frame2 = "instance survivor\n" + text;
  ASSERT_EQ(::write(fd, frame2.data(), frame2.size()),
            static_cast<ssize_t>(frame2.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char c = 0;
  while (::read(fd, &c, 1) == 1) response += c;
  ::close(fd);

  ::unsetenv("BISCHED_FAULT");
  engine::fault::refresh_from_env();

  EXPECT_NE(response.find("\"id\": \"survivor\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;

  const int bye = connect_client();
  ASSERT_GE(bye, 0);
  const char* msg = "shutdown\n";
  ASSERT_EQ(::write(bye, msg, strlen(msg)), static_cast<ssize_t>(strlen(msg)));
  ::close(bye);
  server.join();
  fs::remove_all(dir);

  EXPECT_TRUE(serve_error.empty()) << serve_error;
  // Both solves executed and counted ok — the ghost's response was counted
  // before its write failed into the closed socket.
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

// ---------------------------------------------------------------------------
// Subprocess round trip. BISCHED_CLI_PATH is injected by CMake as the
// absolute path of the bisched_cli target.

#ifdef BISCHED_CLI_PATH

class ServeCliTest : public ::testing::Test {
 protected:
  // Launches `bisched_cli serve --stable --threads=1` with both ends piped.
  void SetUp() override {
    ASSERT_EQ(::pipe(to_child_), 0);
    ASSERT_EQ(::pipe(from_child_), 0);
    child_ = ::fork();
    ASSERT_GE(child_, 0);
    if (child_ == 0) {
      ::dup2(to_child_[0], STDIN_FILENO);
      ::dup2(from_child_[1], STDOUT_FILENO);
      ::close(to_child_[0]);
      ::close(to_child_[1]);
      ::close(from_child_[0]);
      ::close(from_child_[1]);
      ::execl(BISCHED_CLI_PATH, BISCHED_CLI_PATH, "serve", "--stable",
              "--threads=1", static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    ::close(to_child_[0]);
    ::close(from_child_[1]);
  }

  void TearDown() override {
    if (to_child_[1] >= 0) ::close(to_child_[1]);
    ::close(from_child_[0]);
    if (child_ > 0) {
      int status = 0;
      ::waitpid(child_, &status, 0);
    }
  }

  void send(const std::string& text) {
    ASSERT_EQ(::write(to_child_[1], text.data(), text.size()),
              static_cast<ssize_t>(text.size()));
  }

  void close_stdin() {
    ::close(to_child_[1]);
    to_child_[1] = -1;
  }

  // Blocks until the child emits one full response line.
  std::string read_line() {
    std::string line;
    char c = 0;
    while (::read(from_child_[0], &c, 1) == 1) {
      if (c == '\n') return line;
      line += c;
    }
    return line;
  }

  int to_child_[2] = {-1, -1};
  int from_child_[2] = {-1, -1};
  pid_t child_ = -1;
};

TEST_F(ServeCliTest, TwoSequentialRequestsOneProcessWarmCacheHit) {
  Rng rng(43);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::string text = instance_text(inst);

  // Request 1, then *wait for its response* before sending request 2: the
  // response must stream back while the server still holds the connection —
  // a collect-then-write loop would deadlock right here.
  send("instance r1\n" + text);
  const std::string first = read_line();
  ASSERT_NE(first.find("\"id\": \"r1\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"status\": \"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"cache\": \"miss\""), std::string::npos) << first;

  // Request 2: the same instance again. One process, same registry + cache:
  // the probe must be served from the warm cache.
  send("instance r2\n" + text);
  const std::string second = read_line();
  ASSERT_NE(second.find("\"id\": \"r2\""), std::string::npos) << second;
  EXPECT_NE(second.find("\"status\": \"ok\""), std::string::npos) << second;
  EXPECT_NE(second.find("\"cache\": \"hit-memory\""), std::string::npos) << second;

  // Same content -> byte-identical result fields apart from id, seq, and
  // the cache provenances (both the probe and the solve were served warm the
  // second time).
  const auto strip = [](std::string line) {
    const auto seq = line.find("\"seq\"");
    const auto comma = line.find(',', seq);
    line.erase(0, comma);  // drops {"id": ..., "seq": N
    const auto replace = [&line](const std::string& from, const std::string& to) {
      const auto at = line.find(from);
      if (at != std::string::npos) line.replace(at, from.size(), to);
    };
    replace("\"solve_cache\": \"hit-memory\"", "\"solve_cache\": \"miss\"");
    replace("\"cache\": \"hit-memory\"", "\"cache\": \"miss\"");
    return line;
  };
  EXPECT_EQ(strip(first), strip(second));

  close_stdin();  // EOF: the server drains and exits
}

TEST_F(ServeCliTest, StatsFrameReportsExactCountersInLockstep) {
  Rng rng(49);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::string text = instance_text(inst);
  send("instance r1\n" + text);
  (void)read_line();
  send("instance r2\n" + text);
  (void)read_line();
  // Both responses are already streamed back, so every counter the stats
  // frame reports is settled — exact values, no pool race.
  send("stats s\n");
  const std::string stats = read_line();
  EXPECT_NE(stats.find("\"type\": \"stats\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"id\": \"s\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"requests\": 3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"ok\": 2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"profile_hits_memory\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"result_hits_memory\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"result_hit_rate\": 0.5"), std::string::npos) << stats;
  close_stdin();
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
