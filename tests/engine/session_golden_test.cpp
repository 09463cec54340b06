// Golden transcripts for the session engine: one frame stream (solves in
// every form, a malformed frame, a malformed body with resync, a missing
// file, a reserved id) goes in, exact response bytes come out. Both runners
// — the stream pump (stdio) and the event loop (unix socket), fed the whole
// stream in one write or one byte per write — must reproduce the checked-in
// bytes, for serve and for the fleet router alike. threads=1 keeps seq
// assignment deterministic and --stable strips timing.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>

#include "engine/fleet/router.hpp"
#include "engine/serve.hpp"
#include "engine/transport.hpp"

namespace bisched {
namespace {

#if defined(BISCHED_GOLDEN_DIR) && defined(BISCHED_CLI_PATH)

namespace fs = std::filesystem;

std::string golden(const std::string& name) {
  std::ifstream file(std::string(BISCHED_GOLDEN_DIR) + "/" + name, std::ios::binary);
  std::stringstream bytes;
  bytes << file.rdbuf();
  return bytes.str();
}

// Writes `bytes` to `fd` whole or one byte per write(), then half-closes
// (sockets) or closes (pipes) it.
void feed(int fd, const std::string& bytes, bool one_byte_writes, bool socket) {
  const std::size_t step = one_byte_writes ? 1 : bytes.size();
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, std::min(step, bytes.size() - off));
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  if (socket) {
    ::shutdown(fd, SHUT_WR);
  } else {
    ::close(fd);
  }
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

// Stdio: `run` gets an istream over a pipe the stream is fed into.
std::string through_stdio(const std::string& stream, bool one_byte_writes,
                          const std::function<void(std::istream&, std::ostream&)>& run) {
  int fds[2];
  if (::pipe(fds) != 0) return "";
  std::thread writer(feed, fds[1], stream, one_byte_writes, /*socket=*/false);
  std::ostringstream out;
  {
    engine::FdTransport in(fds[0], "stdin");
    run(in.in(), out);
  }
  writer.join();
  return out.str();
}

// Sockets: `run` serves the listener until a client sends `shutdown`.
std::string through_socket(const std::string& stream, bool one_byte_writes,
                           const std::string& tag,
                           const std::function<void(engine::Listener&)>& run) {
  const auto dir = fs::temp_directory_path() / ("bisched_golden_" + tag);
  fs::create_directories(dir);
  std::string error;
  auto listener = engine::UnixListener::open((dir / "s.sock").string(), &error);
  EXPECT_NE(listener, nullptr) << error;
  if (listener == nullptr) return "";
  std::thread server([&] { run(*listener); });
  const std::string path = listener->path();
  const int fd = engine::unix_connect(path, &error);
  std::string response;
  if (fd >= 0) {
    feed(fd, stream, one_byte_writes, /*socket=*/true);
    response = read_to_eof(fd);
    ::close(fd);
  }
  const int bye = engine::unix_connect(path, &error);
  if (bye >= 0) {
    feed(bye, "shutdown\n", false, /*socket=*/true);
    ::close(bye);
  }
  server.join();
  listener.reset();
  fs::remove_all(dir);
  return response;
}

TEST(SessionGolden, ServeTranscriptOnStdioAndSockets) {
  const std::string stream = golden("session_stream.txt");
  const std::string want = golden("serve_transcript.jsonl");
  ASSERT_FALSE(want.empty());
  engine::ServeOptions options;
  options.threads = 1;
  options.stable_output = true;

  for (const bool one_byte : {false, true}) {
    engine::ServeStats stdio_stats;
    const std::string stdio = through_stdio(
        stream, one_byte, [&](std::istream& in, std::ostream& out) {
          stdio_stats = engine::serve(engine::SolverRegistry::builtin(), in, out, options);
        });
    EXPECT_EQ(stdio, want) << "stdio, one-byte writes: " << one_byte;

    engine::ServeStats socket_stats;
    std::string error;
    const std::string socket = through_socket(
        stream, one_byte, one_byte ? "serve_bytes" : "serve_whole",
        [&](engine::Listener& listener) {
          socket_stats = engine::serve_listener(engine::SolverRegistry::builtin(),
                                                listener, options, &error);
        });
    EXPECT_EQ(socket, want) << "socket, one-byte writes: " << one_byte;
    EXPECT_TRUE(error.empty()) << error;

    // Stdio and sockets account the stream the same way.
    for (const engine::ServeStats* stats : {&stdio_stats, &socket_stats}) {
      EXPECT_EQ(stats->requests, 7u);
      EXPECT_EQ(stats->ok, 3u);
      EXPECT_EQ(stats->errors, 4u);
      EXPECT_EQ(stats->malformed, 2u);
    }
  }
}

TEST(SessionGolden, RouteTranscriptOnStdioAndSockets) {
  const std::string stream = golden("session_stream.txt");
  const std::string want = golden("route_transcript.jsonl");
  ASSERT_FALSE(want.empty());
  // What `route --fleet=2 --stable --route-threads=1` configures.
  engine::fleet::RouterOptions options;
  options.fleet = 2;
  options.cli_path = BISCHED_CLI_PATH;
  options.serve_args = {"--stable"};
  options.threads = 1;

  for (const bool one_byte : {false, true}) {
    std::string error;
    engine::fleet::RouterStats stdio_stats;
    const std::string stdio = through_stdio(
        stream, one_byte, [&](std::istream& in, std::ostream& out) {
          stdio_stats = engine::fleet::route_stdio(options, in, out, &error);
        });
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(stdio, want) << "stdio, one-byte writes: " << one_byte;

    engine::fleet::RouterStats socket_stats;
    const std::string socket = through_socket(
        stream, one_byte, one_byte ? "route_bytes" : "route_whole",
        [&](engine::Listener& listener) {
          socket_stats = engine::fleet::route_listener(options, listener, &error);
        });
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(socket, want) << "socket, one-byte writes: " << one_byte;

    for (const engine::fleet::RouterStats* stats : {&stdio_stats, &socket_stats}) {
      EXPECT_EQ(stats->requests, 7u);
      EXPECT_EQ(stats->ok, 3u);
      EXPECT_EQ(stats->errors, 4u);
      EXPECT_EQ(stats->degraded, 0u);
    }
  }
}

#endif  // BISCHED_GOLDEN_DIR && BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
