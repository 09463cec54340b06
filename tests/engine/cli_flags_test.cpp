// CLI flag hygiene: a flag the subcommand does not read (a typo, or a
// retired option such as --serve-core) exits 2 with a message naming it,
// before the command runs; the flags the subcommand reads keep working.
// Also the serve summary line on stderr, whose breakdown must add up.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace bisched {
namespace {

#ifdef BISCHED_CLI_PATH

struct CliRun {
  int exit_code = -1;
  std::string err;
};

// Runs `bisched_cli <args>` with `input` on stdin (then EOF) and stdout
// discarded. `input` must fit in a pipe buffer.
CliRun run_cli(const std::vector<std::string>& args, const std::string& input = "") {
  CliRun run;
  int err_pipe[2] = {-1, -1};
  int in_pipe[2] = {-1, -1};
  if (::pipe(err_pipe) != 0 || ::pipe(in_pipe) != 0) return run;
  if (::write(in_pipe[1], input.data(), input.size()) !=
      static_cast<ssize_t>(input.size())) {
    return run;
  }
  ::close(in_pipe[1]);
  const pid_t pid = ::fork();
  if (pid < 0) return run;
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(err_pipe[0]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(BISCHED_CLI_PATH));
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(BISCHED_CLI_PATH, argv.data());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(err_pipe[1]);
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(err_pipe[0], buf, sizeof(buf))) > 0) {
    run.err.append(buf, static_cast<std::size_t>(n));
  }
  ::close(err_pipe[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

TEST(CliFlags, UnknownFlagsExitTwoAndNameTheFlag) {
  const struct {
    std::vector<std::string> args;
    const char* flag;
  } cases[] = {
      {{"serve", "--bogus-flag=1"}, "--bogus-flag"},
      {{"solve", "--alg=alg1", "--epz=0.5"}, "--epz"},
      {{"serve", "--serve-core=threads", "--stable"}, "--serve-core"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_cli(c.args);
    EXPECT_EQ(run.exit_code, 2) << c.flag << ": " << run.err;
    EXPECT_NE(run.err.find(std::string("unknown flag ") + c.flag), std::string::npos)
        << run.err;
  }
}

TEST(CliFlags, TheFlagsACommandReadsAreAccepted) {
  // An empty stdio session: every serve knob parses, nothing is served.
  const CliRun serve = run_cli({"serve", "--stable", "--threads=1", "--alg=auto",
                                "--eps=0.1", "--slow-ms=-1", "--max-inflight=2",
                                "--session-max-inflight=0", "--pipeline-depth=4",
                                "--idle-timeout-ms=0"});
  EXPECT_EQ(serve.exit_code, 0) << serve.err;
  const CliRun algs = run_cli({"list-algs", "--json"});
  EXPECT_EQ(algs.exit_code, 0) << algs.err;
}

TEST(CliServe, SummaryBreakdownAddsUpToTheRequestCount) {
  // "serve: N requests (a solve, b stats, ...)": every admitted frame type
  // has its own term, auth frames included.
  const CliRun run = run_cli({"serve", "--auth-token=sesame", "--threads=1"},
                             "auth sesame\nstats s1\nshutdown\n");
  EXPECT_EQ(run.exit_code, 0) << run.err;
  const auto at = run.err.find("serve: ");
  ASSERT_NE(at, std::string::npos) << run.err;
  const std::string line = run.err.substr(at, run.err.find('\n', at) - at);
  unsigned long long total = 0;
  int consumed = 0;
  ASSERT_EQ(std::sscanf(line.c_str(), "serve: %llu requests (%n", &total, &consumed), 1)
      << line;
  std::string rest = line.substr(static_cast<std::size_t>(consumed));
  rest = rest.substr(0, rest.find(')'));
  unsigned long long sum = 0;
  unsigned long long auth = 0;
  for (std::size_t start = 0; start < rest.size();) {
    const std::size_t end = std::min(rest.find(", ", start), rest.size());
    unsigned long long count = 0;
    char word[32] = {};
    ASSERT_EQ(std::sscanf(rest.substr(start, end - start).c_str(), "%llu %31s", &count, word),
              2)
        << line;
    sum += count;
    if (std::string(word) == "auth") auth = count;
    start = end + 2;
  }
  EXPECT_EQ(total, 2u) << line;  // auth + stats; shutdown is not a request
  EXPECT_EQ(auth, 1u) << line;
  EXPECT_EQ(sum, total) << line;
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
