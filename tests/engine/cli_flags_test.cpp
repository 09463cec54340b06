// CLI flag hygiene: a flag the subcommand does not read (a typo, or a
// retired option such as --serve-core) exits 2 with a message naming it,
// before the command runs; the flags the subcommand reads keep working.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

namespace bisched {
namespace {

#ifdef BISCHED_CLI_PATH

struct CliRun {
  int exit_code = -1;
  std::string err;
};

// Runs `bisched_cli <args>` with stdin at EOF and stdout discarded.
CliRun run_cli(const std::vector<std::string>& args) {
  CliRun run;
  int err_pipe[2] = {-1, -1};
  if (::pipe(err_pipe) != 0) return run;
  const pid_t pid = ::fork();
  if (pid < 0) return run;
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, STDIN_FILENO);
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

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
