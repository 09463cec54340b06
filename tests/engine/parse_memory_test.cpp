// Parse memory follows the bytes received, not the counts a text declares:
// a few dozen bytes claiming ten million jobs must not make `bisched_cli
// solve -` allocate for them before a single value has arrived. The same
// parser serves inline JSON instances, so this bounds a serve worker too.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace bisched {
namespace {

#ifdef BISCHED_CLI_PATH

struct PeakRun {
  int exit_code = -1;
  long max_rss_kib = -1;
};

// Runs `bisched_cli solve --alg=auto -` with `input` on stdin and its
// output discarded; returns the exit code and the child's peak RSS (wait4).
PeakRun solve_from_stdin(const std::string& input) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("bisched_parse_memory_" + std::to_string(::getpid()) + ".inst");
  std::ofstream(path) << input;
  PeakRun run;
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int in_fd = ::open(path.c_str(), O_RDONLY);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(in_fd, STDIN_FILENO);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    ::execl(BISCHED_CLI_PATH, BISCHED_CLI_PATH, "solve", "--alg=auto", "-",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int status = 0;
  rusage usage{};
  if (pid > 0 && ::wait4(pid, &status, 0, &usage) == pid) {
    run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    run.max_rss_kib = usage.ru_maxrss;
  }
  std::filesystem::remove(path);
  return run;
}

TEST(CliParseMemory, DeclaredCountsAllocateNothingBeforeValuesArrive) {
  const PeakRun valid =
      solve_from_stdin("bisched uniform v1\njobs 2\np 1 1\nspeeds 1\n1\nedges 0\n");
  ASSERT_EQ(valid.exit_code, 0);
  ASSERT_GT(valid.max_rss_kib, 0);
  constexpr long kGapKib = 16 * 1024;
  for (const char* hostile : {
           "bisched unrelated v1\njobs 10000000\nmachines 1000000\ntimes\n",
           "bisched uniform v1\njobs 10000000\np 1\n",
       }) {
    const PeakRun run = solve_from_stdin(hostile);
    EXPECT_GT(run.exit_code, 0) << hostile;  // a parse error, not a crash
    EXPECT_LT(run.max_rss_kib - valid.max_rss_kib, kGapKib)
        << hostile << "peaked at " << run.max_rss_kib << " KiB against "
        << valid.max_rss_kib << " KiB for a valid instance";
  }
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
