// CLI flag hygiene: a flag the subcommand does not read (a typo, or a
// retired option such as --serve-core) exits 2 with a message naming it,
// before the command runs; the flags the subcommand reads keep working.
// Also the serve summary line on stderr, whose breakdown must add up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_process.hpp"

namespace bisched {
namespace {

#ifdef BISCHED_CLI_PATH

using testing::CliRun;
using testing::run_cli;

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

TEST(CliFlags, SimStoreAppliesToInProcessRunsOnly) {
  // A live run's caches are the server's: --store next to --connect is an
  // error before anything is read or replayed.
  const CliRun run = run_cli({"sim", "--trace-in=missing.trace",
                              "--connect=unix:missing.sock", "--store=unused"});
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_NE(run.err.find("--store applies to in-process runs only"), std::string::npos)
      << run.err;
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
