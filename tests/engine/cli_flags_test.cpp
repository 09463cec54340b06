// CLI flag hygiene: a flag the subcommand does not read (a typo, or a
// retired option such as --serve-core) exits 2 with a message naming it,
// before the command runs; the flags the subcommand reads keep working, and
// `gen` refuses an out-of-range knob with exit 2 instead of aborting. Also
// the serve summary line on stderr, whose breakdown must add up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_process.hpp"
#include "util/fnv.hpp"

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

TEST(CliFlags, GenRefusesOutOfRangeKnobsWithTheMixMessage) {
  const struct {
    std::vector<std::string> args;
    const char* message;
  } cases[] = {
      {{"gen", "gilbert", "--smax=0"}, "gen: mix: gilbert needs smax >= 1"},
      {{"gen", "gilbert", "--m=-1"}, "gen: mix: machines must be in [1, 4096]"},
      {{"gen", "gilbert", "--n=0"}, "gen: mix: n must be in [1, 100000]"},
      {{"gen", "gilbert", "--n=4294967297"}, "gen: mix: n must be in [1, 100000]"},
      {{"gen", "gilbert", "--a=0"}, "gen: mix: gilbert needs a > 0"},
      {{"gen", "crown", "--n=0"}, "gen: mix: n must be in [1, 100000]"},
      {{"gen", "crown", "--wmax=0"}, "gen: mix: crown needs wmax >= 1"},
      {{"gen", "r2", "--n=2", "--edges=9"}, "gen: mix: r2 edges must fit a*b"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_cli(c.args);
    EXPECT_EQ(run.exit_code, 2) << c.message << ": " << run.err;
    EXPECT_EQ(run.out, "") << c.message;
    EXPECT_NE(run.err.find(c.message), std::string::npos) << run.err;
  }
}

TEST(CliFlags, GenDefaultsPrintTheSameBytesAsBefore) {
  // FNV-1a of `gen FAMILY --seed=7` as printed before gen sampled through
  // random/workload_mix: the same generator calls in the same order.
  const struct {
    const char* family;
    std::size_t bytes;
    std::uint64_t hash;
  } cases[] = {
      {"gilbert", 1781, 0x57af481100e5f534ULL},
      {"crown", 2233, 0x9862445d2257da50ULL},
      {"r2", 757, 0xe6d4817b30529b51ULL},
  };
  for (const auto& c : cases) {
    const CliRun run = run_cli({"gen", c.family, "--seed=7"});
    ASSERT_EQ(run.exit_code, 0) << run.err;
    Fnv1a hash;
    hash.bytes(run.out);
    EXPECT_EQ(run.out.size(), c.bytes) << c.family;
    EXPECT_EQ(hash.value(), c.hash) << c.family;
  }
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
