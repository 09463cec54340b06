// Parse memory follows the bytes received, not the counts a text declares:
// a few dozen bytes claiming ten million jobs must not make `bisched_cli
// solve -` allocate for them before a single value has arrived. The same
// parser serves inline JSON instances, so this bounds a serve worker too.
#include <gtest/gtest.h>

#include <string>

#include "cli_process.hpp"

namespace bisched {
namespace {

#ifdef BISCHED_CLI_PATH

// `bisched_cli solve --alg=auto -` with `input` on stdin.
testing::CliRun solve_from_stdin(const std::string& input) {
  return testing::run_cli({"solve", "--alg=auto", "-"}, input);
}

TEST(CliParseMemory, DeclaredCountsAllocateNothingBeforeValuesArrive) {
  const testing::CliRun valid =
      solve_from_stdin("bisched uniform v1\njobs 2\np 1 1\nspeeds 1\n1\nedges 0\n");
  ASSERT_EQ(valid.exit_code, 0);
  ASSERT_GT(valid.max_rss_kib, 0);
  constexpr long kGapKib = 16 * 1024;
  for (const char* hostile : {
           "bisched unrelated v1\njobs 10000000\nmachines 1000000\ntimes\n",
           "bisched uniform v1\njobs 10000000\np 1\n",
       }) {
    const testing::CliRun run = solve_from_stdin(hostile);
    EXPECT_GT(run.exit_code, 0) << hostile;  // a parse error, not a crash
    EXPECT_LT(run.max_rss_kib - valid.max_rss_kib, kGapKib)
        << hostile << "peaked at " << run.max_rss_kib << " KiB against "
        << valid.max_rss_kib << " KiB for a valid instance";
  }
}

#endif  // BISCHED_CLI_PATH

}  // namespace
}  // namespace bisched
