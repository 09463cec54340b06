#include "io/format.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "random/generators.hpp"
#include "reference_format.hpp"
#include "sched/instance_hash.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

TEST(IoFormat, ParseUniformBasic) {
  std::istringstream in(
      "# a comment\n"
      "bisched uniform v1\n"
      "jobs 3\n"
      "p 5 1 2\n"
      "speeds 2\n"
      "4 1\n"
      "edges 1\n"
      "0 2\n");
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.uniform.has_value());
  EXPECT_EQ(parsed.uniform->num_jobs(), 3);
  EXPECT_EQ(parsed.uniform->speeds, (std::vector<std::int64_t>{4, 1}));
  EXPECT_TRUE(parsed.uniform->conflicts.has_edge(0, 2));
}

TEST(IoFormat, ParseUnrelatedBasic) {
  std::istringstream in(
      "bisched unrelated v1\n"
      "jobs 2\n"
      "machines 2\n"
      "times\n"
      "1 2\n"
      "3 0\n"
      "edges 0\n");
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_TRUE(parsed.unrelated.has_value());
  EXPECT_EQ(parsed.unrelated->times[1][0], 3);
}

TEST(IoFormat, UniformRoundTrip) {
  Rng rng(5);
  for (int iter = 0; iter < 10; ++iter) {
    const auto inst = testing::random_uniform_instance(4, 5, 3, 9, 6, rng);
    std::ostringstream out;
    write_instance(out, inst);
    std::istringstream in(out.str());
    const auto parsed = parse_instance(in);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_TRUE(parsed.uniform.has_value());
    EXPECT_EQ(parsed.uniform->p, inst.p);
    EXPECT_EQ(parsed.uniform->speeds, inst.speeds);
    EXPECT_EQ(parsed.uniform->conflicts.num_edges(), inst.conflicts.num_edges());
    // Re-serialize: identical text.
    std::ostringstream out2;
    write_instance(out2, *parsed.uniform);
    EXPECT_EQ(out.str(), out2.str());
  }
}

TEST(IoFormat, UnrelatedRoundTrip) {
  Rng rng(6);
  for (int iter = 0; iter < 10; ++iter) {
    const auto inst = testing::random_r2_instance(4, 4, 20, rng);
    std::ostringstream out;
    write_instance(out, inst);
    std::istringstream in(out.str());
    const auto parsed = parse_instance(in);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_TRUE(parsed.unrelated.has_value());
    EXPECT_EQ(parsed.unrelated->times, inst.times);
  }
}

TEST(IoFormat, ScheduleRoundTrip) {
  Schedule s{{0, 2, 1, 0}};
  std::ostringstream out;
  write_schedule(out, s);
  std::istringstream in(out.str());
  std::string error;
  const auto parsed = parse_schedule(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->machine_of, s.machine_of);
}

TEST(IoFormat, ErrorsAreDiagnosable) {
  {
    std::istringstream in("not-bisched");
    const auto parsed = parse_instance(in);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("bisched"), std::string::npos);
  }
  {
    std::istringstream in("bisched uniform v1\njobs 2\np 1\n");  // too few p
    EXPECT_FALSE(parse_instance(in).ok());
  }
  {
    std::istringstream in("bisched uniform v1\njobs 2\np 1 1\nspeeds 1\n0\nedges 0\n");
    const auto parsed = parse_instance(in);  // zero speed
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("speeds"), std::string::npos);
  }
  {
    std::istringstream in(
        "bisched uniform v1\njobs 2\np 1 1\nspeeds 1\n3\nedges 1\n0 5\n");
    const auto parsed = parse_instance(in);  // edge endpoint out of range
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("edge"), std::string::npos);
  }
  {
    std::istringstream in("bisched uniform v1\njobs 2\np 1 1\nspeeds 1\n3\nedges 1\n1 1\n");
    EXPECT_FALSE(parse_instance(in).ok());  // self-loop
  }
  {
    std::istringstream in("bisched schedule v1\njobs 2\nmachine_of 0 -1\n");
    std::string error;
    EXPECT_FALSE(parse_schedule(in, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(IoFormat, CommentsAndWhitespaceTolerated) {
  std::istringstream in(
      "bisched   uniform\n"
      "  v1 # trailing comment\n"
      "jobs 1 # one job\n"
      "p 7\n"
      "speeds 1\n"
      "2\n"
      "edges 0\n");
  const auto parsed = parse_instance(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.uniform->p[0], 7);
}

// ---------------------------------------------------------------------------
// The resumable parser against the pre-rewrite parser it replaced
// (tests/reference_format.hpp): same outcome, same error string, same stop
// offset, same instance — fed whole, and split in two at every byte offset
// (64 seeded offsets for inputs over 2 KB) with the unread rest handed over
// in a fresh buffer, so the parser cannot lean on bytes it already consumed.

// Valid instances in spellings the writers never emit: '#' comments, CRLF,
// tabs, \v and \f, '+' signs; then integers that overflow int64 or hold a
// NUL byte; then the array steps' plain-token boundary (kPlainBoundary on).
const std::vector<std::string>& spelled_corpus() {
  using namespace std::string_literals;
  static const std::vector<std::string> corpus = {
      "# leading comment\r\nbisched\tuniform v1 # trailing\r\njobs +3\r\n"
      "p 5\v+1 2\fspeeds 2\n\t4 1\r\nedges 2 #c\n0 2\r\n+1\t2",
      "bisched unrelated v1\njobs 3\nmachines +2\ntimes # rows follow\n1 +0 7\r\n"
      "\v3\f0\t2\nedges 2\n#\n0 1\r\n2 +1 # last\n",
      "bisched uniform v1\r\njobs 2\r\np 9223372036854775807 1\r\nspeeds 1\r\n"
      "+9223372036854775807\r\nedges 1\r\n1 0\r\n",
      "bisched uniform v1\njobs 2\np 1 99999999999999999999\nspeeds 1\n1\nedges 0\n",
      "bisched uniform v1\njobs 1\np 1\nspeeds 1\n1\nedges 9223372036854775808\n",
      "bisched unrelated v1\njobs 1\nmachines 1\ntimes\n-9223372036854775809\nedges 0\n",
      // An embedded NUL byte is part of the token, so `1\0x` is no integer.
      "bisched uniform v1\njobs 1\0x\np 1\nspeeds 1\n1\nedges 0\n"s,
      // The plain-token boundary, in every array step: 17 and 18 digits
      // (plain), 19 digits, INT64_MAX and 20 zero-padded characters (the
      // general path), signs, and \t, \v and \f separators. The first text
      // parses; the other two end at INT64_MAX + 1 in a time row and at a
      // `1#c` glued to its comment in the edges, since a parse stops at its
      // first bad token.
      "bisched uniform v1\njobs 8\n"
      "p 12345678901234567\t123456789012345678\v1234567890123456789\f"
      "9223372036854775807 00000000000000000042\t+7 1\v00000000000000001\n"
      "speeds 4\n123456789012345678\v+7\f1000000000000000000\t00000000000000000009\n"
      "edges 4\n00000000000000001 000000000000000002\n"
      "0000000000000000003\t00000000000000000004\n+7\v-0\n-0\f00000000000000000005",
      "bisched unrelated v1\njobs 4\nmachines 2\ntimes\n"
      "12345678901234567\f-0\v00000000000000000042\t+7\n"
      "123456789012345678 1234567890123456789\t9223372036854775807\v9223372036854775808\n"
      "edges 1\n0 1\n",
      "bisched uniform v1\njobs 3\np 1\t+7\v12345678901234567\nspeeds 2\n1\f+7\n"
      "edges 2\n0 1\n2 1#c\n",
  };
  return corpus;
}

// Where the plain-token boundary texts start in spelled_corpus().
constexpr std::size_t kPlainBoundary = 7;

struct Outcome {
  InstanceRecord record;
  std::size_t stop = 0;
};

// Feeds text[0, split) without eof, then (if the parser asks for more) the
// unread rest of the text in a fresh buffer with eof.
Outcome feed_split(const std::string& text, std::size_t split) {
  InstanceParser parser;
  std::size_t pos = 0;
  auto status = parser.feed(std::string_view(text).substr(0, split), &pos, false);
  std::size_t stop = pos;
  if (status == InstanceParser::Status::kNeedMore) {
    const std::string rest = text.substr(pos);
    std::size_t rest_pos = 0;
    status = parser.feed(rest, &rest_pos, true);
    stop = pos + rest_pos;
  }
  EXPECT_NE(status, InstanceParser::Status::kNeedMore);
  return {parser.take(), stop};
}

bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) return false;
  for (int u = 0; u < a.num_vertices(); ++u) {
    if (a.neighbors(u) != b.neighbors(u)) return false;
  }
  return true;
}

::testing::AssertionResult same_instance(const ParsedInstance& got,
                                         const ParsedInstance& want) {
  if (got.ok() != want.ok() || got.error != want.error) {
    return ::testing::AssertionFailure()
           << "error '" << got.error << "', oracle '" << want.error << "'";
  }
  if (!want.ok()) return ::testing::AssertionSuccess();
  if (want.uniform.has_value()) {
    if (!got.uniform.has_value() || got.uniform->p != want.uniform->p ||
        got.uniform->speeds != want.uniform->speeds ||
        !same_graph(got.uniform->conflicts, want.uniform->conflicts) ||
        instance_hash(*got.uniform) != instance_hash(*want.uniform)) {
      return ::testing::AssertionFailure() << "uniform instance differs";
    }
  } else if (!got.unrelated.has_value() || got.unrelated->times != want.unrelated->times ||
             !same_graph(got.unrelated->conflicts, want.unrelated->conflicts) ||
             instance_hash(*got.unrelated) != instance_hash(*want.unrelated)) {
    return ::testing::AssertionFailure() << "unrelated instance differs";
  }
  return ::testing::AssertionSuccess();
}

// The record builds the oracle's instance, and its streamed hash equals
// instance_hash of the oracle's instance without a build.
::testing::AssertionResult same_record(const InstanceRecord& got, const ParsedInstance& want) {
  const ::testing::AssertionResult built = same_instance(got.build(), want);
  if (!built || !want.ok()) return built;
  const std::uint64_t want_hash = want.uniform.has_value() ? instance_hash(*want.uniform)
                                                           : instance_hash(*want.unrelated);
  if (got.hash() != want_hash) {
    return ::testing::AssertionFailure()
           << "record hash " << hash_hex(got.hash()) << ", oracle " << hash_hex(want_hash);
  }
  return ::testing::AssertionSuccess();
}

// Every way of feeding `text` agrees with the oracle.
void expect_matches_oracle(const std::string& text, std::uint64_t seed) {
  std::size_t want_stop = 0;
  const ParsedInstance want = reference::parse_with_stop(text, &want_stop);
  ASSERT_TRUE(same_instance(parse_instance(text), want)) << "whole text";
  ASSERT_TRUE(same_record(parse_instance_record(text), want)) << "whole text record";
  std::istringstream in(text);
  ASSERT_TRUE(same_instance(parse_instance(in), want)) << "istream";
  std::vector<std::size_t> splits;
  if (text.size() <= 2048) {
    for (std::size_t split = 0; split <= text.size(); ++split) splits.push_back(split);
  } else {
    Rng rng(seed);
    for (int i = 0; i < 64; ++i) {
      splits.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()))));
    }
  }
  for (const std::size_t split : splits) {
    const Outcome got = feed_split(text, split);
    ASSERT_TRUE(same_record(got.record, want)) << "split at " << split;
    ASSERT_EQ(got.stop, want_stop) << "split at " << split;
  }
}

// The bases the fuzz tests mutate and truncate: writer output (uniform,
// unrelated, and one over 2 KB) plus the hand-spelled corpus.
std::vector<std::string> fuzz_bases() {
  Rng rng(1234);
  std::vector<std::string> bases;
  const auto written = [&bases](const auto& inst) {
    std::ostringstream out;
    write_instance(out, inst);
    bases.push_back(out.str());
  };
  written(testing::random_uniform_instance(4, 4, 3, 9, 4, rng));
  written(testing::random_r2_instance(3, 3, 9, rng));
  std::vector<std::int64_t> p(400);
  for (auto& x : p) x = rng.uniform_int(1, 1000);
  written(make_uniform_instance(std::move(p), {9, 4, 4, 1},
                                random_bipartite_edges(200, 200, 150, rng)));
  for (const std::string& text : spelled_corpus()) bases.push_back(text);
  return bases;
}

// Fuzz: byte-level mutations of a valid serialization must never crash the
// parser — it either parses (mutation hit whitespace/comments) or reports an
// error string — and must match the reference parser exactly. The parser is
// the one component that consumes untrusted input, so it must not
// BISCHED_CHECK-abort on malformed data.
TEST(IoFormatFuzz, MutatedInputsNeverCrash) {
  Rng rng(1234);
  const auto bases = fuzz_bases();
  const char charset[] = "0123456789 -+azbc#\n\r\t\v\f";
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = bases[static_cast<std::size_t>(iter) % bases.size()];
    const int mutations = 1 + static_cast<int>(rng.uniform_int(0, 4));
    for (int k = 0; k < mutations; ++k) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = charset[rng.uniform_int(0, static_cast<std::int64_t>(sizeof charset) - 2)];
    }
    const auto parsed = parse_instance(mutated);  // must return, never abort
    if (parsed.ok()) {
      EXPECT_TRUE(parsed.uniform.has_value() || parsed.unrelated.has_value());
    } else {
      EXPECT_FALSE(parsed.error.empty());
    }
    SCOPED_TRACE("mutation " + std::to_string(iter));
    expect_matches_oracle(mutated, static_cast<std::uint64_t>(iter));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IoFormatFuzz, TruncatedInputsNeverCrash) {
  Rng rng(99);
  const auto inst = testing::random_r2_instance(3, 3, 9, rng);
  std::ostringstream out;
  write_instance(out, inst);
  const std::string base = out.str();
  for (std::size_t len = 0; len < base.size(); len += 3) {
    std::istringstream in(base.substr(0, len));
    const auto parsed = parse_instance(in);
    EXPECT_FALSE(parsed.ok());  // truncation always breaks something
    EXPECT_FALSE(parsed.error.empty());
  }
  // Every prefix of every base, the whole text included, against the
  // reference parser (16 seeded prefixes of the one over 2 KB).
  const auto bases = fuzz_bases();
  ASSERT_GT(bases[2].size(), 2048u);
  for (const int valid : {0, 1, 2}) {  // the spelled instances meant to parse
    EXPECT_TRUE(parse_instance(spelled_corpus()[valid]).ok()) << valid;
  }
  EXPECT_EQ(parse_instance(spelled_corpus()[6]).error, "expected an integer after 'jobs'");
  for (const std::string& text : bases) {
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len <= text.size(); ++len) lengths.push_back(len);
    if (text.size() > 2048) {
      Rng pick(7);
      lengths.resize(16);
      for (auto& len : lengths) {
        len = static_cast<std::size_t>(
            pick.uniform_int(0, static_cast<std::int64_t>(text.size())));
      }
      lengths.push_back(text.size());
    }
    for (const std::size_t len : lengths) {
      SCOPED_TRACE("prefix of " + std::to_string(len) + " bytes");
      expect_matches_oracle(text.substr(0, len), len);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// The boundary texts reach the tokens they are there for: every value of
// the first one as written, and the other two fail at their last token.
TEST(IoFormatFuzz, PlainTokenBoundaryTextsReachEveryToken) {
  const auto& corpus = spelled_corpus();
  const ParsedInstance plain = parse_instance(corpus[kPlainBoundary]);
  ASSERT_TRUE(plain.ok()) << plain.error;
  const std::vector<std::int64_t> p = {12345678901234567, 123456789012345678,
                                       1234567890123456789, INT64_MAX, 42, 7, 1, 1};
  EXPECT_EQ(plain.uniform->p, p);
  const std::vector<std::int64_t> speeds = {1000000000000000000, 123456789012345678, 9, 7};
  EXPECT_EQ(plain.uniform->speeds, speeds);
  const Graph& g = plain.uniform->conflicts;
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(g.has_edge(1, 2) && g.has_edge(3, 4) && g.has_edge(7, 0) && g.has_edge(0, 5));
  EXPECT_EQ(parse_instance(corpus[kPlainBoundary + 1]).error,
            "expected 4 integers for times row");
  EXPECT_EQ(parse_instance(corpus[kPlainBoundary + 2]).error, "expected 2 edge lines");
}

TEST(IoFormat, NegativeTimeRejected) {
  std::istringstream in(
      "bisched unrelated v1\njobs 1\nmachines 1\ntimes\n-2\nedges 0\n");
  const auto parsed = parse_instance(in);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("times"), std::string::npos);
}

}  // namespace
}  // namespace bisched
