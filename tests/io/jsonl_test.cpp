// The flat JSON request parser against the char-by-char decoder it replaced
// (tests/reference_jsonl.hpp): the same ok/error outcome, the same error
// string and the same decoded members, on seeded mutations of request frames
// shaped like the benchmark's hot_repeat traffic (a Gilbert instance inline
// in a v1 frame), and on a table of every escape and every string error.
#include "io/jsonl.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "engine/api.hpp"
#include "io/format.hpp"
#include "random/generators.hpp"
#include "random/gilbert.hpp"
#include "reference_jsonl.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

// A v1 frame as hot_repeat sends it: a Gilbert n+n instance at mean degree
// 2 with unit jobs on 3 machines, inline.
std::string gilbert_frame(int n, const std::string& id, Rng& rng) {
  Graph g = gilbert_bipartite(n, 2.0 / n, rng);
  std::vector<std::int64_t> speeds(3);
  for (auto& s : speeds) s = rng.uniform_int(1, 8);
  std::ostringstream out;
  write_instance(out, make_uniform_instance(unit_weights(2 * n), std::move(speeds), std::move(g)));
  return "{\"v\": 1, \"id\": \"" + id + "\", \"instance\": " + json_quote(out.str()) + "}";
}

// Shipped and reference parsers agree on `frame`, and decode_request_json
// reports the same error or carries the same members.
void expect_matches_oracle(const std::string& frame) {
  std::string got_error;
  std::string want_error;
  const auto got = parse_flat_json_object(frame, &got_error);
  const auto want = reference::parse_flat_json_object(frame, &want_error);
  ASSERT_EQ(got.has_value(), want.has_value()) << "error '" << got_error << "', oracle '"
                                               << want_error << "'";
  std::string decode_error;
  const auto req = engine::decode_request_json(frame, &decode_error);
  if (!want.has_value()) {
    ASSERT_EQ(got_error, want_error);
    ASSERT_FALSE(req.has_value());
    ASSERT_EQ(decode_error, want_error);
    return;
  }
  ASSERT_EQ(*got, *want);
  if (!req.has_value()) return;  // a validation error past the parser
  const auto member = [&want](const char* key) {
    const auto it = want->find(key);
    return it != want->end() ? it->second : std::string();
  };
  ASSERT_EQ(req->inline_text, member("instance"));
  ASSERT_EQ(req->has_inline_text, want->count("instance") == 1);
  ASSERT_EQ(req->path, member("path"));
  ASSERT_EQ(req->id, member("id"));
}

TEST(JsonlOracle, MutatedRequestFramesDecodeAsBefore) {
  Rng rng(2106);
  std::vector<std::string> bases;
  for (int k = 0; k < 4; ++k) bases.push_back(gilbert_frame(40, "r" + std::to_string(k), rng));
  bases.push_back(gilbert_frame(1000, "r4", rng));  // full size, about 24 KB
  for (const std::string& frame : bases) {
    expect_matches_oracle(frame);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Bytes and escapes a string decoder treats specially, spliced in.
  const char charset[] = "\"\\/bfnrtu0123456789aefAF{}[],: x";
  const std::vector<std::string> escapes = {"\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n",
                                            "\\r", "\\t", "\\u00e9", "\\u00FF", "\\u0100",
                                            "\\u12", "\\q", "\\"};
  for (int iter = 0; iter < 3000; ++iter) {
    // The full-size frame every 100th time: it is mostly instance text.
    std::string frame = bases[iter % 100 == 0 ? 4 : static_cast<std::size_t>(iter) % 4];
    const int mutations = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int m = 0; m < mutations && !frame.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:
          frame[pos] = charset[rng.uniform_int(0, static_cast<std::int64_t>(sizeof charset) - 2)];
          break;
        case 1:
          frame.insert(pos, escapes[static_cast<std::size_t>(
                                rng.uniform_int(0, std::ssize(escapes) - 1))]);
          break;
        case 2:
          frame.erase(pos, 1);
          break;
        default:
          frame.resize(pos);  // truncated mid-frame
          break;
      }
    }
    SCOPED_TRACE("mutation " + std::to_string(iter));
    expect_matches_oracle(frame);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Every escape the decoder knows, and every error a string can end in. Each
// row holds for the shipped parser and for the reference alike.
TEST(JsonlOracle, EscapesAndStringErrors) {
  using namespace std::string_literals;
  struct Decoded {
    std::string frame;
    std::string value;  // the member "a"
  };
  const std::vector<Decoded> decoded = {
      {R"({"a": "q\"q"})", "q\"q"},
      {R"({"a": "q\\q"})", "q\\q"},
      {R"({"a": "q\/q"})", "q/q"},
      {R"({"a": "q\bq"})", "q\bq"},
      {R"({"a": "q\fq"})", "q\fq"},
      {R"({"a": "q\nq"})", "q\nq"},
      {R"({"a": "q\rq"})", "q\rq"},
      {R"({"a": "q\tq"})", "q\tq"},
      {R"({"a": "\u0041\u00e9\u00FF"})", "A\xe9\xff"},
      {R"({"a": "\u0000"})", "\0"s},
      {R"({"a": "\\\""})", "\\\""},
      {R"({"a": ""})", ""},
      {R"({"a": "\"\\"})", "\"\\"},
  };
  for (const Decoded& row : decoded) {
    SCOPED_TRACE(row.frame);
    for (const bool shipped : {true, false}) {
      std::string error;
      const auto object = shipped ? parse_flat_json_object(row.frame, &error)
                                  : reference::parse_flat_json_object(row.frame, &error);
      ASSERT_TRUE(object.has_value()) << error;
      EXPECT_EQ(object->at("a"), row.value);
    }
  }

  struct Failed {
    std::string frame;
    std::string error;
  };
  const std::vector<Failed> failed = {
      {R"({"a": "x\)", "dangling escape"},
      {R"({"a": "\u12)", "truncated \\u escape"},
      {R"({"a": "\u0"})", "truncated \\u escape"},  // the hex digits run past the line
      {R"({"a": "\u12g4"})", "bad \\u escape"},
      {R"({"a": "\u00"}  )", "bad \\u escape"},  // a quote where a hex digit goes
      {R"({"a": "\u0100"})", "\\u escape beyond latin-1 unsupported"},
      {R"({"a": "\q"})", "unsupported escape"},
      {R"({"\q": 1})", "unsupported escape"},
      {R"({"a": "abc)", "unterminated string"},
      {R"({"a": "abc\"})", "unterminated string"},
      {R"({"a": "\q)", "unsupported escape"},  // the first error wins
  };
  for (const Failed& row : failed) {
    SCOPED_TRACE(row.frame);
    for (const bool shipped : {true, false}) {
      std::string error;
      const auto object = shipped ? parse_flat_json_object(row.frame, &error)
                                  : reference::parse_flat_json_object(row.frame, &error);
      EXPECT_FALSE(object.has_value());
      EXPECT_EQ(error, row.error);
    }
  }
}

}  // namespace
}  // namespace bisched
