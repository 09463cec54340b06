// Plain-text instance and schedule serialization.
//
// The on-disk format (comments start with '#', whitespace-separated):
//
//   bisched uniform v1          bisched unrelated v1        bisched schedule v1
//   jobs <n>                    jobs <n>                    jobs <n>
//   p <n ints>                  machines <m>                machine_of <n ints>
//   speeds <m ints>             times                       # 0-based machines
//   edges <k>                   <m rows of n ints>
//   <k lines: u v>              edges <k>
//                               <k lines: u v>
//
// Whitespace is what istream extraction skips (space, \t, \n, \v, \f, \r);
// a token that starts with '#' comments out the rest of its line. Integers
// are base 10 with an optional sign, make up the whole token, and must fit
// in int64.
//
// Parsing never aborts: malformed input yields an error string (the CLI and
// any downstream user gets a diagnosable failure, not a crash). Writers
// produce output that parses back bit-identically (round-trip tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/instance.hpp"
#include "sched/schedule.hpp"

namespace bisched {

struct ParsedInstance {
  // Exactly one of these is set on success.
  std::optional<UniformInstance> uniform;
  std::optional<UnrelatedInstance> unrelated;
  std::string error;  // nonempty iff parsing failed

  bool ok() const { return error.empty(); }
};

// An instance as the parser read it, before any Graph exists: p, the speeds
// and the time rows as read, the edge endpoints as one flat list in input
// order, and the running sum of edge hashes. hash() finishes the content
// hash from these alone, so a cache can answer without the instance being
// built; build() makes it. Every value the parser accepts, build() accepts.
class InstanceRecord {
 public:
  InstanceRecord() = default;
  // A source that could not be read at all, reported like a parse error.
  static InstanceRecord failed(std::string error);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  bool uniform() const { return uniform_; }
  int jobs() const { return jobs_; }
  int machines() const { return machines_; }

  // Equals instance_hash(build()). The FNV pass runs on each call, and
  // only on a call, so a caller that wants only the instance never pays
  // for it. Call only on an ok() record.
  std::uint64_t hash() const;
  // The instance, or the error of a record that is not ok(). The rvalue
  // form moves the values into the instance instead of copying them.
  ParsedInstance build() const&;
  ParsedInstance build() &&;

 private:
  friend class InstanceParser;

  std::string error_;
  bool uniform_ = false;
  int jobs_ = 0;
  int machines_ = 0;
  std::vector<std::int64_t> p_, speeds_;
  std::vector<std::vector<std::int64_t>> times_;
  std::vector<int> edges_;      // u0 v0 u1 v1 ..., one pair per edge line
  std::uint64_t edge_sum_ = 0;  // wrapping sum of edge_hash(min, max) per edge line
};

// The instance grammar as a resumable push parser over a contiguous buffer.
// The one instance parser: parse_instance() wraps it, and serve feeds a
// streamed `instance` body to it straight from the read buffer.
//
// feed() consumes whole tokens from bytes[*pos..) and advances *pos past
// each one. It stops right after the token that decides the outcome — the
// last edge (or `edges 0`) on kDone, the offending token on kError — or at
// the end of the bytes when the input ends early. Without `eof`, a token or
// comment that touches the end of `bytes` may still grow: feed() leaves *pos
// on its first byte and returns kNeedMore. The caller then feeds again with
// more bytes appended; bytes before *pos may be dropped in between (the
// parser keeps no pointer into them). With `eof` the outcome is always
// decided. Arrays grow as values arrive, never from a declared count, so
// memory follows the bytes received.
//
// In the array steps (p, speeds, time rows, edges) a plain token, 1 to 18
// digits and nothing else ending in whitespace inside `bytes`, is converted
// by one digit loop. Every other token takes the general tokenizer: a sign,
// a '#', 19 or more digits, a NUL or other stray byte, and a token that
// touches the end of `bytes` even with `eof`. The general path alone decides
// errors and kNeedMore, and both paths hand the value to the same grammar
// action, so the outcome, the error string and the stop offset never depend
// on which path read a token.
class InstanceParser {
 public:
  enum class Status { kNeedMore, kDone, kError };

  Status feed(std::string_view bytes, std::size_t* pos, bool eof);
  // The record once feed() returned kDone or kError. Call once.
  InstanceRecord take() { return std::move(record_); }

 private:
  enum class Step {
    kMagic, kKind, kVersion, kJobsKw, kJobs,
    kPKw, kP, kSpeedsKw, kSpeeds, kSpeed,
    kMachinesKw, kMachines, kTimesKw, kTime,
    kEdgesKw, kEdges, kEdge, kDone, kError,
  };

  bool in_array() const {
    return step_ == Step::kP || step_ == Step::kSpeed || step_ == Step::kTime ||
           step_ == Step::kEdge;
  }
  void on_token(std::optional<std::string_view> token);  // nullopt: input ended
  void on_value(std::int64_t value);                     // one value of an array step
  void enter(Step next);
  void fail(std::string error);

  Step step_ = Step::kMagic;
  std::int64_t k_ = 0;                  // declared edges
  std::optional<std::int64_t> edge_u_;  // first endpoint of the pending edge
  InstanceRecord record_;
};

// A whole text, or a stream read in 64 KiB chunks until the parser decides
// (so the stream may be read past the instance's last token): the record,
// or the instance built from it.
InstanceRecord parse_instance_record(std::string_view text);
InstanceRecord parse_instance_record(std::istream& in);
ParsedInstance parse_instance(std::string_view text);
ParsedInstance parse_instance(std::istream& in);

std::optional<Schedule> parse_schedule(std::istream& in, std::string* error);

void write_instance(std::ostream& out, const UniformInstance& inst);
void write_instance(std::ostream& out, const UnrelatedInstance& inst);
void write_schedule(std::ostream& out, const Schedule& schedule);

}  // namespace bisched
