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
// are base 10 with an optional sign, and must fit in int64.
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
class InstanceParser {
 public:
  enum class Status { kNeedMore, kDone, kError };

  Status feed(std::string_view bytes, std::size_t* pos, bool eof);
  // The outcome once feed() returned kDone or kError. Call once.
  ParsedInstance take() { return std::move(result_); }

 private:
  enum class Step {
    kMagic, kKind, kVersion, kJobsKw, kJobs,
    kPKw, kP, kSpeedsKw, kSpeeds, kSpeed,
    kMachinesKw, kMachines, kTimesKw, kTime,
    kEdgesKw, kEdges, kEdge, kDone, kError,
  };

  void on_token(std::optional<std::string_view> token);  // nullopt: input ended
  void enter(Step next);
  void fail(std::string error);

  Step step_ = Step::kMagic;
  bool uniform_ = false;
  std::int64_t n_ = 0, m_ = 0, k_ = 0;  // declared jobs, machines, edges
  std::optional<std::int64_t> edge_u_;  // first endpoint of the pending edge
  std::vector<std::int64_t> p_, speeds_;
  std::vector<std::vector<std::int64_t>> times_;
  Graph graph_;
  ParsedInstance result_;
};

// A whole text, or a stream read in 64 KiB chunks until the parser decides
// (so the stream may be read past the instance's last token).
ParsedInstance parse_instance(std::string_view text);
ParsedInstance parse_instance(std::istream& in);

std::optional<Schedule> parse_schedule(std::istream& in, std::string* error);

void write_instance(std::ostream& out, const UniformInstance& inst);
void write_instance(std::ostream& out, const UnrelatedInstance& inst);
void write_schedule(std::ostream& out, const Schedule& schedule);

}  // namespace bisched
