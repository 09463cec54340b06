// In-process side of the benchmark: the expected answer for every instance,
// and the traced replay that times each layer's public function from the
// harness's own code (no spans inside the program).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gen.hpp"
#include "util.hpp"

namespace perfbench {

// What the program must answer for one instance.
struct Expected {
  bool ok = false;
  std::string hash;
  std::string solver;
  std::string makespan;
  std::string error;
};

// Parse + hash + `auto` solve of each instance, on `threads` threads.
std::vector<Expected> solve_expected(const std::vector<const Instance*>& instances,
                                     int threads);

// In-memory spans: name, start, end, parent, request id. Each thread appends
// to its own track; write_jsonl() writes them all out at the end.
class SpanLog {
 public:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;  // index + 1 within the same track; 0 = root
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  using Track = std::vector<Span>;

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  Track* new_track();
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  static std::uint32_t name_id(const std::string& name);
  static const std::string& name_of(std::uint32_t id);

  // Self time (span minus its children) summed per span name, in ms.
  std::map<std::string, double> self_ms() const;
  // Total duration per span name, in ms, and span counts.
  std::map<std::string, double> total_ms() const;
  std::size_t size() const;
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Track>> tracks_;
};

// One request of the replay list, in the form the live server received it.
struct ReplayItem {
  const Instance* inst = nullptr;
  std::string json_line;  // the v1 JSON frame without '\n'; empty = native frame
  std::uint64_t request = 0;
};

struct ReplayStats {
  std::uint64_t requests = 0;
  std::uint64_t parse_bytes = 0;
  std::uint64_t profile_hits = 0;
  std::uint64_t result_lookups = 0;
  std::uint64_t result_hits = 0;
  std::uint64_t solves = 0;
  std::uint64_t attempts = 0;     // sum of SolveResult::solvers_tried
  double wasted_ms = 0;           // solve_auto - solve_named(winner), when > 1 tried
  std::map<std::string, std::uint64_t> solver_calls;
  std::map<std::string, double> solver_ms;
  double store_open_s = 0;
  std::uint64_t journal_bytes = 0;  // journal growth over the replay
  std::vector<Expected> answers;    // per item
};

// Replays `items` in order on `threads` threads against a WarmState opened on
// `store_dir` ("" = memory-only), timing each layer as run_parsed calls it:
// decode_request_json, parse_instance, instance_hash, profiles().profile,
// make_result_key + results().lookup, and on a miss solve_auto (then
// solve_named(winner) outside the request when the portfolio tried more
// than one solver) and results().store, then encode_response_json.
ReplayStats replay(const std::vector<ReplayItem>& items, const std::string& store_dir,
                   int threads, SpanLog* log);

}  // namespace perfbench
