// Per-request trace spans: where one solve request spent its time.
//
// A `Trace` is one request's span tree under a process-unique id — built by
// api::run_request, threaded by pointer through the probe / cache / dispatch
// layers (each opens a child span around its stage), and carried on the
// SolveResponse so every boundary can render it: the v1 JSON emits it as the
// opt-in `"spans"` member, and serve's slow-request log emits the compact
// one-line form. The taxonomy (docs/telemetry.md):
//
//   request
//   ├── parse             instance IO + native-format parse (wire sources)
//   ├── probe [tier]      hash + profile cache lookup (detection runs on a miss)
//   ├── build             Graph + instance from the parser's record; only
//   │                     when a cache missed, never inside another span
//   ├── result [tier]     result cache lookup
//   ├── solve [solver]    portfolio dispatch; one child per solver tried
//   │   └── <solver>      the DP / flow / heuristic kernel itself
//   └── store             result-cache write-through
//
// A trace belongs to ONE request and is built by one thread at a time — the
// tree is deliberately not synchronized (children live in a deque, so span
// pointers stay valid as siblings are added). Spans are cheap enough to
// always collect: two steady_clock reads and a small string per stage,
// orders of magnitude under a solve.
#pragma once

#include <chrono>
#include <deque>
#include <string>

namespace bisched::engine::telemetry {

// A process-unique request id: "t-<8 hex process tag>-<n>". The tag mixes
// pid and boot time so ids from different processes sharing a store or log
// stream do not collide; n is a process-local sequence.
std::string next_trace_id();

class TraceSpan {
 public:
  explicit TraceSpan(std::string name);
  TraceSpan(std::string name, std::chrono::steady_clock::time_point start);

  // Appends a child and returns it; the pointer stays valid for the life of
  // this span (deque storage). The child starts now, or at `start` — for a
  // stage that learns only under way whether it needs a span of its own.
  TraceSpan* child(std::string name);
  TraceSpan* child(std::string name, std::chrono::steady_clock::time_point start);

  // Tier / solver / outcome annotation, rendered as `"detail"` in JSON and
  // `[detail]` in the compact form.
  void set_detail(std::string detail);

  // Freezes the duration at now - start; later calls are no-ops, so a span
  // may be closed defensively on every exit path.
  void end();
  // Overrides the duration — for tests and golden fixtures that need a
  // deterministic tree.
  void set_ms(double ms) { ms_ = ms; }

  const std::string& name() const { return name_; }
  const std::string& detail() const { return detail_; }
  double ms() const { return ms_ < 0 ? 0 : ms_; }
  const std::deque<TraceSpan>& children() const { return children_; }

  // {"name": ..., "detail": ...?, "ms": ..., "spans": [...]?}; zero_ms
  // renders every duration as 0 for byte-stable output (--stable).
  void append_json(std::string* out, bool zero_ms) const;
  // name[detail]:ms(child,child,...) — the slow-log one-liner.
  void append_compact(std::string* out, bool zero_ms) const;

 private:
  std::string name_;
  std::string detail_;
  std::chrono::steady_clock::time_point start_;
  double ms_ = -1;  // < 0 = still open
  std::deque<TraceSpan> children_;
};

class Trace {
 public:
  Trace() : Trace(next_trace_id()) {}
  explicit Trace(std::string id);  // deterministic id, for tests

  const std::string& id() const { return id_; }
  TraceSpan& root() { return root_; }
  const TraceSpan& root() const { return root_; }
  void finish() { root_.end(); }

  // The wire form: a one-element JSON array holding the root span.
  std::string spans_json(bool zero_ms) const;
  // The slow-log form.
  std::string compact(bool zero_ms) const;

 private:
  std::string id_;
  TraceSpan root_;
};

// Opens a child span on construction (no-op when parent is null) and closes
// it on destruction — the usual way a stage brackets itself.
class ScopedSpan {
 public:
  ScopedSpan(TraceSpan* parent, const char* name)
      : span_(parent != nullptr ? parent->child(name) : nullptr) {}
  ~ScopedSpan() {
    if (span_ != nullptr) span_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceSpan* get() const { return span_; }
  explicit operator bool() const { return span_ != nullptr; }

 private:
  TraceSpan* span_;
};

}  // namespace bisched::engine::telemetry
