// The one session engine behind every front-end: the frame machine that
// turns a client's bytes into frames, and the handler seam behind it.
//
//   bytes ─▶ frame machine ─▶ handler.classify(frame) ─┬─ line: written now
//            (line | instance body |                    │  (may overtake queued work)
//             malformed-body discard)                   └─ work: runs on the handler's
//                                                          pool; its line is written
//                                                          in frame order
//
// Two handlers implement the seam: `Server` (engine/serve.hpp) answers from
// its warm state, `fleet::Router` (engine/fleet/router.hpp) forwards to its
// backends. Two runners feed the machine: `EventLoop`
// (engine/serve/event_loop.hpp) for socket listeners, and `serve_stream`
// below for borrowed iostreams (stdio `serve`/`route`, in-process callers).
//
// Per-session rules, whatever the runner: `quit` ends the session and
// `shutdown` (from an authorized session) also asks the listener to stop;
// an instance body is fed to io/format's InstanceParser as its bytes
// arrive and reaches the handler as the parser's record (no Graph is built
// on the runner's thread), and a body that fails to parse is discarded
// through the rest of its failing line, then to the next blank line; work
// lines leave in the order their frames arrived; a session with
// pipeline_depth frames of work in flight, a backlog of unwritten
// responses, or its handler at max_inflight across all sessions stops
// reading (its reads are *parked*) until completions drain.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>

#include "engine/api.hpp"
#include "engine/telemetry/metrics.hpp"
#include "io/format.hpp"

namespace bisched {
class ThreadPool;
}  // namespace bisched

namespace bisched::engine {

// One classified request frame (the grammar is in engine/serve.hpp's header
// comment). A frame with a malformed shape or a reserved `#<digits>` id
// comes back with `bad` set; the handler answers it as an error response.
struct Frame {
  enum class Kind { kSolve, kStats, kMetrics, kAuth, kQuit, kShutdown };
  Kind kind = Kind::kSolve;
  SolveRequest req;        // kSolve source/overrides; kStats/kMetrics id
  std::string auth_token;  // kAuth: the presented token, verbatim
  std::string bad;         // nonempty: malformed — answer with this error
};

// Classifies one trimmed, non-blank, non-comment line. A native `instance`
// header comes back with *needs_body set and req.parsed still empty: the
// frame machine parses the body that follows it into req.parsed.
Frame classify_frame(const std::string& line, bool* needs_body);

// What a handler sees of the session a frame arrived on.
struct SessionInfo {
  bool authed = false;       // set by the handler's auth gate
  std::size_t inflight = 0;  // this session's work not yet completed
};

// What a handler makes of one frame. With neither a line nor work the frame
// is consumed silently (an accepted `auth`).
struct Dispatch {
  std::string line;                   // answered now, ahead of queued work
  std::function<std::string()> work;  // runs on the pool; returns the line
  bool close = false;                 // end the session once `line` is out
  bool drop = false;                  // end the session, writing nothing more
};

// The engine's own series. Server registers them beside its frame counters
// (the names are golden-pinned); the router keeps them in a private registry.
struct SessionSeries {
  SessionSeries() = default;
  explicit SessionSeries(telemetry::Registry& registry);

  telemetry::Counter* rejects_idle = nullptr;
  telemetry::Counter* sessions_total = nullptr;
  telemetry::Gauge* sessions_active = nullptr;
  telemetry::Gauge* inflight = nullptr;  // work admitted across sessions
  telemetry::Gauge* open_sessions = nullptr;
  telemetry::Gauge* parked_sessions = nullptr;
  telemetry::Gauge* pipeline_peak = nullptr;
  telemetry::Counter* loop_wakeups = nullptr;
};

class SessionHandler {
 public:
  virtual ~SessionHandler() = default;

  // One complete frame; the engine handles `quit`, and `shutdown` from an
  // authorized session, itself. Runs on the runner's thread, one frame at a
  // time per runner.
  virtual Dispatch classify(Frame frame, SessionInfo& session) = 0;
  // Whether `session` has passed the handler's auth gate (always, without
  // one). A `shutdown` from a session that has not goes to classify(),
  // whose gate refuses it like any other pre-auth frame.
  virtual bool authorized(const SessionInfo&) const { return true; }
  virtual ThreadPool& pool() = 0;
  // Work in flight across all sessions at which every reader parks.
  virtual std::size_t max_inflight() const = 0;
  virtual SessionSeries& series() = 0;
  // Called every few seconds while a listener runs.
  virtual void flush() {}

  void request_shutdown() { shutdown_.store(true); }
  bool shutdown_requested() const { return shutdown_.load(); }

 private:
  std::atomic<bool> shutdown_{false};
};

// One session over borrowed streams: reads `in` a line at a time until EOF,
// `quit` or `shutdown`, writes (and flushes) each answer to `out` as soon as
// its turn comes, and returns once the session's work has drained.
// pipeline_depth 0 = 64.
void serve_stream(SessionHandler& handler, std::istream& in, std::ostream& out,
                  std::size_t pipeline_depth = 0);

namespace detail {

// The frame machine and per-session ordering, shared by both runners. A
// runner owns its sessions, calls process_input() after appending bytes and
// complete() for each finished ticket, from one thread at a time.
class SessionEngine {
 protected:
  struct Session {
    std::uint64_t sid = 0;
    SessionInfo info;

    // Read side: the frame machine over a growing buffer.
    std::string rbuf;
    std::size_t rpos = 0;
    enum class Mode { kLine, kBody, kDiscard } mode = Mode::kLine;
    InstanceParser body;  // the pending `instance` body, fed as bytes arrive
    Frame body_frame;     // `instance` header awaiting its body (and, in
                          // discard mode, the frame awaiting resync)
    bool failed_line = false;  // discard: still on the line the parse failed on
    bool read_eof = false;
    std::chrono::steady_clock::time_point last_frame;  // last complete frame

    // Write side, for runners that buffer (the event loop).
    std::string wbuf;
    std::size_t woff = 0;

    // Tickets: each unit of work takes the next one; completions wait in
    // `held` until every earlier ticket has been written.
    std::uint64_t next_ticket = 0;
    std::uint64_t next_flush = 0;
    std::map<std::uint64_t, std::string> held;

    bool parked = false;   // reads stopped by backpressure
    bool closing = false;  // no more frames; drain, flush, then close
    bool dead = false;     // peer unreachable: drop writes, await workers
  };

  SessionEngine(SessionHandler& handler, std::size_t pipeline_depth);
  virtual ~SessionEngine() = default;

  // Runs the frame machine over the unread bytes until it needs more, the
  // session parks, or it closes.
  void process_input(Session& s);
  // The line rendered for `ticket`; writes every line now in turn.
  void complete(Session& s, std::uint64_t ticket, std::string line);
  bool should_park(const Session& s) const;

  // Runner hooks. deliver() runs on a pool worker.
  virtual void write(Session& s, const std::string& line) = 0;
  virtual void park(Session& s) = 0;
  virtual void deliver(std::uint64_t sid, std::uint64_t ticket, std::string line) = 0;
  virtual void mark_dead(Session& s);

  SessionHandler& handler_;
  SessionSeries& series_;

 private:
  void dispatch_frame(Session& s, Frame frame);
  void submit(Session& s, std::function<std::string()> work);

  const std::size_t pipeline_cap_;
  std::atomic<std::size_t> inflight_{0};  // submitted work, line not yet rendered
};

}  // namespace detail
}  // namespace bisched::engine
