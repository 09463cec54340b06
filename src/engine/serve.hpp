// Long-lived serve mode: framed solve requests in, streamed v1 responses out.
//
// The resident state — one registry, one WarmState (probe + result caches,
// optionally disk-tiered behind a store directory), one thread pool — lives
// in `Server`, one of the two handlers behind the session engine
// (engine/serve/session.hpp; the fleet router is the other). The engine
// turns each client's bytes into frames; Server classifies them, answers
// probes and refusals inline, and runs solves on its pool, each response one
// JSON Lines object written in the order its frame arrived. Every client is
// answered from the same warm state and pool, so traffic from one client
// warms the next, and a persistent store warms the next *process*.
//
//   serve(...)           one session over borrowed iostreams (stdin/stdout,
//                        in-process callers), driven by serve_stream.
//   serve_listener(...)  the epoll event loop (serve/event_loop.hpp) over any
//                        Listener: any number of concurrent, pipelining
//                        clients until one sends `shutdown` (or SIGTERM).
//                        Periodically flushes the warm state's journals, so a
//                        crash loses at most the last interval.
//   serve_unix(...)      serve_listener over a unix-domain socket.
//   serve_tcp(...)       serve_listener over an AF_INET/AF_INET6 socket
//                        (loopback-only unless allow_remote; remote binds
//                        require an auth token — see ServeOptions).
//
// Request framing (one frame per line unless noted; blank lines and `#`
// comments are skipped):
//
//   {"v": 1, "id": "r1", "path": "a.inst"}   solve the instance file `path`
//   {"id": "r2", "instance": "bisched uniform v1\n..."}
//                                            solve inline native-format text
//   solve PATH [ID]                          plain-text form of the first
//   instance [ID]                            native instance text follows
//                                            directly on the stream (the
//                                            parser consumes one instance)
//   auth TOKEN                               presents the session's auth
//                                            token. Required as the first
//                                            frame when the server was
//                                            started with one; silent on
//                                            success (the next frame's
//                                            response is the ack), error +
//                                            session close on mismatch.
//                                            Ignored when no token is
//                                            configured.
//   stats [ID]                               one `"type": "stats"` frame:
//                                            per-type frame counters, uptime
//                                            and in-flight gauges, per-tier
//                                            cache sizes / hit counts /
//                                            evictions, store provenance
//                                            (docs/api.md has the schema)
//   metrics [ID]                             one `"type": "metrics"` frame:
//                                            the full registry in Prometheus
//                                            text exposition, JSON-escaped
//                                            in the frame's "body" member
//                                            (`bisched_cli metrics` decodes
//                                            and prints it)
//   quit                                     end THIS session; drain and
//                                            close (the server keeps
//                                            accepting other clients)
//   shutdown                                 end this session AND stop the
//                                            listener; serve_listener
//                                            returns once active sessions
//                                            drain. Before auth it is
//                                            refused like any other frame
//
// JSON requests may override "alg", "eps", "all", and "budget_ms" per
// request (engine/api.hpp documents the full v1 schema). A malformed frame
// yields an error response, never a crash or a dropped request; after a
// malformed native `instance` body the session discards the rest of the
// failing line, then input up to the next blank line (bodies contain none),
// so the remainder of the broken body is not misread as frames. Solve and error responses leave in send order;
// stats/metrics probes, auth errors and over-quota refusals are answered
// inline and may overtake queued solves.
//
// Ids: requests without an id get `#<seq>`, where `seq` is the server-wide
// admission counter — the collision-free correlation key across all
// concurrent sessions. The `#<digits>` form is therefore *reserved*: a
// client-supplied id matching it is rejected with an error response instead
// of silently risking collision with an auto-assigned one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "engine/api.hpp"
#include "engine/registry.hpp"
#include "engine/serve/session.hpp"
#include "engine/store/warm_state.hpp"
#include "engine/transport.hpp"

namespace bisched::engine {

struct ServeOptions {
  std::string alg = "auto";  // default per-request algorithm
  SolveOptions solve;
  unsigned threads = 0;          // 0 = default_thread_count()
  std::size_t max_inflight = 0;  // admission bound; 0 = 4 * threads
  bool stable_output = false;    // strip timing from responses (byte-stable)
  // Slow-request log: every solve whose end-to-end elapsed_ms is >= slow_ms
  // emits one structured line (trace id, tiers hit, span timings) to
  // `slow_log` (null = stderr). Negative = off; 0 logs every solve.
  double slow_ms = -1;
  std::ostream* slow_log = nullptr;
  // Nonempty: every session must present `auth TOKEN` (constant-time
  // compared) before any other frame. The CLI requires one for
  // --allow-remote TCP binds.
  std::string auth_token;
  // Per-session in-flight quota: a session holding this many unanswered
  // solves gets a structured `over-quota` error response for the excess
  // frame instead of a slot — one greedy client cannot starve the shared
  // admission bound. 0 = no per-session quota (the global bound still
  // applies, exerted as backpressure).
  std::size_t session_max_inflight = 0;
  // Socket listeners only: a session that has completed no frame for this
  // long is closed without a response (slowloris guard), counted as
  // bisched_serve_rejects_total{reason="idle-timeout"}. 0 = never reap.
  int idle_timeout_ms = 0;
  // Per-session pipelining bound — a session with this many solve frames in
  // flight has its reads parked (pure backpressure; the frames are answered,
  // unlike the `over-quota` refusal above) until completions drain. 0 = 64.
  std::size_t pipeline_depth = 0;
};

struct ServeStats {
  // Admitted frames by type; `requests` is their sum (every frame admitted).
  // Split out so cache-hit-rate math over solve traffic is not skewed by
  // monitoring frames (stats/metrics probes), and protocol-level garbage is
  // visible as `malformed` rather than folded into solve errors.
  std::uint64_t requests = 0;
  std::uint64_t solve_frames = 0;
  std::uint64_t stats_frames = 0;
  std::uint64_t metrics_frames = 0;
  std::uint64_t auth_frames = 0;
  std::uint64_t malformed = 0;  // frames rejected before reaching a solve
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;  // bad frames + failed solves
  std::uint64_t sessions = 0;
  ProfileCache::Stats cache;
  ResultCache::Stats results;
};

// The resident core and the serve handler of the session engine. Construct
// once, hand to a runner (serve / serve_listener do both), read stats() at
// the end.
class Server final : public SessionHandler {
 public:
  // `warm` may be shared (e.g. pre-warmed by a batch run, or carrying a
  // persistent store); nullptr uses a private memory-only one.
  Server(const SolverRegistry& registry, const ServeOptions& options,
         WarmState* warm = nullptr);
  ~Server() override;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  WarmState& warm() { return *warm_; }
  ServeStats stats() const;

  // The shared registry (engine solve series + this server's frame/session
  // series) as Prometheus text exposition, cache stats mirrored and gauges
  // refreshed first. What the `metrics` frame carries.
  std::string metrics_text() const;

  double uptime_seconds() const;

  // SessionHandler: frame accounting, the auth gate, fault hooks, inline
  // stats/metrics, the per-session quota, and solves on the pool.
  Dispatch classify(Frame frame, SessionInfo& session) override;
  bool authorized(const SessionInfo& session) const override {
    return options_.auth_token.empty() || session.authed;
  }
  ThreadPool& pool() override { return *pool_; }
  std::size_t max_inflight() const override { return max_inflight_; }
  SessionSeries& series() override { return series_; }
  void flush() override { warm_->flush(); }

 private:
  // Runs (or rejects, when `bad` is set) one admitted frame and renders its
  // response line. The ok/error response counter is bumped BEFORE the line
  // is written — a client that has read a response must find it reflected
  // in the very next stats frame (the lockstep test pins this).
  std::string render(const SolveRequest& req, std::int64_t seq, const std::string& bad);
  // Introspection frames, answered inline (no pool round trip):
  // `"type": "stats"` (flat counters) and `"type": "metrics"` (Prometheus
  // exposition in the "body" member).
  std::string stats_frame_json(const std::string& id, std::int64_t seq,
                               std::size_t session_inflight) const;
  std::string metrics_frame_json(const std::string& id, std::int64_t seq) const;
  void maybe_slow_log(const SolveResponse& response, double elapsed_ms,
                      const std::shared_ptr<const telemetry::Trace>& trace);

  const SolverRegistry& registry_;
  ServeOptions options_;
  std::size_t max_inflight_;
  WarmState* warm_;
  std::unique_ptr<WarmState> owned_warm_;
  std::unique_ptr<ThreadPool> pool_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<std::int64_t> seq_{0};  // admission order across sessions

  // Counters/gauges live in warm_->telemetry()'s registry so one scrape sees
  // engine and serve series together; updates are lock-free (the lockstep
  // count-before-write invariant only needs the increment ordered before the
  // response write, which an atomic inc is).
  telemetry::Counter* frames_solve_ = nullptr;
  telemetry::Counter* frames_stats_ = nullptr;
  telemetry::Counter* frames_metrics_ = nullptr;
  telemetry::Counter* frames_auth_ = nullptr;
  telemetry::Counter* frames_malformed_ = nullptr;
  telemetry::Counter* responses_ok_ = nullptr;
  telemetry::Counter* responses_error_ = nullptr;
  telemetry::Counter* rejects_auth_ = nullptr;
  telemetry::Counter* rejects_quota_ = nullptr;
  SessionSeries series_;  // sessions, in-flight, loop and idle-reap series
  telemetry::Gauge* uptime_gauge_ = nullptr;

  std::mutex slow_log_mu_;  // one slow-log line at a time
};

// One session over borrowed streams: runs until EOF or a `quit`/`shutdown`
// frame, drains, and returns the stats. The stdin/stdout framed loop and
// in-process callers use this.
ServeStats serve(const SolverRegistry& registry, std::istream& in, std::ostream& out,
                 const ServeOptions& options, WarmState* warm = nullptr);

// The event loop over an already-open listener: serves concurrent clients
// from one resident Server until a client sends `shutdown`, SIGTERM, or the
// listener fails. When `warm` is persistent its journals are flushed
// periodically (and once more on return). Returns aggregate stats; on
// listener failure returns the stats so far with *error set.
ServeStats serve_listener(const SolverRegistry& registry, Listener& listener,
                          const ServeOptions& options, std::string* error,
                          WarmState* warm = nullptr);

// serve_listener over a unix-domain socket at `socket_path`. On listener
// setup failure returns zero stats with *error set.
ServeStats serve_unix(const SolverRegistry& registry, const std::string& socket_path,
                      const ServeOptions& options, std::string* error,
                      WarmState* warm = nullptr);

// serve_listener over a TCP socket. `host` as in TcpListener::open —
// non-loopback binds are refused unless allow_remote. `*bound_port` (if
// non-null) receives the actual port before serving starts (useful with
// port 0).
ServeStats serve_tcp(const SolverRegistry& registry, const std::string& host, int port,
                     bool allow_remote, const ServeOptions& options, std::string* error,
                     WarmState* warm = nullptr, int* bound_port = nullptr);

}  // namespace bisched::engine
