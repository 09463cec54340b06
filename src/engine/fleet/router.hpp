// The fleet router: one front-end over N supervised backend serve processes.
//
// `bisched_cli route` runs the same session engine as serve
// (engine/serve/session.hpp — the frame machine, send-order responses,
// pipelining and read parking), with the Router as its handler, so a client
// cannot tell a router from a single server; what changes is what stands
// behind the socket:
//
//   placement   every solve is keyed by the instance content hash and routed
//               over a consistent-hash ring (hash_ring.hpp), so one
//               instance's repeat traffic always lands on the same backend
//               and that backend's memory/disk warmth stays hot for its
//               slice. Requests the router cannot key (unreadable file,
//               unparseable text) hash their source string instead — still
//               deterministic, and the backend owns producing the canonical
//               error.
//   failover    a failed attempt (connect refused/timed out, connection
//               dropped mid-response, read deadline) moves to the next
//               candidate in ring order, healthy candidates first, under one
//               per-request deadline budget. Only when the budget is spent
//               with no answer does the client see a structured
//               `degraded:` error response. Attempts and health probes run
//               over pooled connections: each backend keeps a stack of idle
//               ones dialed to its current process, a new one is dialed
//               only when none is idle, and a connection goes back only
//               after a clean one-line exchange. A failure closes it, so a
//               dropped pooled connection is one failed attempt, exactly
//               as a refused dial is.
//   supervision backends are spawned and kept alive by supervisor.hpp
//               (exponential-backoff respawn, restart-storm breaker);
//               health.hpp tracks who is answering (periodic `stats` probes
//               + live request outcomes) and feeds the candidate ordering.
//
// Responses stream back to the client with the router's own `seq`
// (admission order across all router sessions) spliced in; an
// auto-assigned id is the router's `#<seq>`, never a backend's. `stats`
// frames are answered by the ROUTER (role "router": backend/health/retry
// counters), as is `metrics` (the fleet registry: bisched_fleet_* series);
// both are inline and may overtake queued solves.
//
// The router holds no warm state of its own — restarting it loses nothing
// but connections; the warmth lives in the backends' stores.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/api.hpp"
#include "engine/fleet/hash_ring.hpp"
#include "engine/fleet/health.hpp"
#include "engine/fleet/supervisor.hpp"
#include "engine/serve/session.hpp"
#include "engine/telemetry/metrics.hpp"
#include "engine/transport.hpp"

namespace bisched::engine::fleet {

struct RouterOptions {
  std::size_t fleet = 2;       // backend count
  std::string cli_path;        // serving binary; "" = /proc/self/exe
  std::string store_dir;       // per-backend stores at <dir>/backend-<i>; "" = none
  std::vector<std::string> serve_args;  // forwarded to every backend's serve

  unsigned threads = 0;          // routing workers; 0 = 2 * fleet
  std::size_t max_inflight = 0;  // admission bound; 0 = 4 * threads

  int health_interval_ms = 250;  // stats-probe period
  int unhealthy_after = 3;       // consecutive failures -> unhealthy
  int connect_timeout_ms = 2000;
  int attempt_timeout_ms = 10000;  // per-attempt read deadline
  int deadline_ms = 30000;         // per-request budget across all retries

  SupervisorOptions supervisor;  // backoff / breaker knobs (spawn fields filled in)
};

struct RouterStats {
  std::uint64_t requests = 0;  // solve frames admitted
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;  // includes degraded
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;  // answered by a non-home backend
  std::uint64_t degraded = 0;   // all candidates exhausted
  std::uint64_t respawns = 0;
  std::uint64_t breaker_trips = 0;
  std::size_t backends = 0;
  std::size_t healthy = 0;
  std::size_t unhealthy = 0;  // running but failing probes
  std::size_t down = 0;       // not running (respawning / broken / starting)
};

// The fleet handler of the session engine; hand it to serve_stream or an
// EventLoop (route_stdio / route_listener do both).
class Router final : public SessionHandler {
 public:
  // Spawns and supervises the fleet; ok() is false (with *error set) when
  // the backends failed to come up — destroy the router, nothing is leaked.
  Router(const RouterOptions& options, std::string* error);
  ~Router() override;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  bool ok() const { return ok_; }

  RouterStats stats() const;
  std::string metrics_text() const;  // the fleet registry's exposition

  // For tests that kill a backend mid-run.
  Supervisor& supervisor() { return *supervisor_; }

  // SessionHandler: auth frames are ignored (the router holds no token),
  // stats/metrics answer inline from the router, everything else is routed
  // (or rejected) on the pool.
  Dispatch classify(Frame frame, SessionInfo& session) override;
  ThreadPool& pool() override { return *pool_; }
  std::size_t max_inflight() const override { return max_inflight_; }
  SessionSeries& series() override { return series_; }

 private:
  // A connection to one backend process, tagged with the supervisor
  // generation it was dialed for.
  struct Connection {
    std::unique_ptr<FdTransport> transport;
    std::uint64_t generation = 0;
  };
  // One backend's idle connections, most recently used last. No more are
  // ever open than threads that attempt at once (the routing workers plus
  // the maintenance thread): a dial happens only when none is idle.
  struct IdleConnections {
    std::mutex mu;
    std::vector<Connection> stack;
  };

  void maintenance_loop();
  void refresh_backend_gauges() const;
  // Routes one solve to the fleet and returns the finished response LINE
  // (newline included) — backend-served with seq/id spliced, or a locally
  // built error/degraded response.
  std::string route_one(const SolveRequest& req, std::int64_t seq);
  // One attempt: sends `frame_line` over a checked-out connection to
  // `backend` (dialing one when none is idle) and reads one response line,
  // with the connect and read/write deadlines clamped to `budget_ms`. True
  // with *response_line set on a clean exchange, which returns the
  // connection to the pool; any failure closes it.
  bool try_backend(std::size_t backend, const std::string& frame_line,
                   int budget_ms, std::string* response_line);
  // Pops the most recently used idle connection to `backend`, closing any
  // dialed for a generation before `generation`; empty when none is left.
  Connection checkout(std::size_t backend, std::uint64_t generation);
  void checkin(std::size_t backend, Connection connection);
  std::string stats_frame_json(const std::string& id, std::int64_t seq) const;
  std::string metrics_frame_json(const std::string& id, std::int64_t seq) const;

  RouterOptions options_;
  bool ok_ = false;
  std::unique_ptr<Supervisor> supervisor_;
  std::unique_ptr<HealthTracker> health_;
  std::unique_ptr<HashRing> ring_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<IdleConnections[]> idle_;  // one per backend
  std::size_t max_inflight_ = 0;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();

  std::atomic<std::int64_t> seq_{0};

  std::thread maintenance_;
  std::atomic<bool> stop_maintenance_{false};
  std::vector<std::uint64_t> seen_generation_;  // health reset on respawn

  // The fleet's own registry (bisched_fleet_* series), separate from any
  // backend's engine registry — scrape the router for fleet state, a
  // backend for solve state.
  mutable telemetry::Registry registry_;
  telemetry::Counter* requests_ok_ = nullptr;
  telemetry::Counter* requests_error_ = nullptr;
  telemetry::Counter* attempts_ = nullptr;
  telemetry::Counter* retries_ = nullptr;
  telemetry::Counter* failovers_ = nullptr;
  telemetry::Counter* degraded_ = nullptr;
  telemetry::Counter* respawns_ = nullptr;
  telemetry::Counter* breaker_ = nullptr;
  telemetry::Gauge* backends_healthy_ = nullptr;
  telemetry::Gauge* backends_unhealthy_ = nullptr;
  telemetry::Gauge* backends_down_ = nullptr;
  std::vector<telemetry::Histogram*> backend_latency_;
  // The session engine's bisched_serve_* series, kept out of the fleet
  // exposition.
  telemetry::Registry session_registry_;
  SessionSeries series_{session_registry_};
};

// The hash-ring key of a solve: the instance's content hash, read from the
// parser's record without building the instance, or FNV-1a of the inline
// text or the path when the source does not parse (the backend owns the
// error text; the router needs only a deterministic placement).
std::uint64_t placement_key(const SolveRequest& req);

// The CLI entry points, mirroring serve/serve_listener: one session over
// borrowed streams, or the event loop until `shutdown`/SIGTERM. Both return
// the router's final stats; *error is set on startup/listener failure.
RouterStats route_stdio(const RouterOptions& options, std::istream& in,
                        std::ostream& out, std::string* error);
RouterStats route_listener(const RouterOptions& options, Listener& listener,
                           std::string* error);

}  // namespace bisched::engine::fleet
