#include "engine/fleet/router.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <csignal>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "engine/serve/event_loop.hpp"
#include "io/format.hpp"
#include "io/jsonl.hpp"
#include "util/fnv.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace bisched::engine::fleet {

namespace {

// Maintenance cadence: supervisor reaping + gauge refresh. Health probes run
// on their own (longer) options_.health_interval_ms inside this tick.
constexpr std::chrono::milliseconds kMaintenanceTick(50);
// Backoff between full candidate passes when nobody answered — long enough
// not to spin while a lone backend respawns, short next to any deadline.
constexpr std::chrono::milliseconds kPassBackoff(50);
// Health probes are cheap and local; they get a short fixed budget rather
// than the request-path attempt timeout.
constexpr int kProbeBudgetMs = 1000;

// Splices the router's admission seq over the backend's in a finished
// response line. The literal `"seq": ` cannot occur inside a JSON string
// value (json_quote escapes the embedded quote), so the first match is the
// top-level member.
void splice_seq(std::string* line, std::int64_t seq) {
  static const std::string kPattern = "\"seq\": ";
  const auto pos = line->find(kPattern);
  if (pos == std::string::npos) return;
  const auto start = pos + kPattern.size();
  auto end = start;
  while (end < line->size() &&
         (line->at(end) == '-' || std::isdigit(static_cast<unsigned char>(line->at(end))))) {
    ++end;
  }
  line->replace(start, end - start, std::to_string(seq));
}

// When the client supplied no id, the BACKEND auto-assigned one from its own
// `#<seq>` namespace — which would collide across backends. Re-home it to
// the router's: the router seq is the fleet-wide admission order.
void splice_auto_id(std::string* line, std::int64_t seq) {
  static const std::string kPattern = "\"id\": \"#";
  const auto pos = line->find(kPattern);
  if (pos == std::string::npos) return;
  const auto start = pos + kPattern.size();
  auto end = start;
  while (end < line->size() &&
         std::isdigit(static_cast<unsigned char>(line->at(end)))) {
    ++end;
  }
  if (end >= line->size() || line->at(end) != '"') return;
  line->replace(pos, end - pos, "\"id\": \"#" + std::to_string(seq));
}

// A locally built error response — the only lines a client ever receives
// that no backend produced (rejected frames, unroutable requests, degraded
// mode). `file` is the request's path; serve answers a rejected frame
// without one, and so does the router.
std::string local_error(const std::string& id, std::int64_t seq, const std::string& file,
                        std::string error) {
  SolveResponse response;
  response.id = id.empty() ? "#" + std::to_string(seq) : id;
  response.seq = seq;
  response.file = file;
  response.ok = false;
  response.error = std::move(error);
  return encode_response_json(response);
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace

Router::Router(const RouterOptions& options, std::string* error)
    : options_(options) {
  // The router writes into backend sockets and client sockets from many
  // threads; any peer dying mid-write must cost one attempt, not the process.
  ::signal(SIGPIPE, SIG_IGN);
  if (options_.fleet == 0) options_.fleet = 1;

  SupervisorOptions sup = options_.supervisor;
  sup.cli_path = !options_.cli_path.empty() ? options_.cli_path : self_exe_path();
  sup.serve_args = options_.serve_args;
  sup.store_dir = options_.store_dir;
  sup.backends = options_.fleet;
  if (sup.cli_path.empty()) {
    if (error != nullptr) *error = "route: cannot resolve the serving binary path";
    return;
  }

  const char* requests_help = "Solve frames answered by status";
  requests_ok_ = &registry_.counter("bisched_fleet_requests_total", requests_help,
                                    "status=\"ok\"");
  requests_error_ = &registry_.counter("bisched_fleet_requests_total", requests_help,
                                       "status=\"error\"");
  attempts_ = &registry_.counter("bisched_fleet_attempts_total",
                                 "Backend attempts (first tries + retries)");
  retries_ = &registry_.counter("bisched_fleet_retries_total",
                                "Attempts after the first for one request");
  failovers_ = &registry_.counter(
      "bisched_fleet_failovers_total",
      "Requests answered by a backend other than their hash-ring home");
  degraded_ = &registry_.counter(
      "bisched_fleet_degraded_total",
      "Requests that exhausted every candidate within their deadline");
  respawns_ = &registry_.counter("bisched_fleet_respawns_total",
                                 "Backend processes respawned after a death");
  breaker_ = &registry_.counter(
      "bisched_fleet_breaker_open_total",
      "Backends abandoned by the restart-storm circuit breaker");
  const char* backends_help = "Backends by observed state";
  backends_healthy_ = &registry_.gauge("bisched_fleet_backends", backends_help,
                                       "state=\"healthy\"");
  backends_unhealthy_ = &registry_.gauge("bisched_fleet_backends", backends_help,
                                         "state=\"unhealthy\"");
  backends_down_ = &registry_.gauge("bisched_fleet_backends", backends_help,
                                    "state=\"down\"");
  for (std::size_t i = 0; i < options_.fleet; ++i) {
    backend_latency_.push_back(&registry_.histogram(
        "bisched_fleet_backend_latency_ms",
        "Successful attempt round-trip per backend",
        telemetry::Histogram::default_latency_bounds_ms(),
        "backend=\"" + std::to_string(i) + "\""));
  }

  supervisor_ = std::make_unique<Supervisor>(std::move(sup));
  health_ = std::make_unique<HealthTracker>(options_.fleet, options_.unhealthy_after);
  ring_ = std::make_unique<HashRing>(options_.fleet);
  idle_ = std::make_unique<IdleConnections[]>(options_.fleet);
  seen_generation_.assign(options_.fleet, 0);

  if (!supervisor_->start(error)) {
    supervisor_->stop();
    return;
  }
  for (std::size_t i = 0; i < options_.fleet; ++i) {
    seen_generation_[i] = supervisor_->generation(i);
  }

  const unsigned threads = options_.threads != 0
                               ? options_.threads
                               : static_cast<unsigned>(2 * options_.fleet);
  max_inflight_ = options_.max_inflight != 0 ? options_.max_inflight : 4 * threads;
  pool_ = std::make_unique<ThreadPool>(threads);
  refresh_backend_gauges();
  maintenance_ = std::thread(&Router::maintenance_loop, this);
  ok_ = true;
}

Router::~Router() {
  stop_maintenance_.store(true);
  if (maintenance_.joinable()) maintenance_.join();
  if (pool_ != nullptr) pool_->wait_idle();
  // Idle connections close first: each backend sees its sessions end
  // before its SIGTERM.
  idle_.reset();
  if (supervisor_ != nullptr) supervisor_->stop();
}

void Router::maintenance_loop() {
  auto last_probe = std::chrono::steady_clock::now();
  while (!stop_maintenance_.load()) {
    supervisor_->poll();

    // A respawned slot is a NEW process: drop the old one's health record so
    // the fresh backend starts optimistically healthy.
    for (std::size_t i = 0; i < seen_generation_.size(); ++i) {
      const std::uint64_t generation = supervisor_->generation(i);
      if (generation != seen_generation_[i]) {
        seen_generation_[i] = generation;
        health_->reset(i);
      }
    }

    // Probe each running backend with a `stats` frame over the same
    // connection checkout requests take: liveness of the serve path as
    // requests reach it (parse, inline answer), not just the process. The
    // tracker needs unhealthy_after consecutive misses before demoting.
    const auto now = std::chrono::steady_clock::now();
    if (now - last_probe >=
        std::chrono::milliseconds(std::max(1, options_.health_interval_ms))) {
      last_probe = now;
      for (std::size_t i = 0; i < supervisor_->size(); ++i) {
        if (supervisor_->state(i) != BackendState::kRunning) continue;
        std::string line;
        if (try_backend(i, "stats probe\n", kProbeBudgetMs, &line)) {
          health_->record_success(i);
        } else {
          health_->record_failure(i);
        }
      }
    }

    refresh_backend_gauges();
    respawns_->mirror(supervisor_->respawns());
    breaker_->mirror(supervisor_->breaker_trips());
    std::this_thread::sleep_for(kMaintenanceTick);
  }
}

void Router::refresh_backend_gauges() const {
  std::size_t healthy = 0;
  std::size_t unhealthy = 0;
  std::size_t down = 0;
  for (std::size_t i = 0; i < supervisor_->size(); ++i) {
    if (supervisor_->state(i) != BackendState::kRunning) {
      ++down;
    } else if (health_->healthy(i)) {
      ++healthy;
    } else {
      ++unhealthy;
    }
  }
  backends_healthy_->set(static_cast<double>(healthy));
  backends_unhealthy_->set(static_cast<double>(unhealthy));
  backends_down_->set(static_cast<double>(down));
}

std::uint64_t placement_key(const SolveRequest& req) {
  const auto keyed = [](const InstanceRecord& record, std::string_view fallback) {
    return record.ok() ? record.hash() : fnv1a(fallback);
  };
  if (req.parsed != nullptr) return keyed(*req.parsed, req.parsed->error());
  if (req.has_inline_text) {
    return keyed(parse_instance_record(req.inline_text), req.inline_text);
  }
  std::ifstream file(req.path);
  return keyed(file ? parse_instance_record(file) : InstanceRecord::failed("cannot open file"),
               req.path);
}

bool Router::try_backend(std::size_t backend, const std::string& frame_line,
                         int budget_ms, std::string* response_line) {
  // The generation is read before the port: a respawn in between tags the
  // new process's connection with the old generation, and the next
  // checkout merely closes it.
  const std::uint64_t generation = supervisor_->generation(backend);
  Connection connection = checkout(backend, generation);
  if (connection.transport == nullptr) {
    const int port = supervisor_->port(backend);
    if (port <= 0) return false;
    std::string error;
    const int connect_ms =
        std::max(1, std::min(options_.connect_timeout_ms, budget_ms));
    const int fd = tcp_connect("127.0.0.1", port, &error, connect_ms);
    if (fd < 0) return false;
    connection = {std::make_unique<FdTransport>(fd, "backend-" + std::to_string(backend)),
                  generation};
  }
  // Every attempt re-arms the deadline, reused connection or not. It is
  // what turns a stalled/wedged backend into a retry: SO_RCVTIMEO fires,
  // FdStreambuf surfaces EOF, this attempt fails, and the connection (which
  // may still receive the late answer) is closed with it.
  FdTransport& transport = *connection.transport;
  const int io_ms = std::max(1, std::min(options_.attempt_timeout_ms, budget_ms));
  set_io_timeout(transport.fd(), io_ms, io_ms);
  transport.out() << frame_line << std::flush;
  if (!transport.out()) return false;
  std::string line;
  // A line cut off by EOF is a connection dropped mid-response.
  if (!std::getline(transport.in(), line) || transport.in().eof()) return false;
  if (line.empty() || line[0] != '{') return false;
  *response_line = line + "\n";
  // Back to the pool only with nothing unread: a later request must never
  // read a line this one did not ask for.
  if (transport.in().rdbuf()->in_avail() == 0) checkin(backend, std::move(connection));
  return true;
}

Router::Connection Router::checkout(std::size_t backend, std::uint64_t generation) {
  IdleConnections& idle = idle_[backend];
  std::lock_guard<std::mutex> lock(idle.mu);
  std::erase_if(idle.stack, [generation](const Connection& connection) {
    return connection.generation < generation;
  });
  if (idle.stack.empty()) return {};
  Connection connection = std::move(idle.stack.back());
  idle.stack.pop_back();
  return connection;
}

void Router::checkin(std::size_t backend, Connection connection) {
  IdleConnections& idle = idle_[backend];
  std::lock_guard<std::mutex> lock(idle.mu);
  idle.stack.push_back(std::move(connection));
}

std::string Router::route_one(const SolveRequest& req, std::int64_t seq) {
  // A `parsed` source (a native body) has no wire form, so it is built once
  // and re-serialized as inline text; inline text and file paths are
  // forwarded as they are (the backend reads the file and owns the
  // canonical open/parse error texts).
  SolveRequest wire = req;
  wire.parsed.reset();
  if (req.parsed != nullptr) {
    if (!req.parsed->ok()) {
      requests_error_->inc();
      return local_error(req.id, seq, req.path, "parse error: " + req.parsed->error());
    }
    const ParsedInstance parsed = req.parsed->build();
    std::ostringstream text;
    if (parsed.uniform.has_value()) {
      write_instance(text, *parsed.uniform);
    } else {
      write_instance(text, *parsed.unrelated);
    }
    wire.inline_text = text.str();
    wire.has_inline_text = true;
  } else if (!req.has_inline_text && req.path.empty()) {
    requests_error_->inc();
    return local_error(req.id, seq, req.path, "no instance source in request");
  }
  const std::uint64_t key = placement_key(req);
  const std::string frame_line = encode_request_json(wire) + "\n";

  const std::size_t home = ring_->owner(key);
  const std::vector<std::size_t> order = ring_->candidates(key);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.deadline_ms);
  const auto remaining_ms = [&deadline]() -> long {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               deadline - std::chrono::steady_clock::now())
        .count();
  };

  // Candidate passes under one deadline budget: ring order from the key's
  // home, healthy backends before unhealthy ones, non-running slots skipped.
  // A full pass with no answer sleeps briefly (a lone backend may be
  // respawning) and tries again until the budget is spent.
  int attempts = 0;
  std::string line;
  std::optional<std::string> served;
  while (!served.has_value()) {
    for (int phase = 0; phase < 2 && !served.has_value(); ++phase) {
      for (const std::size_t backend : order) {
        if (remaining_ms() <= 0) break;
        if (supervisor_->state(backend) != BackendState::kRunning) continue;
        if (health_->healthy(backend) != (phase == 0)) continue;
        if (attempts > 0) retries_->inc();
        ++attempts;
        attempts_->inc();
        const auto t0 = std::chrono::steady_clock::now();
        const bool answered = try_backend(
            backend, frame_line, static_cast<int>(std::max(1l, remaining_ms())),
            &line);
        if (!answered) {
          health_->record_failure(backend);
          continue;
        }
        health_->record_success(backend);
        backend_latency_[backend]->observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
        if (backend != home) failovers_->inc();
        served = std::move(line);
        break;
      }
    }
    if (served.has_value()) break;
    if (remaining_ms() <= kPassBackoff.count()) break;
    std::this_thread::sleep_for(kPassBackoff);
  }

  if (!served.has_value()) {
    degraded_->inc();
    requests_error_->inc();
    return local_error(
        req.id, seq, req.path,
        "degraded: no backend answered within " +
            std::to_string(options_.deadline_ms) + "ms (" +
            std::to_string(attempts) + " attempts across " +
            std::to_string(order.size()) + " backends)");
  }

  // The response correlates by the ROUTER's admission order: its seq always,
  // and its `#<seq>` id when the client supplied none (the backend's
  // auto-assigned id lives in a per-backend namespace that collides fleet-
  // wide). A client-supplied id passed through the backend verbatim.
  splice_seq(&served.value(), seq);
  if (req.id.empty()) splice_auto_id(&served.value(), seq);
  const bool ok = served->find("\"status\": \"ok\"") != std::string::npos;
  (ok ? requests_ok_ : requests_error_)->inc();
  return std::move(served.value());
}

std::string Router::stats_frame_json(const std::string& id, std::int64_t seq) const {
  const RouterStats s = stats();
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion << ", \"id\": " << json_quote(id)
      << ", \"seq\": " << seq << ", \"type\": \"stats\""
      << ", \"role\": \"router\""
      << ", \"backends\": " << s.backends << ", \"healthy\": " << s.healthy
      << ", \"unhealthy\": " << s.unhealthy << ", \"down\": " << s.down
      << ", \"requests\": " << s.requests << ", \"ok\": " << s.ok
      << ", \"errors\": " << s.errors << ", \"retries\": " << s.retries
      << ", \"failovers\": " << s.failovers << ", \"degraded\": " << s.degraded
      << ", \"respawns\": " << s.respawns
      << ", \"breaker_trips\": " << s.breaker_trips
      << ", \"uptime_s\": " << fmt_double_exact(uptime) << "}\n";
  return out.str();
}

std::string Router::metrics_frame_json(const std::string& id, std::int64_t seq) const {
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion << ", \"id\": " << json_quote(id)
      << ", \"seq\": " << seq << ", \"type\": \"metrics\""
      << ", \"content_type\": \"text/plain; version=0.0.4\""
      << ", \"body\": " << json_quote(metrics_text()) << "}\n";
  return out.str();
}

std::string Router::metrics_text() const {
  refresh_backend_gauges();
  respawns_->mirror(supervisor_->respawns());
  breaker_->mirror(supervisor_->breaker_trips());
  return registry_.expose();
}

RouterStats Router::stats() const {
  RouterStats s;
  s.ok = requests_ok_->value();
  s.errors = requests_error_->value();
  s.requests = s.ok + s.errors;
  s.retries = retries_->value();
  s.failovers = failovers_->value();
  s.degraded = degraded_->value();
  s.respawns = supervisor_->respawns();
  s.breaker_trips = supervisor_->breaker_trips();
  s.backends = supervisor_->size();
  for (std::size_t i = 0; i < supervisor_->size(); ++i) {
    if (supervisor_->state(i) != BackendState::kRunning) {
      ++s.down;
    } else if (health_->healthy(i)) {
      ++s.healthy;
    } else {
      ++s.unhealthy;
    }
  }
  return s;
}

Dispatch Router::classify(Frame frame, SessionInfo&) {
  // The router itself holds no token (it binds loopback/stdio; auth guards
  // remote SERVE binds) — an `auth` frame is ignored exactly as a serve
  // session without a configured token ignores one.
  Dispatch dispatch;
  if (frame.bad.empty() && frame.kind == Frame::Kind::kAuth) return dispatch;

  const std::int64_t seq = seq_.fetch_add(1);

  // Introspection answers from the ROUTER — fleet shape and retry/failover
  // counters, not any single backend's solve stats — inline, off the pool.
  if (frame.bad.empty() && frame.kind == Frame::Kind::kStats) {
    dispatch.line = stats_frame_json(frame.req.id, seq);
  } else if (frame.bad.empty() && frame.kind == Frame::Kind::kMetrics) {
    dispatch.line = metrics_frame_json(frame.req.id, seq);
  } else {
    dispatch.work = [this, req = std::move(frame.req), bad = std::move(frame.bad), seq] {
      if (bad.empty()) return route_one(req, seq);
      requests_error_->inc();
      return local_error(req.id, seq, "", bad);
    };
  }
  return dispatch;
}

RouterStats route_stdio(const RouterOptions& options, std::istream& in,
                        std::ostream& out, std::string* error) {
  Router router(options, error);
  if (!router.ok()) return {};
  serve_stream(router, in, out);
  return router.stats();
}

RouterStats route_listener(const RouterOptions& options, Listener& listener,
                           std::string* error) {
  Router router(options, error);
  if (!router.ok()) return {};
  EventLoop loop(router, listener);
  if (!loop.run() && !router.shutdown_requested() && error != nullptr) {
    *error = "listener on '" + listener.endpoint() + "' failed";
  }
  return router.stats();
}

}  // namespace bisched::engine::fleet
