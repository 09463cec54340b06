#include "engine/serve.hpp"

#include <algorithm>
#include <csignal>
#include <iostream>
#include <memory>
#include <sstream>
#include <utility>

#include "engine/fault.hpp"
#include "engine/serve/event_loop.hpp"
#include "io/jsonl.hpp"
#include "sched/simd_dispatch.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace bisched::engine {

namespace {

double hit_rate(std::uint64_t memory_hits, std::uint64_t disk_hits,
                std::uint64_t misses) {
  const std::uint64_t total = memory_hits + disk_hits + misses;
  if (total == 0) return 0;
  return static_cast<double>(memory_hits + disk_hits) / static_cast<double>(total);
}

// Constant-time token comparison: the loop shape depends only on the
// lengths, never on where the strings first differ, so response timing
// cannot be used to guess a remote token byte by byte.
bool token_equal(const std::string& a, const std::string& b) {
  const std::size_t n = std::max(a.size(), b.size());
  unsigned diff = static_cast<unsigned>(a.size() ^ b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = i < a.size() ? static_cast<unsigned char>(a[i]) : 0;
    const unsigned char cb = i < b.size() ? static_cast<unsigned char>(b[i]) : 0;
    diff |= static_cast<unsigned>(ca ^ cb);
  }
  return diff == 0;
}

}  // namespace

Server::Server(const SolverRegistry& registry, const ServeOptions& options,
               WarmState* warm)
    : registry_(registry), options_(options), warm_(warm) {
  // A peer that disconnects mid-response must surface as a write error on
  // that one session, never as SIGPIPE killing the process — on stdio, on
  // sockets, and for in-process embedders too.
  ::signal(SIGPIPE, SIG_IGN);
  if (warm_ == nullptr) {
    owned_warm_ = std::make_unique<WarmState>();
    warm_ = owned_warm_.get();
  }
  const unsigned threads =
      options_.threads != 0 ? options_.threads : default_thread_count();
  max_inflight_ = options_.max_inflight != 0 ? options_.max_inflight : 4 * threads;
  pool_ = std::make_unique<ThreadPool>(threads);

  // The serve series join the engine series (bisched_solves_total etc.) in
  // the warm state's registry, so one scrape covers both.
  telemetry::Registry& reg = warm_->telemetry().registry();
  const char* frames_help = "Admitted frames by type";
  frames_solve_ = &reg.counter("bisched_serve_frames_total", frames_help,
                               "type=\"solve\"");
  frames_stats_ = &reg.counter("bisched_serve_frames_total", frames_help,
                               "type=\"stats\"");
  frames_metrics_ = &reg.counter("bisched_serve_frames_total", frames_help,
                                 "type=\"metrics\"");
  frames_auth_ = &reg.counter("bisched_serve_frames_total", frames_help,
                              "type=\"auth\"");
  frames_malformed_ = &reg.counter("bisched_serve_frames_total", frames_help,
                                   "type=\"malformed\"");
  const char* responses_help = "Responses written by status";
  responses_ok_ = &reg.counter("bisched_serve_responses_total", responses_help,
                               "status=\"ok\"");
  responses_error_ = &reg.counter("bisched_serve_responses_total", responses_help,
                                  "status=\"error\"");
  const char* rejects_help = "Frames refused before execution (also counted as error responses)";
  rejects_auth_ = &reg.counter("bisched_serve_rejects_total", rejects_help,
                               "reason=\"auth\"");
  rejects_quota_ = &reg.counter("bisched_serve_rejects_total", rejects_help,
                                "reason=\"over-quota\"");
  // The engine's series (sessions, in-flight, loop, idle reaps) sit between
  // the rejects and the uptime gauge: exposition order is golden-pinned.
  series_ = SessionSeries(reg);
  uptime_gauge_ = &reg.gauge("bisched_uptime_seconds",
                             "Seconds since this server was constructed");
}

Server::~Server() { pool_->wait_idle(); }

double Server::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

std::string Server::stats_frame_json(const std::string& id, std::int64_t seq,
                                     std::size_t session_inflight) const {
  const std::uint64_t solve_frames = frames_solve_->value();
  const std::uint64_t stats_frames = frames_stats_->value();
  const std::uint64_t metrics_frames = frames_metrics_->value();
  const std::uint64_t auth_frames = frames_auth_->value();
  const std::uint64_t malformed = frames_malformed_->value();
  const auto inflight = static_cast<std::uint64_t>(series_.inflight->value());
  const auto profile = warm_->profiles().stats();
  const auto result = warm_->results().stats();
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion << ", \"id\": " << json_quote(id)
      << ", \"seq\": " << seq << ", \"type\": \"stats\""
      << ", \"requests\": "
      << solve_frames + stats_frames + metrics_frames + auth_frames + malformed
      << ", \"solve_frames\": " << solve_frames
      << ", \"stats_frames\": " << stats_frames
      << ", \"metrics_frames\": " << metrics_frames
      << ", \"auth_frames\": " << auth_frames
      << ", \"malformed\": " << malformed << ", \"ok\": " << responses_ok_->value()
      << ", \"errors\": " << responses_error_->value()
      << ", \"sessions\": " << series_.sessions_total->value()
      << ", \"sessions_active\": "
      << static_cast<std::uint64_t>(series_.sessions_active->value())
      << ", \"inflight\": " << inflight
      << ", \"session_inflight\": " << session_inflight
      << ", \"uptime_s\": " << fmt_double_exact(uptime_seconds())
      << ", \"store\": " << json_quote(warm_->store_dir())
      << ", \"simd\": " << json_quote(to_string(simd_level()))
      << ", \"profile_entries\": " << profile.entries
      << ", \"profile_disk_entries\": " << profile.disk_entries
      << ", \"profile_hits_memory\": " << profile.hits
      << ", \"profile_hits_disk\": " << profile.disk_hits
      << ", \"profile_misses\": " << profile.misses
      << ", \"profile_evictions\": " << profile.evictions
      << ", \"profile_hit_rate\": "
      << fmt_double_exact(hit_rate(profile.hits, profile.disk_hits, profile.misses))
      << ", \"result_entries\": " << result.entries
      << ", \"result_disk_entries\": " << result.disk_entries
      << ", \"result_hits_memory\": " << result.hits
      << ", \"result_hits_disk\": " << result.disk_hits
      << ", \"result_misses\": " << result.misses
      << ", \"result_evictions\": " << result.evictions
      << ", \"result_hit_rate\": "
      << fmt_double_exact(hit_rate(result.hits, result.disk_hits, result.misses))
      << "}\n";
  return out.str();
}

std::string Server::metrics_text() const {
  warm_->mirror_metrics();
  uptime_gauge_->set(uptime_seconds());
  return warm_->telemetry().registry().expose();
}

std::string Server::metrics_frame_json(const std::string& id, std::int64_t seq) const {
  std::ostringstream out;
  out << "{\"v\": " << kApiVersion << ", \"id\": " << json_quote(id)
      << ", \"seq\": " << seq << ", \"type\": \"metrics\""
      << ", \"content_type\": \"text/plain; version=0.0.4\""
      << ", \"body\": " << json_quote(metrics_text()) << "}\n";
  return out.str();
}

void Server::maybe_slow_log(const SolveResponse& response, double elapsed_ms,
                            const std::shared_ptr<const telemetry::Trace>& trace) {
  if (options_.slow_ms < 0 || elapsed_ms < options_.slow_ms) return;
  // One structured line per slow request: correlation first (trace id, id,
  // seq), then outcome and tiers hit, then the span breakdown — everything
  // needed to decide "cache or solver?" without re-running the request.
  std::ostringstream line;
  line << "serve: slow-request trace=" << (trace != nullptr ? trace->id() : "-")
       << " id=" << response.id << " seq=" << response.seq
       << " status=" << (response.ok ? "ok" : "error")
       << " elapsed_ms=" << fmt_double_exact(elapsed_ms)
       << " cache=" << response_cache_label(response)
       << " solve_cache=" << response_result_label(response)
       << " solver=" << (response.solver.empty() ? "-" : response.solver)
       << " spans="
       << (trace != nullptr ? trace->compact(/*zero_ms=*/false) : "-") << "\n";
  std::ostream& out = options_.slow_log != nullptr ? *options_.slow_log : std::cerr;
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  out << line.str() << std::flush;
}

std::string Server::render(const SolveRequest& req, std::int64_t seq,
                           const std::string& bad) {
  SolveResponse response;
  if (!bad.empty()) {
    response.error = bad;
    response.id = req.id;
  } else {
    fault::maybe_stall();
    response = run_request(registry_, *warm_, req, options_.alg, options_.solve);
  }
  response.seq = seq;
  // Keep the real timing and trace for the slow log before --stable strips
  // them from the wire form.
  const double elapsed_ms = response.elapsed_ms;
  const auto trace = response.trace;
  if (options_.stable_output) response.strip_timing();
  (response.ok ? responses_ok_ : responses_error_)->inc();
  // Only executed solves are slow-log candidates; malformed frames never
  // reached the engine and have no timing to report.
  if (bad.empty()) maybe_slow_log(response, elapsed_ms, trace);
  return encode_response_json(response);
}

Dispatch Server::classify(Frame frame, SessionInfo& session) {
  const std::int64_t seq = seq_.fetch_add(1);
  SolveRequest& req = frame.req;
  std::string& bad = frame.bad;
  if (req.id.empty()) req.id = "#" + std::to_string(seq);
  const bool probe = bad.empty() && (frame.kind == Frame::Kind::kStats ||
                                     frame.kind == Frame::Kind::kMetrics);

  // Frame-type accounting at classification time, in admission order (the
  // frame counts itself: a stats frame admitted as seq N reports N+1
  // requests). Malformed means rejected at the protocol layer — a
  // well-formed frame whose solve fails still counts as a solve frame (its
  // failure shows up in the response status counters instead). A `shutdown`
  // only gets here from a session that may not send it: refused by the
  // gate below, it counts as malformed.
  if (!bad.empty() || frame.kind == Frame::Kind::kShutdown) {
    frames_malformed_->inc();
  } else if (frame.kind == Frame::Kind::kStats) {
    frames_stats_->inc();
  } else if (frame.kind == Frame::Kind::kMetrics) {
    frames_metrics_->inc();
  } else if (frame.kind == Frame::Kind::kAuth) {
    frames_auth_->inc();
  } else {
    frames_solve_->inc();
  }

  // The auth gate. A valid token flips the session to authed silently (the
  // next frame's response is the ack — no response traffic to time); a bad
  // token or any pre-auth frame is answered with an error and the session
  // closes, so an unauthenticated peer gets exactly one line out of us.
  Dispatch dispatch;
  if (bad.empty() && frame.kind == Frame::Kind::kAuth) {
    if (authorized(session) || token_equal(frame.auth_token, options_.auth_token)) {
      session.authed = true;  // re-auth / auth without a configured token: ignored
      return dispatch;
    }
    rejects_auth_->inc();
    dispatch.line = render(req, seq, "auth failed: bad token");
    dispatch.close = true;
    return dispatch;
  }
  if (!authorized(session)) {
    rejects_auth_->inc();
    dispatch.line =
        render(req, seq, "auth required: present `auth TOKEN` as the first frame");
    dispatch.close = true;
    return dispatch;
  }

  // Fault injection (solve frames only; inert without BISCHED_FAULT):
  // crash-after _exits inside the hook, drop-after ends the session with
  // the response unsent — the client sees the connection die mid-request,
  // which is exactly what the router's retry path must absorb.
  if (bad.empty() && !probe &&
      fault::on_solve_frame() == fault::Action::kDropConnection) {
    dispatch.drop = true;
    return dispatch;
  }

  // Introspection is answered inline: a stats/metrics probe must not queue
  // behind the heavy solves it is there to observe. The snapshot does not
  // count the probe itself as answered; the count comes before the write.
  if (probe) {
    dispatch.line = frame.kind == Frame::Kind::kStats
                        ? stats_frame_json(req.id, seq, session.inflight)
                        : metrics_frame_json(req.id, seq);
    responses_ok_->inc();
    return dispatch;
  }

  // Per-session quota: refused inline with a structured error — the session
  // stays open, and the client can resubmit once its own work drains. (The
  // global bound stays backpressure: it parks reads rather than refusing.)
  if (bad.empty() && options_.session_max_inflight > 0 &&
      session.inflight >= options_.session_max_inflight) {
    rejects_quota_->inc();
    dispatch.line = render(req, seq,
                           "over-quota: session already has " +
                               std::to_string(options_.session_max_inflight) +
                               " requests in flight");
    return dispatch;
  }

  dispatch.work = [this, req = std::move(req), bad = std::move(bad), seq] {
    return render(req, seq, bad);
  };
  return dispatch;
}

ServeStats Server::stats() const {
  ServeStats stats;
  stats.solve_frames = frames_solve_->value();
  stats.stats_frames = frames_stats_->value();
  stats.metrics_frames = frames_metrics_->value();
  stats.auth_frames = frames_auth_->value();
  stats.malformed = frames_malformed_->value();
  stats.requests = stats.solve_frames + stats.stats_frames + stats.metrics_frames +
                   stats.auth_frames + stats.malformed;
  stats.ok = responses_ok_->value();
  stats.errors = responses_error_->value();
  stats.sessions = series_.sessions_total->value();
  stats.cache = warm_->profiles().stats();
  stats.results = warm_->results().stats();
  return stats;
}

ServeStats serve(const SolverRegistry& registry, std::istream& in, std::ostream& out,
                 const ServeOptions& options, WarmState* warm) {
  Server server(registry, options, warm);
  serve_stream(server, in, out, options.pipeline_depth);
  server.warm().flush();
  return server.stats();
}

ServeStats serve_listener(const SolverRegistry& registry, Listener& listener,
                          const ServeOptions& options, std::string* error,
                          WarmState* warm) {
  Server server(registry, options, warm);
  EventLoop loop(server, listener, options.pipeline_depth, options.idle_timeout_ms);
  if (!loop.run() && !server.shutdown_requested() && error != nullptr) {
    *error = "listener on '" + listener.endpoint() + "' failed";
  }
  server.warm().flush();
  return server.stats();
}

ServeStats serve_unix(const SolverRegistry& registry, const std::string& socket_path,
                      const ServeOptions& options, std::string* error,
                      WarmState* warm) {
  auto listener = UnixListener::open(socket_path, error);
  if (listener == nullptr) return {};
  return serve_listener(registry, *listener, options, error, warm);
}

ServeStats serve_tcp(const SolverRegistry& registry, const std::string& host, int port,
                     bool allow_remote, const ServeOptions& options, std::string* error,
                     WarmState* warm, int* bound_port) {
  auto listener = TcpListener::open(host, port, allow_remote, error);
  if (listener == nullptr) return {};
  if (bound_port != nullptr) *bound_port = listener->port();
  return serve_listener(registry, *listener, options, error, warm);
}

}  // namespace bisched::engine
