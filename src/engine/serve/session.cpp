#include "engine/serve/session.hpp"

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/parallel.hpp"

namespace bisched::engine {

namespace {

using Clock = std::chrono::steady_clock;

// A peer that queues responses it never reads gets its requests parked too:
// past this many unflushed response bytes the session stops decoding frames
// until the socket drains.
constexpr std::size_t kWriteHighWater = std::size_t{4} << 20;

// Per-session pipeline bound when the caller passes 0.
constexpr std::size_t kDefaultPipelineDepth = 64;

// Strips every character istream extraction also treats as whitespace
// (\v and \f included), so a whitespace-only line is always classified as a
// blank frame and can never reach split_words as an empty word list.
std::string trimmed(const std::string& line) {
  const auto start = line.find_first_not_of(" \t\r\v\f");
  if (start == std::string::npos) return "";
  const auto end = line.find_last_not_of(" \t\r\v\f");
  return line.substr(start, end - start + 1);
}

// Splits "solve PATH [ID]" / "instance [ID]" style frames on whitespace.
std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream stream(line);
  std::string word;
  while (stream >> word) words.push_back(word);
  return words;
}

// The auto-assigned id form `#<digits>`; client-supplied ids must not use it.
bool is_reserved_id(const std::string& id) {
  if (id.size() < 2 || id[0] != '#') return false;
  return std::all_of(id.begin() + 1, id.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

}  // namespace

Frame classify_frame(const std::string& line, bool* needs_body) {
  Frame out;
  *needs_body = false;
  if (line == "quit") {
    out.kind = Frame::Kind::kQuit;
    return out;
  }
  if (line == "shutdown") {
    out.kind = Frame::Kind::kShutdown;
    return out;
  }

  if (line[0] == '{') {
    std::string error;
    std::string salvaged_id;
    if (auto decoded = decode_request_json(line, &error, &salvaged_id)) {
      out.req = std::move(*decoded);
    } else {
      out.bad = "bad request: " + error;
      // Answer under the client's own id when the broken frame still
      // yielded one — a client correlating strictly by its ids would
      // otherwise never match the error to its request. (A salvaged id in
      // the reserved form stays unused; the auto id applies.)
      if (!is_reserved_id(salvaged_id)) out.req.id = std::move(salvaged_id);
    }
  } else {
    const auto words = split_words(line);
    if (words[0] == "solve") {
      if (words.size() == 2 || words.size() == 3) {
        out.req.path = words[1];
        if (words.size() == 3) out.req.id = words[2];
      } else {
        out.bad = "bad request: solve takes PATH [ID] (paths with spaces "
                  "need the JSON form)";
      }
    } else if (words[0] == "instance") {
      // The native text follows the header. A header with a malformed id
      // list still needs its body consumed, or the body's lines would be
      // misread as frames.
      if (words.size() == 2) out.req.id = words[1];
      if (words.size() > 2) out.bad = "bad request: instance takes at most one id";
      *needs_body = true;
    } else if (words[0] == "stats") {
      if (words.size() == 2) out.req.id = words[1];
      if (words.size() > 2) out.bad = "bad request: stats takes at most one id";
      out.kind = Frame::Kind::kStats;
    } else if (words[0] == "metrics") {
      if (words.size() == 2) out.req.id = words[1];
      if (words.size() > 2) out.bad = "bad request: metrics takes at most one id";
      out.kind = Frame::Kind::kMetrics;
    } else if (words[0] == "auth") {
      if (words.size() == 2) {
        out.auth_token = words[1];
      } else {
        out.bad = "bad request: auth takes exactly one token";
      }
      out.kind = Frame::Kind::kAuth;
    } else {
      out.bad = "bad request: unrecognized frame '" + words[0] + "'";
    }
  }

  // Client-supplied ids must stay out of the server's `#<seq>` namespace —
  // a colliding correlation key is worse than an error response.
  if (out.bad.empty() && is_reserved_id(out.req.id)) {
    out.bad = "bad request: id '" + out.req.id +
              "' uses the reserved #<digits> form (server-assigned ids)";
    out.req.id.clear();
  }
  return out;
}

SessionSeries::SessionSeries(telemetry::Registry& registry)
    : rejects_idle(&registry.counter(
          "bisched_serve_rejects_total",
          "Frames refused before execution (also counted as error responses)",
          "reason=\"idle-timeout\"")),
      sessions_total(&registry.counter("bisched_serve_sessions_total",
                                       "Client sessions ever started")),
      sessions_active(&registry.gauge("bisched_serve_sessions_active",
                                      "Client sessions currently connected")),
      inflight(&registry.gauge("bisched_serve_inflight_requests",
                               "Requests admitted but not yet answered")),
      open_sessions(&registry.gauge("bisched_serve_open_sessions",
                                    "Sessions registered on the async event loop")),
      parked_sessions(&registry.gauge("bisched_serve_parked_sessions",
                                      "Sessions with reads parked by backpressure")),
      pipeline_peak(&registry.gauge("bisched_serve_pipeline_depth_peak",
                                    "Deepest per-session solve pipeline observed")),
      loop_wakeups(&registry.counter("bisched_serve_loop_wakeups_total",
                                     "Event loop wakeups (epoll_wait returns)")) {}

namespace detail {

// ---------------------------------------------------------- frame machine ---

SessionEngine::SessionEngine(SessionHandler& handler, std::size_t pipeline_depth)
    : handler_(handler),
      series_(handler.series()),
      pipeline_cap_(pipeline_depth != 0 ? pipeline_depth : kDefaultPipelineDepth) {}

bool SessionEngine::should_park(const Session& s) const {
  if (s.closing || s.dead) return false;
  return s.info.inflight >= pipeline_cap_ || s.wbuf.size() - s.woff > kWriteHighWater ||
         inflight_.load() >= handler_.max_inflight();
}

void SessionEngine::mark_dead(Session& s) {
  s.dead = true;
  s.closing = true;
  s.wbuf.clear();
  s.woff = 0;
}

void SessionEngine::submit(Session& s, std::function<std::string()> work) {
  const std::uint64_t ticket = s.next_ticket++;
  ++s.info.inflight;
  if (static_cast<double>(s.info.inflight) > series_.pipeline_peak->value()) {
    series_.pipeline_peak->set(static_cast<double>(s.info.inflight));
  }
  inflight_.fetch_add(1);
  series_.inflight->add(1);
  handler_.pool().submit([this, sid = s.sid, ticket, work = std::move(work)] {
    std::string line = work();
    inflight_.fetch_sub(1);
    series_.inflight->add(-1);
    deliver(sid, ticket, std::move(line));
  });
}

void SessionEngine::complete(Session& s, std::uint64_t ticket, std::string line) {
  --s.info.inflight;
  s.held.emplace(ticket, std::move(line));
  while (!s.held.empty() && s.held.begin()->first == s.next_flush) {
    write(s, s.held.begin()->second);
    s.held.erase(s.held.begin());
    ++s.next_flush;
  }
}

void SessionEngine::dispatch_frame(Session& s, Frame frame) {
  s.last_frame = Clock::now();
  const bool shutdown =
      frame.kind == Frame::Kind::kShutdown && handler_.authorized(s.info);
  if (frame.kind == Frame::Kind::kQuit || shutdown) {
    if (shutdown) handler_.request_shutdown();
    s.closing = true;
    return;
  }
  Dispatch dispatch = handler_.classify(std::move(frame), s.info);
  if (dispatch.drop) {
    mark_dead(s);
    return;
  }
  if (!dispatch.line.empty()) write(s, dispatch.line);
  if (dispatch.work) submit(s, std::move(dispatch.work));
  if (dispatch.close) s.closing = true;
}

void SessionEngine::process_input(Session& s) {
  while (!s.closing && !s.dead) {
    if (s.parked || should_park(s)) {
      park(s);
      break;
    }
    if (s.mode == Session::Mode::kBody) {
      const auto status = s.body.feed(s.rbuf, &s.rpos, s.read_eof);
      if (status == InstanceParser::Status::kNeedMore) break;
      // The record goes to the worker as read: the Graph, if any cache
      // misses, is built there and never on this thread.
      auto record = std::make_shared<const InstanceRecord>(s.body.take());
      if (s.body_frame.bad.empty()) s.body_frame.req.parsed = std::move(record);
      if (status == InstanceParser::Status::kDone) {
        s.mode = Session::Mode::kLine;
        dispatch_frame(s, std::exchange(s.body_frame, Frame{}));
      } else {
        // The parser stopped right after the offending token, mid-line:
        // discard the rest of that line, then input up to the next blank
        // line (bodies contain none), before the frame is answered, so the
        // rest of the broken body is not misread as frames.
        s.mode = Session::Mode::kDiscard;
        s.failed_line = true;
      }
    } else if (s.mode == Session::Mode::kDiscard) {
      bool resynced = false;
      while (!resynced) {
        const auto nl = s.rbuf.find('\n', s.rpos);
        if (nl == std::string::npos) {
          resynced = s.read_eof;  // EOF ends the discard too
          if (resynced) s.rpos = s.rbuf.size();
          break;
        }
        resynced = !s.failed_line && trimmed(s.rbuf.substr(s.rpos, nl - s.rpos)).empty();
        s.failed_line = false;
        s.rpos = nl + 1;
      }
      if (!resynced) break;
      s.mode = Session::Mode::kLine;
      dispatch_frame(s, std::exchange(s.body_frame, Frame{}));
    } else {
      const auto nl = s.rbuf.find('\n', s.rpos);
      std::string line;
      if (nl == std::string::npos) {
        if (!s.read_eof || s.rpos >= s.rbuf.size()) break;
        line = s.rbuf.substr(s.rpos);  // final unterminated line
        s.rpos = s.rbuf.size();
      } else {
        line = s.rbuf.substr(s.rpos, nl - s.rpos);
        s.rpos = nl + 1;
      }
      const std::string text = trimmed(line);
      if (text.empty() || text[0] == '#') continue;
      bool needs_body = false;
      Frame frame = classify_frame(text, &needs_body);
      if (needs_body) {
        s.mode = Session::Mode::kBody;
        s.body = InstanceParser();
        s.body_frame = std::move(frame);
        continue;
      }
      dispatch_frame(s, std::move(frame));
    }
  }
  // Reclaim consumed bytes, mid-body too: the parser keeps no pointer into
  // rbuf, only the unread tail from rpos on matters.
  if (s.rpos > 0) {
    s.rbuf.erase(0, s.rpos);
    s.rpos = 0;
  }
  if (s.read_eof && !s.closing && !s.parked && s.mode == Session::Mode::kLine &&
      s.rpos >= s.rbuf.size()) {
    s.closing = true;  // every complete frame handled; drain and close
  }
}

}  // namespace detail

// ------------------------------------------------------------- stream pump ---

namespace {

// The blocking runner: one session over borrowed streams. The caller's
// thread reads lines and runs the frame machine; pool workers write their
// lines as their turn comes. One mutex serializes both, so the engine sees
// one thread at a time.
class StreamPump final : public detail::SessionEngine {
 public:
  StreamPump(SessionHandler& handler, std::ostream& out, std::size_t pipeline_depth)
      : SessionEngine(handler, pipeline_depth), out_(out) {}

  void run(std::istream& in) {
    Session& s = session_;
    series_.sessions_total->inc();
    series_.sessions_active->add(1);
    std::unique_lock<std::mutex> lock(mu_);
    std::string line;
    while (true) {
      process_input(s);
      if (s.closing || s.dead || (s.read_eof && !s.parked)) break;
      if (s.parked) {
        cv_.wait(lock, [&] { return !should_park(s); });
        s.parked = false;
        continue;
      }
      lock.unlock();
      const bool got = static_cast<bool>(std::getline(in, line));
      lock.lock();
      if (got) {
        s.rbuf += line;
        if (!in.eof()) s.rbuf += '\n';
      }
      s.read_eof = !got || in.eof();
    }
    cv_.wait(lock, [&] { return s.info.inflight == 0; });
    series_.sessions_active->add(-1);
  }

 private:
  void write(Session& s, const std::string& line) override {
    if (s.dead) return;
    out_ << line;
    out_.flush();
  }

  void park(Session& s) override { s.parked = true; }

  void deliver(std::uint64_t, std::uint64_t ticket, std::string line) override {
    // Notify under the lock: run() may return, and this pump be destroyed,
    // as soon as it sees the last completion.
    std::lock_guard<std::mutex> lock(mu_);
    complete(session_, ticket, std::move(line));
    cv_.notify_all();
  }

  std::ostream& out_;
  std::mutex mu_;
  std::condition_variable cv_;
  Session session_;
};

}  // namespace

void serve_stream(SessionHandler& handler, std::istream& in, std::ostream& out,
                  std::size_t pipeline_depth) {
  StreamPump(handler, out, pipeline_depth).run(in);
}

}  // namespace bisched::engine
