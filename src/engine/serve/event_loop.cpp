#include "engine/serve/event_loop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/serve/session.hpp"
#include "engine/transport.hpp"
#include "util/parallel.hpp"

namespace bisched::engine {

namespace {

using Clock = std::chrono::steady_clock;

// Journal flush cadence, and how long shutdown waits for a slow reader
// before dropping its responses.
constexpr std::chrono::seconds kStoreFlushInterval(5);
constexpr std::chrono::seconds kShutdownFlushGrace(5);

// SIGTERM = graceful drain: stop accepting, finish in-flight work, flush.
// The supervisor stops fleet backends this way.
std::atomic<bool> g_drain{false};
void drain_handler(int) { g_drain.store(true); }

}  // namespace

struct EventLoop::Impl final : detail::SessionEngine {
  // epoll tags: sessions get ids >= kFirstSession so the two singleton fds
  // can share the same u64 dispatch key space.
  static constexpr std::uint64_t kListenerTag = 0;
  static constexpr std::uint64_t kWakeTag = 1;
  static constexpr std::uint64_t kFirstSession = 2;

  // A session plus the socket it lives on.
  struct Connection final : Session {
    int fd = -1;
    std::uint32_t armed = 0;  // epoll event mask currently registered
    bool in_epoll = false;

    ~Connection() {
      if (fd >= 0) ::close(fd);
    }
  };

  struct Completion {
    std::uint64_t sid = 0;
    std::uint64_t ticket = 0;
    std::string line;
  };

  Listener& listener;
  const int idle_timeout_ms;
  int epfd = -1;
  int wakefd = -1;
  int reserve_fd = -1;  // closed to make room for a shedding accept on EMFILE
  std::uint64_t next_sid = kFirstSession;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> sessions;
  std::deque<std::uint64_t> parked_q;
  std::size_t parked_count = 0;

  std::mutex cq_mu;
  std::vector<Completion> cq;

  bool accepting = true;
  bool listener_armed = false;
  bool listener_failed = false;
  bool shutting_down = false;
  Clock::time_point accept_backoff_until{};
  Clock::time_point shutdown_deadline{};
  Clock::time_point last_flush{};
  Clock::time_point last_idle_scan{};
  Clock::time_point last_shed_log{};

  Impl(SessionHandler& handler, Listener& ls, std::size_t pipeline_depth, int idle_ms)
      : SessionEngine(handler, pipeline_depth), listener(ls), idle_timeout_ms(idle_ms) {
    epfd = ::epoll_create1(EPOLL_CLOEXEC);
    wakefd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (epfd < 0 || wakefd < 0) return;
    // The accept loop drains until EAGAIN, which needs a nonblocking listener.
    const int flags = ::fcntl(listener.fd(), F_GETFL, 0);
    if (flags >= 0) ::fcntl(listener.fd(), F_SETFL, flags | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &ev);
    arm_listener();
  }

  ~Impl() override {
    sessions.clear();
    if (reserve_fd >= 0) ::close(reserve_fd);
    if (wakefd >= 0) ::close(wakefd);
    if (epfd >= 0) ::close(epfd);
  }

  static Connection& conn(Session& s) { return static_cast<Connection&>(s); }

  void arm_listener() {
    if (listener_armed || listener.fd() < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, listener.fd(), &ev) == 0) {
      listener_armed = true;
    }
  }

  void disarm_listener() {
    if (!listener_armed) return;
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, listener.fd(), nullptr);
    listener_armed = false;
  }

  // ----------------------------------------------------------------- parking

  void park(Session& s) override {
    if (s.parked) return;
    s.parked = true;
    parked_q.push_back(s.sid);
    series_.parked_sessions->set(static_cast<double>(++parked_count));
    update_interest(conn(s));
  }

  void unpark(Connection& c) {
    c.parked = false;
    series_.parked_sessions->set(static_cast<double>(--parked_count));
    update_interest(c);
    process_input(c);
    update_interest(c);
    maybe_finish(c);
  }

  // FIFO unpark pass: one bounded sweep so a session that immediately
  // re-parks (global bound still tight) cannot spin the loop.
  void try_unpark() {
    std::size_t rounds = parked_q.size();
    while (rounds-- > 0 && !parked_q.empty()) {
      const std::uint64_t sid = parked_q.front();
      parked_q.pop_front();
      auto it = sessions.find(sid);
      if (it == sessions.end() || !it->second->parked) continue;  // stale
      Connection& c = *it->second;
      if (should_park(c)) {
        parked_q.push_back(sid);
        continue;
      }
      unpark(c);
    }
  }

  // ------------------------------------------------------------- epoll state

  void update_interest(Connection& c) {
    if (c.dead || !c.in_epoll) return;
    std::uint32_t want = 0;
    if (!c.closing && !c.parked && !c.read_eof) want |= EPOLLIN;
    if (c.woff < c.wbuf.size()) want |= EPOLLOUT;
    if (want == c.armed) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = c.sid;
    if (::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev) == 0) c.armed = want;
  }

  void mark_dead(Session& s) override {
    if (s.dead) return;
    SessionEngine::mark_dead(s);
    Connection& c = conn(s);
    if (c.in_epoll) {
      ::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
      c.in_epoll = false;
    }
  }

  // Destroys the session once nothing references it anymore: all dispatched
  // work completed (workers never touch sessions, but their responses must
  // land or be dropped deliberately) and the write buffer is flushed (or the
  // peer is gone). Call only in tail position — `c` is gone afterwards.
  void maybe_finish(Connection& c) {
    if (!c.closing && !c.dead) return;
    if (c.info.inflight > 0 || !c.held.empty()) return;
    if (!c.dead && c.woff < c.wbuf.size()) return;
    if (c.in_epoll) {
      ::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
      c.in_epoll = false;
    }
    if (c.parked) series_.parked_sessions->set(static_cast<double>(--parked_count));
    series_.sessions_active->add(-1);
    sessions.erase(c.sid);  // c is dangling past this line
    series_.open_sessions->set(static_cast<double>(sessions.size()));
  }

  // ------------------------------------------------------------------ accept

  void add_session(int fd) {
    auto session = std::make_unique<Connection>();
    Connection& c = *session;
    c.sid = next_sid++;
    c.fd = fd;
    c.last_frame = Clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c.sid;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return;  // the connection's dtor closes the fd
    }
    c.in_epoll = true;
    c.armed = EPOLLIN;
    series_.sessions_total->inc();
    series_.sessions_active->add(1);
    sessions.emplace(c.sid, std::move(session));
    series_.open_sessions->set(static_cast<double>(sessions.size()));
  }

  void shed_and_backoff(int err) {
    // Descriptor exhaustion: free the reserve fd, accept the waiting
    // connection into the freed slot, and close it — an immediate "no" the
    // peer can react to beats rotting in the backlog — then back off so the
    // loop spends its time on the sessions it already holds.
    if (reserve_fd >= 0) {
      ::close(reserve_fd);
      reserve_fd = -1;
      const int shed =
          ::accept4(listener.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (shed >= 0) ::close(shed);
      reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    }
    const auto now = Clock::now();
    if (now - last_shed_log >= std::chrono::seconds(1)) {
      last_shed_log = now;
      std::cerr << "serve: accept on " << listener.endpoint() << ": "
                << std::strerror(err)
                << " — shedding new connections and backing off (raise "
                   "RLIMIT_NOFILE to serve more concurrent sessions)\n";
    }
    disarm_listener();
    accept_backoff_until = now + std::chrono::milliseconds(100);
  }

  void accept_ready() {
    if (!accepting) return;
    for (int burst = 0; burst < 256; ++burst) {
      const int fd =
          ::accept4(listener.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        add_session(fd);
        continue;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        shed_and_backoff(errno);
        return;
      }
      std::cerr << "serve: accept on " << listener.endpoint()
                << " failed: " << std::strerror(errno) << "\n";
      listener_failed = true;
      disarm_listener();
      return;
    }
  }

  // ---------------------------------------------------------------- writing

  void try_flush(Connection& c) {
    if (c.dead) return;
    while (c.woff < c.wbuf.size()) {
      const ssize_t n = ::write(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff);
      if (n > 0) {
        c.woff += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      mark_dead(c);  // EPIPE/ECONNRESET: responses are undeliverable
      return;
    }
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    }
    update_interest(c);
  }

  void write(Session& s, const std::string& line) override {
    if (s.dead) return;
    s.wbuf += line;
    try_flush(conn(s));
  }

  // ----------------------------------------------------------------- reading

  void read_ready(Connection& c) {
    if (c.closing || c.dead) return;
    char buf[1 << 16];
    // Bounded burst: a firehose client yields the loop back after ~1 MiB;
    // level-triggered epoll re-delivers the rest on the next wakeup.
    for (int burst = 0; burst < 16 && !c.read_eof; ++burst) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.rbuf.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        c.read_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      mark_dead(c);
      maybe_finish(c);
      return;
    }
    process_input(c);
    update_interest(c);
    maybe_finish(c);
  }

  // ------------------------------------------------------------- completions

  // Runs on a pool worker: queue the line for the loop thread and wake it.
  void deliver(std::uint64_t sid, std::uint64_t ticket, std::string line) override {
    {
      std::lock_guard<std::mutex> lock(cq_mu);
      cq.push_back(Completion{sid, ticket, std::move(line)});
    }
    std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakefd, &one, sizeof(one));
  }

  void drain_wake() {
    std::uint64_t drained = 0;
    while (::read(wakefd, &drained, sizeof(drained)) > 0) {
    }
  }

  void drain_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(cq_mu);
      batch.swap(cq);
    }
    if (batch.empty()) return;
    for (auto& done : batch) {
      // A session outlives its work (maybe_finish waits for it), so the
      // lookup only misses after a failed loop tears everything down.
      auto it = sessions.find(done.sid);
      if (it == sessions.end()) continue;
      Connection& c = *it->second;
      complete(c, done.ticket, std::move(done.line));
      maybe_finish(c);
    }
    try_unpark();
  }

  // ------------------------------------------------------------------- ticks

  void idle_reap(Clock::time_point now) {
    if (idle_timeout_ms <= 0) return;
    const auto window = std::chrono::milliseconds(idle_timeout_ms);
    std::vector<std::uint64_t> doomed;
    for (const auto& [sid, session] : sessions) {
      const Connection& c = *session;
      if (c.closing || c.dead || c.info.inflight > 0) continue;
      if (c.woff < c.wbuf.size()) continue;
      if (now - c.last_frame >= window) doomed.push_back(sid);
    }
    for (const std::uint64_t sid : doomed) {
      auto it = sessions.find(sid);
      if (it == sessions.end()) continue;
      series_.rejects_idle->inc();
      mark_dead(*it->second);  // slowloris guard: close without a response
      maybe_finish(*it->second);
    }
  }

  // Applies `fn` to every session; `fn` may destroy the one it is given.
  template <typename Fn>
  void for_each_session(Fn fn) {
    std::vector<std::uint64_t> sids;
    sids.reserve(sessions.size());
    for (const auto& [sid, _] : sessions) sids.push_back(sid);
    for (const std::uint64_t sid : sids) {
      auto it = sessions.find(sid);
      if (it != sessions.end()) fn(*it->second);
    }
  }

  void begin_shutdown() {
    shutting_down = true;
    accepting = false;
    disarm_listener();
    // Stop reading everywhere (unprocessed input is discarded), drain
    // in-flight work, flush responses, close.
    for_each_session([this](Connection& c) {
      c.closing = true;
      c.rpos = c.rbuf.size();
      c.mode = Session::Mode::kLine;
      update_interest(c);
      maybe_finish(c);
    });
    shutdown_deadline = Clock::now() + kShutdownFlushGrace;
  }

  int compute_timeout(Clock::time_point now) const {
    int timeout = shutting_down ? 50 : 200;
    if (idle_timeout_ms > 0) {
      timeout = std::min(timeout, std::max(10, idle_timeout_ms / 4));
    }
    if (!listener_armed && accepting && !shutting_down) {
      const long long wait =
          std::chrono::duration_cast<std::chrono::milliseconds>(accept_backoff_until - now)
              .count();
      if (wait < timeout) timeout = static_cast<int>(std::max<long long>(1, wait));
    }
    return timeout;
  }

  bool run() {
    if (epfd < 0 || wakefd < 0 || listener.fd() < 0) return false;
    ::signal(SIGTERM, drain_handler);
    g_drain.store(false);
    bool failed = false;
    last_flush = last_idle_scan = Clock::now();
    epoll_event events[128];
    while (true) {
      if (!shutting_down &&
          (handler_.shutdown_requested() || g_drain.load() || listener_failed)) {
        begin_shutdown();
      }
      if (shutting_down && sessions.empty()) break;

      auto now = Clock::now();
      if (!listener_armed && accepting && !listener_failed &&
          now >= accept_backoff_until) {
        arm_listener();
      }
      const int n = ::epoll_wait(epfd, events, 128, compute_timeout(now));
      series_.loop_wakeups->inc();
      if (n < 0) {
        if (errno == EINTR) continue;  // SIGTERM lands here; checked above
        failed = true;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kListenerTag) {
          accept_ready();
          continue;
        }
        if (tag == kWakeTag) {
          drain_wake();
          continue;
        }
        auto it = sessions.find(tag);
        if (it == sessions.end()) continue;  // destroyed earlier this batch
        Connection& c = *it->second;
        const std::uint32_t ev = events[i].events;
        if (ev & EPOLLERR) {
          mark_dead(c);
          maybe_finish(c);
          continue;
        }
        if ((ev & EPOLLHUP) && c.parked) {
          // Peer fully gone while this session is parked: reading is off, so
          // the level-triggered HUP would otherwise spin the loop.
          mark_dead(c);
          maybe_finish(c);
          continue;
        }
        if (ev & EPOLLOUT) try_flush(c);
        if (sessions.find(tag) == sessions.end()) continue;
        if (ev & (EPOLLIN | EPOLLHUP)) read_ready(c);
      }
      drain_completions();

      now = Clock::now();
      if (now - last_idle_scan >= std::chrono::milliseconds(50)) {
        last_idle_scan = now;
        idle_reap(now);
      }
      if (now - last_flush >= kStoreFlushInterval) {
        last_flush = now;
        handler_.flush();
      }
      if (shutting_down && now >= shutdown_deadline) {
        // Grace expired: drop responses a non-reading peer never collected.
        for_each_session([this](Connection& c) {
          mark_dead(c);
          maybe_finish(c);
        });
        shutdown_deadline = now + kShutdownFlushGrace;
      }
    }
    // Workers capture `this` (completion queue, wakefd): never return while
    // any are still running, even on the failure path.
    handler_.pool().wait_idle();
    return !failed && !listener_failed;
  }
};

EventLoop::EventLoop(SessionHandler& handler, Listener& listener,
                     std::size_t pipeline_depth, int idle_timeout_ms)
    : impl_(std::make_unique<Impl>(handler, listener, pipeline_depth, idle_timeout_ms)) {}

EventLoop::~EventLoop() = default;

bool EventLoop::run() { return impl_->run(); }

}  // namespace bisched::engine
