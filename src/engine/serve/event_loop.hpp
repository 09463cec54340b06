// The socket runner of the session engine (engine/serve/session.hpp): one
// epoll readiness loop serves every connection of a listener, so a session
// is cheap heap state — an fd, a read buffer, a write buffer and the frame
// machine — and exactly one thread does all the IO:
//
//   epoll_wait ─┬─ listener readable  → accept4(NONBLOCK), register session
//               ├─ session readable   → append to rbuf → frame machine
//               │                       → handler.classify → dispatch
//               ├─ completion eventfd → drain the finished-work queue, write
//               │                       lines in per-session ticket order,
//               │                       unpark readers
//               └─ session writable   → resume a partial response write
//
// The handler's pool stays the only compute pool: the loop classifies a
// frame and submits its work; the worker renders the line and hands it back
// over an eventfd. Because the loop never blocks on one client, a client may
// pipeline frames, and work lines come back in send order.
//
// Admission is backpressure, not a session cap: a parked session has its
// EPOLLIN interest dropped and its bytes left in the kernel buffer, so the
// TCP window does the rest. EMFILE/ENFILE on accept backs off and sheds via
// a reserve fd instead of exiting, and a nonzero idle timeout reaps sessions
// that complete no frame in time (slowloris), counted as
// bisched_serve_rejects_total{reason="idle-timeout"}. The loop also calls
// the handler's periodic flush and drains on SIGTERM. docs/serve.md walks
// the architecture.
#pragma once

#include <cstddef>
#include <memory>

namespace bisched::engine {

class Listener;
class SessionHandler;

class EventLoop {
 public:
  // Serves `listener` through `handler`. pipeline_depth 0 = 64 frames of
  // work per session; idle_timeout_ms 0 = never reap.
  EventLoop(SessionHandler& handler, Listener& listener, std::size_t pipeline_depth = 0,
            int idle_timeout_ms = 0);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Runs until a `shutdown` frame, SIGTERM, or listener failure; drains
  // in-flight work and flushes session write queues before returning.
  // False = the loop stopped because the listener (or the loop's own epoll
  // plumbing) failed, not because shutdown was requested.
  bool run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bisched::engine
