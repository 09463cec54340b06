#include "engine/fleet/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern char** environ;

namespace bisched::engine::fleet {
namespace {

using Clock = std::chrono::steady_clock;

int elapsed_ms(Clock::time_point since) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - since)
          .count());
}

}  // namespace

const char* to_string(BackendState s) {
  switch (s) {
    case BackendState::kStarting:
      return "starting";
    case BackendState::kRunning:
      return "running";
    case BackendState::kRespawning:
      return "respawning";
    case BackendState::kBroken:
      return "broken";
    case BackendState::kStopped:
      return "stopped";
  }
  return "?";
}

Supervisor::Supervisor(SupervisorOptions options) : options_(std::move(options)) {
  backends_.resize(options_.backends);
}

Supervisor::~Supervisor() { stop(); }

bool Supervisor::spawn_locked(std::size_t i, std::string* error) {
  Backend& b = backends_[i];

  // Everything the child needs is materialized BEFORE fork(): the parent is
  // multithreaded, so the child may only use async-signal-safe calls (dup2 /
  // close / execve) between fork and exec — no allocation.
  std::vector<std::string> args;
  args.push_back(options_.cli_path);
  args.push_back("serve");
  args.push_back("--listen=tcp:127.0.0.1:0");
  for (const std::string& a : options_.serve_args) args.push_back(a);
  if (!options_.store_dir.empty()) {
    args.push_back("--store=" + options_.store_dir + "/backend-" + std::to_string(i));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // environ + BISCHED_BACKEND_INDEX=<i> (replacing any inherited value), so
  // a backend-scoped BISCHED_FAULT spec can address exactly this slot.
  std::vector<std::string> envs;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "BISCHED_BACKEND_INDEX=", 22) != 0) envs.emplace_back(*e);
  }
  envs.push_back("BISCHED_BACKEND_INDEX=" + std::to_string(i));
  std::vector<char*> envp;
  envp.reserve(envs.size() + 1);
  for (std::string& e : envs) envp.push_back(e.data());
  envp.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (error != nullptr) *error = "pipe: " + std::string(std::strerror(errno));
    return false;
  }

  const pid_t router = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    if (error != nullptr) *error = "fork: " + std::string(std::strerror(errno));
    return false;
  }
  if (pid == 0) {
    // Child. A backend dies with its router: one killed by SIGKILL never
    // runs stop(), and its backends would keep listening under pid 1. The
    // signal fires when the *thread* that forked exits, not the process.
    // Respawns fork on the maintenance thread, which ~Router joins before
    // stop() sends its own SIGTERM; that signal is serve's drain-and-
    // checkpoint path too, so whichever lands first, shutdown runs the same.
    // The getppid() check covers a router that died before prctl ran.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != router) ::_exit(1);
    // stderr -> the relay pipe (the port banner travels this way), then drop
    // every other inherited descriptor — the router's listener, sibling
    // pipes, client sockets, however many it holds — so fleet teardown is
    // never held open by a backend's stray dup.
    ::dup2(pipe_fds[1], 2);
    ::close_range(3, ~0U, 0);
    ::execve(argv[0], argv.data(), envp.data());
    const char* msg = "supervisor: execve failed\n";
    ssize_t ignored = ::write(2, msg, std::strlen(msg));
    (void)ignored;
    ::_exit(127);
  }

  ::close(pipe_fds[1]);
  b.pid = pid;
  b.port = 0;
  b.state = BackendState::kStarting;
  b.generation++;
  b.spawned_at = Clock::now();
  b.relay = std::thread(&Supervisor::relay_loop, this, i, pipe_fds[0], b.generation);
  return true;
}

void Supervisor::relay_loop(std::size_t i, int fd, std::uint64_t generation) {
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      const std::size_t mark = line.find("listening on tcp:");
      if (mark != std::string::npos) {
        const std::size_t colon = line.rfind(':');
        const int port = colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
        std::lock_guard<std::mutex> lock(mu_);
        Backend& b = backends_[i];
        if (port > 0 && b.generation == generation && b.state == BackendState::kStarting) {
          b.port = port;
          b.state = BackendState::kRunning;
          cv_.notify_all();
        }
      }
      std::fprintf(stderr, "[backend %zu] %s\n", i, line.c_str());
    }
  }
  ::close(fd);
}

bool Supervisor::start(std::string* error) {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!spawn_locked(i, error)) return false;
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(options_.spawn_wait_ms);
  const bool up = cv_.wait_until(lock, deadline, [this] {
    for (const Backend& b : backends_) {
      if (b.state != BackendState::kRunning) return false;
    }
    return true;
  });
  if (!up && error != nullptr) {
    *error = "backends failed to start:";
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (backends_[i].state != BackendState::kRunning) {
        *error += " " + std::to_string(i) + "(" + to_string(backends_[i].state) + ")";
      }
    }
  }
  return up;
}

// Reaps a dead backend and decides its future: backoff respawn, or kBroken
// once the quick-death storm limit trips. The relay thread is handed back to
// the caller to join outside mu_ (it takes mu_ itself on the banner path).
void Supervisor::note_death_locked(std::size_t i, std::thread* relay_out) {
  Backend& b = backends_[i];
  const int lifetime = elapsed_ms(b.spawned_at);
  if (lifetime < options_.storm_quick_death_ms) {
    b.quick_deaths++;
    b.backoff_ms = b.backoff_ms == 0 ? options_.backoff_initial_ms
                                     : std::min(b.backoff_ms * 2, options_.backoff_max_ms);
  } else {
    b.quick_deaths = 0;
    b.backoff_ms = options_.backoff_initial_ms;
  }
  b.pid = -1;
  b.port = 0;
  if (relay_out != nullptr && b.relay.joinable()) *relay_out = std::move(b.relay);
  if (b.quick_deaths >= options_.storm_limit) {
    b.state = BackendState::kBroken;
    breaker_trips_++;
    std::fprintf(stderr,
                 "supervisor: backend %zu died %d times in under %dms each; "
                 "circuit breaker open, giving up on this slot\n",
                 i, b.quick_deaths, options_.storm_quick_death_ms);
  } else {
    b.state = BackendState::kRespawning;
    b.respawn_at = Clock::now() + std::chrono::milliseconds(b.backoff_ms);
  }
}

void Supervisor::poll() {
  std::vector<std::thread> joins;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      Backend& b = backends_[i];
      if (b.pid > 0) {
        int status = 0;
        if (::waitpid(b.pid, &status, WNOHANG) == b.pid) {
          std::thread relay;
          note_death_locked(i, &relay);
          if (relay.joinable()) joins.push_back(std::move(relay));
        }
      } else if (b.state == BackendState::kRespawning && Clock::now() >= b.respawn_at) {
        std::string error;
        if (spawn_locked(i, &error)) {
          respawns_++;
        } else {
          std::fprintf(stderr, "supervisor: respawn of backend %zu failed: %s\n", i,
                       error.c_str());
          b.respawn_at = Clock::now() + std::chrono::milliseconds(options_.backoff_max_ms);
        }
      }
    }
  }
  for (std::thread& t : joins) t.join();
}

void Supervisor::stop() {
  std::vector<std::thread> joins;
  std::vector<pid_t> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    for (Backend& b : backends_) {
      if (b.pid > 0) {
        ::kill(b.pid, SIGTERM);  // serve drains sessions and checkpoints
        live.push_back(b.pid);
      }
      if (b.relay.joinable()) joins.push_back(std::move(b.relay));
      b.state = BackendState::kStopped;
      b.port = 0;
    }
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(3000);
  for (pid_t pid : live) {
    for (;;) {
      int status = 0;
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      if (got == pid || got < 0) break;
      if (Clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (std::thread& t : joins) t.join();
}

std::size_t Supervisor::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return backends_.size();
}

BackendState Supervisor::state(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return i < backends_.size() ? backends_[i].state : BackendState::kStopped;
}

int Supervisor::port(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= backends_.size()) return 0;
  return backends_[i].state == BackendState::kRunning ? backends_[i].port : 0;
}

pid_t Supervisor::pid(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return i < backends_.size() ? backends_[i].pid : -1;
}

std::uint64_t Supervisor::generation(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return i < backends_.size() ? backends_[i].generation : 0;
}

std::uint64_t Supervisor::respawns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return respawns_;
}

std::uint64_t Supervisor::breaker_trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_trips_;
}

}  // namespace bisched::engine::fleet
