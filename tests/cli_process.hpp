// Subprocess helpers for the tests that drive the real `bisched_cli`
// (BISCHED_CLI_PATH, injected by CMake): a one-shot run, a child handle for
// lockstep stdio sessions, and a scoped background server.
//
// Every child runs in a process group of its own, so killing a router takes
// its backends down with it. No child inherits BISCHED_FAULT: a fault armed
// in the test process must not leak into a CLI child, so a child that needs
// one gets it through its environment edits.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/transport.hpp"

extern char** environ;

namespace bisched::testing {

// Environment edits applied in the child only: a value sets the variable,
// nullopt unsets it.
using EnvEdits = std::vector<std::pair<std::string, std::optional<std::string>>>;

// One forked `bisched_cli <args>`. The destructor SIGKILLs the child's
// process group and reaps it unless wait() already has.
class CliChild {
 public:
  // `in`, `out` and `err` become the child's stdio; -1 is /dev/null.
  CliChild(const std::vector<std::string>& args, const EnvEdits& env, int in, int out,
           int err) {
    // Everything is materialized before fork(): the test process may run
    // threads, so the child makes only async-signal-safe calls before exec.
    std::vector<std::string> strings{BISCHED_CLI_PATH};
    strings.insert(strings.end(), args.begin(), args.end());
    const std::size_t argc = strings.size();
    const auto edited = [&env](const char* entry) {
      if (std::strncmp(entry, "BISCHED_FAULT=", 14) == 0) return true;
      for (const auto& [name, value] : env) {
        if (std::strncmp(entry, name.c_str(), name.size()) == 0 &&
            entry[name.size()] == '=') {
          return true;
        }
      }
      return false;
    };
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
      if (!edited(*e)) strings.emplace_back(*e);
    }
    for (const auto& [name, value] : env) {
      if (value.has_value()) strings.push_back(name + "=" + *value);
    }
    std::vector<char*> argv;
    std::vector<char*> envp;
    for (std::size_t i = 0; i < strings.size(); ++i) {
      (i < argc ? argv : envp).push_back(strings[i].data());
    }
    argv.push_back(nullptr);
    envp.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ == 0) {
      ::setpgid(0, 0);
      ::signal(SIGPIPE, SIG_DFL);  // the test process ignores it
      const int null_fd = ::open("/dev/null", O_RDWR);
      ::dup2(in >= 0 ? in : null_fd, STDIN_FILENO);
      ::dup2(out >= 0 ? out : null_fd, STDOUT_FILENO);
      ::dup2(err >= 0 ? err : null_fd, STDERR_FILENO);
      for (int fd = 3; fd < 1024; ++fd) ::close(fd);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
  }

  CliChild(const CliChild&) = delete;
  CliChild& operator=(const CliChild&) = delete;

  ~CliChild() {
    if (pid_ > 0) {
      ::kill(-pid_, SIGKILL);
      wait();
    }
  }

  // The child's pid until it is reaped, then -1.
  pid_t pid() const { return pid_; }

  // Reaps the child: its exit code, or -1 when a signal ended it.
  // *max_rss_kib receives its peak resident set.
  int wait(long* max_rss_kib = nullptr) {
    if (pid_ > 0) {
      int status = 0;
      rusage usage{};
      while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      pid_ = -1;
      exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      max_rss_kib_ = usage.ru_maxrss;
    }
    if (max_rss_kib != nullptr) *max_rss_kib = max_rss_kib_;
    return exit_code_.value_or(-1);
  }

  // True once the child has exited (and is then reaped).
  bool exited() {
    if (pid_ <= 0) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) != pid_) return false;
    pid_ = -1;
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return true;
  }

  // Waits up to `timeout` for the child to exit, then SIGKILLs its group.
  int wait_or_kill(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!exited() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) ::kill(-pid_, SIGKILL);
    return wait();
  }

 private:
  pid_t pid_ = -1;
  std::optional<int> exit_code_;
  long max_rss_kib_ = -1;
};

struct CliRun {
  int exit_code = -1;
  std::string out;
  std::string err;
  long max_rss_kib = -1;
};

// Runs `bisched_cli <args>` to completion with `input` on stdin (then EOF).
inline CliRun run_cli(const std::vector<std::string>& args, const std::string& input = "",
                      const EnvEdits& env = {}) {
  ::signal(SIGPIPE, SIG_IGN);  // a child that stops reading is an EPIPE
  CliRun run;
  int in[2] = {-1, -1};
  int out[2] = {-1, -1};
  int err[2] = {-1, -1};
  if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0 ||
      ::pipe2(err, O_CLOEXEC) != 0) {
    return run;
  }
  CliChild child(args, env, in[0], out[1], err[1]);
  ::close(in[0]);
  ::close(out[1]);
  ::close(err[1]);
  ::fcntl(in[1], F_SETFL, O_NONBLOCK);
  std::size_t written = 0;
  if (input.empty()) {
    ::close(in[1]);
    in[1] = -1;
  }
  std::string* sinks[] = {&run.out, &run.err};
  int sources[] = {out[0], err[0]};
  while (sources[0] >= 0 || sources[1] >= 0) {
    pollfd fds[3] = {{sources[0], POLLIN, 0}, {sources[1], POLLIN, 0}, {in[1], POLLOUT, 0}};
    if (::poll(fds, 3, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < 2; ++i) {
      if (fds[i].revents == 0) continue;
      char buf[4096];
      const ssize_t n = ::read(sources[i], buf, sizeof buf);
      if (n > 0) {
        sinks[i]->append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        ::close(sources[i]);
        sources[i] = -1;
      }
    }
    if (fds[2].revents != 0) {
      const ssize_t n = ::write(in[1], input.data() + written, input.size() - written);
      if (n > 0) written += static_cast<std::size_t>(n);
      if (written == input.size() || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        ::close(in[1]);
        in[1] = -1;
      }
    }
  }
  if (in[1] >= 0) ::close(in[1]);
  run.exit_code = child.wait(&run.max_rss_kib);
  return run;
}

// `bisched_cli serve|route --listen=...` in the background, stderr in a
// file and stdout discarded. Ready once its "listening on ENDPOINT" banner
// is on stderr. stop() (or the destructor, whenever an ASSERT left the test
// early) sends `shutdown` to that endpoint, reaps the server, and kills its
// process group if it has not exited in time.
class CliServer {
 public:
  explicit CliServer(const std::vector<std::string>& args, const EnvEdits& env = {})
      : dir_(std::filesystem::temp_directory_path() /
             ("bisched_cli_server_" + std::to_string(::getpid()) + "_" +
              std::to_string(next_id()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const int err = ::open((dir_ / "stderr").c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    child_.emplace(args, env, -1, -1, err);
    ::close(err);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const std::string text = log();
      const auto at = text.find("listening on ");
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        const auto start = at + 13;
        endpoint_ = text.substr(start, text.find_first_of(" \n", start) - start);
        return;
      }
      if (child_->exited()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  CliServer(const CliServer&) = delete;
  CliServer& operator=(const CliServer&) = delete;

  ~CliServer() {
    stop();
    std::filesystem::remove_all(dir_);
  }

  bool ready() const { return !endpoint_.empty(); }
  pid_t pid() const { return child_->pid(); }
  // "unix:PATH" or "tcp:HOST:PORT" as the banner announced it.
  const std::string& endpoint() const { return endpoint_; }
  std::string log() const {
    std::ifstream file(dir_ / "stderr");
    std::stringstream text;
    text << file.rdbuf();
    return text.str();
  }

  // Shuts the server down; its exit code, or -1 when it had to be killed.
  int stop() {
    if (!stopped_) {
      stopped_ = true;
      std::string error;
      int fd = -1;
      if (endpoint_.rfind("unix:", 0) == 0) {
        fd = engine::unix_connect(endpoint_.substr(5), &error);
      } else if (endpoint_.rfind("tcp:", 0) == 0) {
        const auto colon = endpoint_.rfind(':');
        fd = engine::tcp_connect(endpoint_.substr(4, colon - 4),
                                 std::atoi(endpoint_.c_str() + colon + 1), &error);
      }
      if (fd >= 0) {
        const ssize_t sent = ::write(fd, "shutdown\n", 9);
        (void)sent;
        ::close(fd);
      }
      exit_code_ = child_->wait_or_kill(std::chrono::seconds(30));
    }
    return exit_code_;
  }

 private:
  static int next_id() {
    static int id = 0;
    return id++;
  }

  std::filesystem::path dir_;
  std::optional<CliChild> child_;
  std::string endpoint_;
  bool stopped_ = false;
  int exit_code_ = -1;
};

}  // namespace bisched::testing
