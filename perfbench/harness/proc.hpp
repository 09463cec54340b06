// Child processes and /proc readings: spawning the real CLI servers, keeping
// their stderr drained, stopping them, and reading CPU time and peak RSS of
// a process tree.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// One spawned server. Its stderr is read line by line on a thread of its
// own, so a chatty child never blocks on a full pipe; wait_line() lets the
// harness wait for a banner. The destructor kills and reaps a child that
// was not stopped, so no process outlives the harness. The constructor
// throws std::runtime_error when the child cannot be started.
class Child {
 public:
  explicit Child(const std::vector<std::string>& argv);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  // The first stderr line for which `match` returns true, waiting up to
  // timeout_ms; "" on timeout or EOF.
  std::string wait_line(const std::function<bool(const std::string&)>& match,
                        int timeout_ms);

  // Waits up to timeout_ms for the child to exit on its own, then SIGTERM,
  // then SIGKILL.
  void stop(int timeout_ms);

 private:
  void drain(int fd);

  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  bool eof_ = false;
  std::thread drainer_;
};

// User + system CPU seconds of one process (all its threads).
double process_cpu_s(pid_t pid);
// Peak resident set (VmHWM) of one process, in KiB; 0 when gone.
double process_hwm_kib(pid_t pid);
// Live direct children of `pid`, found by scanning /proc.
std::vector<pid_t> child_pids(pid_t pid);
bool process_alive(pid_t pid);

// CPU seconds used by this process so far (every thread).
double self_cpu_s();

// Host fingerprint pieces.
std::string cpu_model();
// CPU time the hypervisor gave to others while this guest wanted to run
// (the `steal` column of /proc/stat), summed over CPUs, in seconds.
double steal_s();
double load_average_1m();
// Sockets in TIME_WAIT in this network namespace (IPv4 + IPv6).
long time_wait_sockets();
// Moves the calling thread into a new network namespace with loopback up.
// Returns "fresh", or "host (<reason>)" when that is not permitted.
std::string fresh_network_namespace();

}  // namespace perfbench
