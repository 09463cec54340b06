#include "proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <net/if.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Child::Child(const std::vector<std::string>& argv) {
  // Everything the child needs is built before fork(): between fork and exec
  // the child only calls async-signal-safe functions.
  std::vector<std::string> args = argv;
  std::vector<char*> cargv;
  for (std::string& a : args) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const int devnull = ::open("/dev/null", O_RDWR | O_CLOEXEC);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    if (devnull >= 0) ::close(devnull);
    throw std::runtime_error(std::string("fork: ") + std::strerror(err));
  }
  if (pid == 0) {
    if (devnull >= 0) {
      ::dup2(devnull, 0);
      ::dup2(devnull, 1);
    }
    ::dup2(fds[1], 2);
    // A harness that dies without stopping its servers takes them along.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(1);
    for (int fd = 3; fd < 1024; ++fd) ::close(fd);
    ::execv(cargv[0], cargv.data());
    const char msg[] = "perfbench: exec failed\n";
    ssize_t ignored = ::write(2, msg, sizeof(msg) - 1);
    (void)ignored;
    ::_exit(127);
  }
  ::close(fds[1]);
  if (devnull >= 0) ::close(devnull);
  pid_ = pid;
  drainer_ = std::thread(&Child::drain, this, fds[0]);
}

Child::~Child() {
  if (!reaped_) stop(0);
  if (drainer_.joinable()) drainer_.join();
}

void Child::drain(int fd) {
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(pending.substr(0, nl));
      pending.erase(0, nl + 1);
      cv_.notify_all();
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  if (!pending.empty()) lines_.push_back(pending);
  eof_ = true;
  cv_.notify_all();
}

std::string Child::wait_line(const std::function<bool(const std::string&)>& match,
                             int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t next = 0;
  for (;;) {
    for (; next < lines_.size(); ++next) {
      if (match(lines_[next])) return lines_[next];
    }
    if (eof_) return "";
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout && next >= lines_.size()) {
      return "";
    }
  }
}

void Child::stop(int timeout_ms) {
  if (reaped_) return;
  const auto poll_exit = [this](int ms) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status_, WNOHANG);
      if (r == pid_ || (r < 0 && errno == ECHILD)) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      ::usleep(2000);
    }
  };
  if (!poll_exit(timeout_ms)) {
    ::kill(pid_, SIGTERM);
    if (!poll_exit(3000)) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
      }
    }
  }
  reaped_ = true;
  if (drainer_.joinable()) drainer_.join();
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The fields of /proc/<pid>/stat after the parenthesised command name.
std::vector<std::string> stat_fields(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t close = stat.rfind(')');
  std::vector<std::string> fields;
  if (close == std::string::npos) return fields;
  std::istringstream in(stat.substr(close + 1));
  std::string f;
  while (in >> f) fields.push_back(f);
  return fields;
}

}  // namespace

double process_cpu_s(pid_t pid) {
  // After the name: state(0) ppid(1) ... utime(11) stime(12).
  const auto f = stat_fields(pid);
  if (f.size() < 13) return 0;
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (std::strtod(f[11].c_str(), nullptr) + std::strtod(f[12].c_str(), nullptr)) / ticks;
}

double process_hwm_kib(pid_t pid) {
  std::istringstream in(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0;
}

std::vector<pid_t> child_pids(pid_t pid) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    char* end = nullptr;
    const long p = std::strtol(e->d_name, &end, 10);
    if (end == e->d_name || *end != '\0') continue;
    const auto f = stat_fields(static_cast<pid_t>(p));
    if (f.size() > 1 && f[0] != "Z" && std::strtol(f[1].c_str(), nullptr, 10) == pid) {
      out.push_back(static_cast<pid_t>(p));
    }
  }
  ::closedir(dir);
  return out;
}

bool process_alive(pid_t pid) {
  const auto f = stat_fields(pid);
  return !f.empty() && f[0] != "Z";
}

double self_cpu_s() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

std::string cpu_model() {
  std::istringstream in(read_file("/proc/cpuinfo"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double steal_s() {
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  double field[8] = {};
  in >> cpu;
  for (double& f : field) in >> f;
  return field[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double load_average_1m() {
  return std::strtod(read_file("/proc/loadavg").c_str(), nullptr);
}

long time_wait_sockets() {
  long count = 0;
  for (const char* path : {"/proc/net/tcp", "/proc/net/tcp6"}) {
    std::istringstream in(read_file(path));
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string sl, local, remote, state;
      if (fields >> sl >> local >> remote >> state && state == "06") ++count;
    }
  }
  return count;
}

std::string fresh_network_namespace() {
  if (::unshare(CLONE_NEWNET) != 0) return std::string("host (") + std::strerror(errno) + ")";
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ifreq ifr{};
  std::strcpy(ifr.ifr_name, "lo");
  const bool up = fd >= 0 && ::ioctl(fd, SIOCGIFFLAGS, &ifr) == 0 &&
                  (ifr.ifr_flags |= IFF_UP, ::ioctl(fd, SIOCSIFFLAGS, &ifr) == 0);
  if (fd >= 0) ::close(fd);
  if (!up) throw std::runtime_error("cannot bring up loopback in a new network namespace");
  return "fresh";
}

}  // namespace perfbench
