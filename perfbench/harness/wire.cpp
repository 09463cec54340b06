#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

namespace perfbench {

std::unique_ptr<Conn> Conn::connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return nullptr;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect unix:" + path + ": " + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<Conn>(new Conn(fd));
}

std::unique_ptr<Conn> Conn::connect_tcp(int port, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect tcp:127.0.0.1:" + std::to_string(port) + ": " + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Conn>(new Conn(fd));
}

Conn::~Conn() { ::close(fd_); }

bool Conn::send(const iovec* parts, int count) {
  std::vector<iovec> v(parts, parts + count);
  std::size_t first = 0;
  while (first < v.size()) {
    const ssize_t n = ::writev(fd_, v.data() + first, static_cast<int>(v.size() - first));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto left = static_cast<std::size_t>(n);
    while (first < v.size() && left >= v[first].iov_len) {
      left -= v[first].iov_len;
      ++first;
    }
    if (first < v.size()) {
      v[first].iov_base = static_cast<char*>(v[first].iov_base) + left;
      v[first].iov_len -= left;
    }
  }
  return true;
}

bool Conn::send(std::string_view bytes) {
  iovec part{const_cast<char*>(bytes.data()), bytes.size()};
  return send(&part, 1);
}

bool Conn::read_line(std::string* line, Clock::time_point* first_byte, int timeout_ms) {
  bool seen = pos_ < buf_.size();
  if (seen && first_byte != nullptr) *first_byte = Clock::now();
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (!seen) {
      seen = true;
      if (first_byte != nullptr) *first_byte = Clock::now();
    }
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Conn::exchange(const std::string& frame, std::string* line) {
  return send(frame + "\n") && read_line(line);
}

}  // namespace perfbench
