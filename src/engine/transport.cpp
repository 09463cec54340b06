#include "engine/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace bisched::engine {

namespace {

// Fills a sockaddr_un; false when the path exceeds sun_path (no silent
// truncation into some other socket).
bool make_address(const std::string& path, sockaddr_un* addr, std::string* error) {
  if (path.size() >= sizeof(addr->sun_path)) {
    if (error != nullptr) {
      *error = "socket path '" + path + "' is too long (max " +
               std::to_string(sizeof(addr->sun_path) - 1) + " bytes)";
    }
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

// ------------------------------------------------------------ FdStreambuf ---

FdStreambuf::FdStreambuf(int fd)
    : fd_(fd), in_buf_(new char[kBufSize]), out_buf_(new char[kBufSize]) {
  setg(in_buf_.get(), in_buf_.get(), in_buf_.get());
  setp(out_buf_.get(), out_buf_.get() + kBufSize);
}

FdStreambuf::int_type FdStreambuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  ssize_t n;
  do {
    n = ::read(fd_, in_buf_.get(), kBufSize);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return traits_type::eof();
  setg(in_buf_.get(), in_buf_.get(), in_buf_.get() + n);
  return traits_type::to_int_type(*gptr());
}

bool FdStreambuf::flush_output() {
  const char* data = pbase();
  std::size_t left = static_cast<std::size_t>(pptr() - pbase());
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  setp(out_buf_.get(), out_buf_.get() + kBufSize);
  return true;
}

FdStreambuf::int_type FdStreambuf::overflow(int_type c) {
  if (!flush_output()) return traits_type::eof();
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(c);
    pbump(1);
  }
  return traits_type::not_eof(c);
}

int FdStreambuf::sync() { return flush_output() ? 0 : -1; }

// ------------------------------------------------------------ FdTransport ---

FdTransport::FdTransport(int fd, std::string peer)
    : fd_(fd), peer_(std::move(peer)), buf_(fd), in_(&buf_), out_(&buf_) {}

FdTransport::~FdTransport() {
  out_.flush();
  ::close(fd_);
}

// ------------------------------------------------------------ UnixListener ---

std::unique_ptr<UnixListener> UnixListener::open(const std::string& path,
                                                 std::string* error) {
  sockaddr_un addr;
  if (!make_address(path, &addr, error)) return nullptr;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  int rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EADDRINUSE) {
    // Distinguish a live server from a stale socket file left by a crashed
    // process: if the path holds a *socket* nobody answers on, unlink and
    // rebind. Anything that is not a socket (a user's regular file at a
    // mistyped --listen path) is never deleted.
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0 || !S_ISSOCK(st.st_mode)) {
      ::close(fd);
      if (error != nullptr) {
        *error = "'" + path + "' exists and is not a socket";
      }
      return nullptr;
    }
    std::string probe_error;
    const int probe = unix_connect(path, &probe_error);
    if (probe >= 0) {
      ::close(probe);
      ::close(fd);
      if (error != nullptr) *error = "'" + path + "' already has a live server";
      return nullptr;
    }
    ::unlink(path.c_str());
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0) {
    if (error != nullptr) {
      *error = "bind '" + path + "': " + std::strerror(errno);
    }
    ::close(fd);
    return nullptr;
  }
  if (::listen(fd, 64) != 0) {
    if (error != nullptr) {
      *error = "listen '" + path + "': " + std::strerror(errno);
    }
    ::close(fd);
    ::unlink(path.c_str());
    return nullptr;
  }
  return std::unique_ptr<UnixListener>(new UnixListener(fd, path));
}

UnixListener::~UnixListener() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

// ------------------------------------------------------------ TcpListener ---

namespace {

// Loopback test on a resolved address. v4: 127.0.0.0/8. v6: ::1, plus the
// v4-mapped form of 127/8 (::ffff:127.x.y.z) so "localhost" resolving
// through a mapped A record still counts as local.
bool is_loopback(const sockaddr* addr) {
  if (addr->sa_family == AF_INET) {
    const auto* v4 = reinterpret_cast<const sockaddr_in*>(addr);
    return (ntohl(v4->sin_addr.s_addr) >> 24) == 127;
  }
  if (addr->sa_family == AF_INET6) {
    const auto* v6 = reinterpret_cast<const sockaddr_in6*>(addr);
    if (IN6_IS_ADDR_LOOPBACK(&v6->sin6_addr)) return true;
    if (IN6_IS_ADDR_V4MAPPED(&v6->sin6_addr)) {
      return v6->sin6_addr.s6_addr[12] == 127;
    }
  }
  return false;
}

// getaddrinfo over a possibly-bracketed host. `passive` = resolve for bind.
addrinfo* resolve_tcp(const std::string& host, int port, bool passive,
                      std::string* error) {
  std::string bare = host;
  if (bare.size() >= 2 && bare.front() == '[' && bare.back() == ']') {
    bare = bare.substr(1, bare.size() - 2);
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo* found = nullptr;
  const int rc =
      ::getaddrinfo(bare.c_str(), std::to_string(port).c_str(), &hints, &found);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "cannot resolve '" + host + "': " + ::gai_strerror(rc);
    }
    return nullptr;
  }
  return found;
}

}  // namespace

std::unique_ptr<TcpListener> TcpListener::open(const std::string& host, int port,
                                               bool allow_remote, std::string* error) {
  addrinfo* addresses = resolve_tcp(host, port, /*passive=*/true, error);
  if (addresses == nullptr) return nullptr;

  int fd = -1;
  std::string last_error = "no usable address for '" + host + "'";
  for (const addrinfo* ai = addresses; ai != nullptr; ai = ai->ai_next) {
    // The loopback guard: every candidate address is checked, so a hostname
    // that resolves to anything non-loopback cannot slip a public bind in.
    if (!allow_remote && !is_loopback(ai->ai_addr)) {
      last_error = "refusing non-loopback bind on '" + host +
                   "' (exposing serve needs --allow-remote and an auth token, "
                   "--auth-token=T or $BISCHED_AUTH_TOKEN)";
      continue;
    }
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 || ::listen(fd, 64) != 0) {
      last_error = "bind/listen '" + host + ":" + std::to_string(port) +
                   "': " + std::strerror(errno);
      ::close(fd);
      fd = -1;
      continue;
    }
    break;
  }
  ::freeaddrinfo(addresses);
  if (fd < 0) {
    if (error != nullptr) *error = last_error;
    return nullptr;
  }

  // Read the actual port back: with port 0 the kernel picked one, and the
  // caller (CLI banner, tests) needs it to hand to clients.
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  int actual_port = port;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    if (bound.ss_family == AF_INET) {
      actual_port = ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      actual_port = ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  return std::unique_ptr<TcpListener>(new TcpListener(fd, host, actual_port));
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::string TcpListener::endpoint() const {
  return "tcp:" + host_ + ":" + std::to_string(port_);
}

namespace {

// One bounded connect attempt: nonblocking connect, poll for writability,
// then read the outcome back with SO_ERROR. Restores blocking mode on
// success so the FdStreambuf read/write loops behave as usual.
int connect_with_timeout(int fd, const sockaddr* addr, socklen_t addrlen,
                         int timeout_ms, std::string* why) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    *why = std::string("fcntl: ") + std::strerror(errno);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, addr, addrlen);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    *why = std::strerror(errno);
    return -1;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      *why = ready == 0 ? "timed out" : std::strerror(errno);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      *why = std::strerror(err != 0 ? err : errno);
      return -1;
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    *why = std::string("fcntl: ") + std::strerror(errno);
    return -1;
  }
  return 0;
}

}  // namespace

int tcp_connect(const std::string& host, int port, std::string* error,
                int connect_timeout_ms) {
  addrinfo* addresses = resolve_tcp(host, port, /*passive=*/false, error);
  if (addresses == nullptr) return -1;
  std::string last_error = "no usable address for '" + host + "'";
  int fd = -1;
  for (const addrinfo* ai = addresses; ai != nullptr && fd < 0; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    int rc;
    std::string why;
    if (connect_timeout_ms > 0) {
      rc = connect_with_timeout(fd, ai->ai_addr, ai->ai_addrlen, connect_timeout_ms,
                                &why);
    } else {
      do {
        rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
      } while (rc != 0 && errno == EINTR);
      if (rc != 0) why = std::strerror(errno);
    }
    if (rc != 0) {
      last_error = "connect '" + host + ":" + std::to_string(port) + "': " + why;
      ::close(fd);
      fd = -1;
    }
  }
  ::freeaddrinfo(addresses);
  if (fd < 0 && error != nullptr) *error = last_error;
  return fd;
}

int unix_connect(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!make_address(path, &addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "connect '" + path + "': " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

void set_io_timeout(int fd, int recv_ms, int send_ms) {
  const auto to_timeval = [](int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    return tv;
  };
  if (recv_ms > 0) {
    const timeval tv = to_timeval(recv_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (send_ms > 0) {
    const timeval tv = to_timeval(send_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
}

}  // namespace bisched::engine
