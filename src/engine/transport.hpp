// Byte channels around the session engine (engine/serve/session.hpp).
//
//   Listener      — a bound socket the event loop accepts from
//                   (engine/serve/event_loop.hpp). Two implementations:
//     UnixListener  a unix-domain socket; unix_connect is the matching
//                   client side (CLI `client`, tests).
//     TcpListener   an AF_INET/AF_INET6 socket for `--listen=tcp:HOST:PORT`.
//                   Non-loopback bind addresses are REFUSED unless the
//                   caller passes allow_remote (the CLI's --allow-remote,
//                   which also requires an auth token).
//   FdTransport   — the client side: an owned fd grown into blocking
//                   streams by FdStreambuf (CLI `client`/`metrics`, sim
//                   replays, the router's backend attempts, tests).
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>

namespace bisched::engine {

// Duplex streambuf over one fd: buffered reads (underflow -> ::read) and
// buffered writes (sync -> full ::write loop, EINTR-safe). Callers flush
// after every frame, so a peer can drive the conversation line by line.
class FdStreambuf final : public std::streambuf {
 public:
  explicit FdStreambuf(int fd);

 protected:
  int_type underflow() override;
  int_type overflow(int_type c) override;
  int sync() override;

 private:
  bool flush_output();

  static constexpr std::size_t kBufSize = 1 << 16;
  int fd_;
  std::unique_ptr<char[]> in_buf_;
  std::unique_ptr<char[]> out_buf_;
};

// Owns the fd: closes it on destruction (the server sees EOF).
class FdTransport final {
 public:
  FdTransport(int fd, std::string peer);
  ~FdTransport();
  FdTransport(const FdTransport&) = delete;
  FdTransport& operator=(const FdTransport&) = delete;

  std::istream& in() { return in_; }
  std::ostream& out() { return out_; }
  // Human-readable peer label for log lines ("sim", "backend-0", ...).
  const std::string& peer() const { return peer_; }
  // The owned fd, for half-closes and socket options; still owned here.
  int fd() const { return fd_; }

 private:
  int fd_;
  std::string peer_;
  FdStreambuf buf_;
  std::istream in_;
  std::ostream out_;
};

// What the event loop needs from any bound socket, regardless of address
// family.
class Listener {
 public:
  virtual ~Listener() = default;

  // The bound address in --listen spelling ("unix:PATH", "tcp:HOST:PORT").
  virtual std::string endpoint() const = 0;
  // The listening fd (epoll registration + accept4); ownership stays here.
  virtual int fd() const = 0;
};

class UnixListener final : public Listener {
 public:
  // Binds + listens on `path`. A stale socket file (bind says "in use" but
  // nothing answers a connect) is unlinked and rebound; a *live* one is an
  // error. Returns nullptr with *error set on failure.
  static std::unique_ptr<UnixListener> open(const std::string& path, std::string* error);
  ~UnixListener() override;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  std::string endpoint() const override { return "unix:" + path_; }
  int fd() const override { return fd_; }
  const std::string& path() const { return path_; }

 private:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

class TcpListener final : public Listener {
 public:
  // Resolves `host` (numeric or named, IPv4 or IPv6; brackets around a
  // numeric IPv6 are accepted) and binds `port` (0 = ephemeral — read the
  // chosen one back with port()). A host that is not a loopback address is
  // refused unless `allow_remote` (the CLI grants that only together with
  // an auth token).
  // Returns nullptr with *error set on failure.
  static std::unique_ptr<TcpListener> open(const std::string& host, int port,
                                           bool allow_remote, std::string* error);
  ~TcpListener() override;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::string endpoint() const override;
  int fd() const override { return fd_; }
  int port() const { return port_; }  // actual bound port (after port 0)

 private:
  TcpListener(int fd, std::string host, int port)
      : fd_(fd), host_(std::move(host)), port_(port) {}

  int fd_;
  std::string host_;
  int port_;
};

// Client side: connects to a unix-domain socket; returns the fd, or -1 with
// *error set.
int unix_connect(const std::string& path, std::string* error);

// Client side: connects to host:port over TCP (tries every resolved
// address); returns the fd, or -1 with *error set. `connect_timeout_ms > 0`
// bounds each address attempt (nonblocking connect + poll) — the fleet
// router must not hang on a backend whose listener died mid-SYN; 0 keeps
// the classic blocking connect.
int tcp_connect(const std::string& host, int port, std::string* error,
                int connect_timeout_ms = 0);

// Arms SO_RCVTIMEO / SO_SNDTIMEO on a connected socket. A read past the
// deadline fails with EAGAIN, which FdStreambuf surfaces as EOF — exactly
// the "backend stopped answering" signal a router retry loop wants. <= 0
// leaves that direction unbounded.
void set_io_timeout(int fd, int recv_ms, int send_ms);

}  // namespace bisched::engine
