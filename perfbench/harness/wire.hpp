// The load generator's side of a connection: one blocking socket, frames
// written with writev, response lines read through a private buffer. It is
// written against the sockets API directly so that the client does not
// change when the program's transport layer does.
#pragma once

#include <sys/uio.h>

#include <memory>
#include <string>
#include <string_view>

#include "util.hpp"

namespace perfbench {

class Conn {
 public:
  // Unix-domain socket at `path`, or TCP to 127.0.0.1:port. nullptr + *error
  // on failure.
  static std::unique_ptr<Conn> connect_unix(const std::string& path, std::string* error);
  static std::unique_ptr<Conn> connect_tcp(int port, std::string* error);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool send(const iovec* parts, int count);
  bool send(std::string_view bytes);
  // One response line without its '\n'. `first_byte`, when non-null,
  // receives the time the first byte of the line arrived. False on EOF,
  // error or after timeout_ms without progress.
  bool read_line(std::string* line, Clock::time_point* first_byte = nullptr,
                 int timeout_ms = 60000);
  // Sends `frame` (newline added) and reads one line back.
  bool exchange(const std::string& frame, std::string* line);

 private:
  explicit Conn(int fd) : fd_(fd) {}
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
