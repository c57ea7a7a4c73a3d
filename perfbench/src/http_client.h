// Minimal HTTP/1.1 client side for the load generator: request rendering,
// an incremental response parser that copes with responses split across
// reads and with several pipelined responses in one read, and blocking
// helpers for the untimed set-up and check phases.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct Response {
  int status = 0;  // 0 = no response (connection error or timeout)
  std::string body;
};

// Push-driven parser for a stream of Content-Length framed responses.
class ResponseParser {
 public:
  void feed(std::string_view bytes);
  // Extracts the next complete response; false when more bytes are needed
  // or the stream is malformed (then failed() is true and stays true).
  bool next(Response* out);
  bool failed() const { return failed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool failed_ = false;
};

// "METHOD PATH HTTP/1.1" with Host and Content-Length headers and `body`.
std::string render_request(std::string_view method, std::string_view path,
                           std::string_view body = {});

// Blocking TCP connect to 127.0.0.1:port with TCP_NODELAY; -1 on failure.
int connect_loopback(std::uint16_t port);
void set_nonblocking(int fd);

// One blocking exchange of pre-rendered request bytes on `fd`; status 0 on
// I/O error or when no response arrives within `timeout_s`.
Response exchange(int fd, ResponseParser& parser, std::string_view request,
                  double timeout_s = 30.0);

// render_request + exchange.
Response round_trip(int fd, ResponseParser& parser, std::string_view method,
                    std::string_view path, std::string_view body = {},
                    double timeout_s = 30.0);

// Monotonic clock in seconds.
double now_s();

}  // namespace perfbench
