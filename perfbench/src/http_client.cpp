#include "http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <ctime>

namespace perfbench {

namespace {

bool iequals_prefix(std::string_view line, std::string_view prefix) {
  if (line.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    char a = line[i];
    char b = prefix[i];
    if (a >= 'A' && a <= 'Z') a = static_cast<char>(a - 'A' + 'a');
    if (b >= 'A' && b <= 'Z') b = static_cast<char>(b - 'A' + 'a');
    if (a != b) return false;
  }
  return true;
}

}  // namespace

void ResponseParser::feed(std::string_view bytes) {
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
}

bool ResponseParser::next(Response* out) {
  if (failed_) return false;
  const std::string_view pending =
      std::string_view(buffer_).substr(consumed_);
  const std::size_t head_end = pending.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return false;
  const std::string_view head = pending.substr(0, head_end);

  // Status line: "HTTP/1.x NNN reason".
  if (head.size() < 12 || head.substr(0, 7) != "HTTP/1.") {
    failed_ = true;
    return false;
  }
  int status = 0;
  const auto [ptr, ec] =
      std::from_chars(head.data() + 9, head.data() + 12, status);
  if (ec != std::errc() || ptr != head.data() + 12 || status < 100) {
    failed_ = true;
    return false;
  }

  std::size_t body_length = 0;
  std::size_t line_start = head.find("\r\n");
  while (line_start != std::string_view::npos) {
    line_start += 2;
    std::size_t line_end = head.find("\r\n", line_start);
    const std::string_view line = head.substr(
        line_start, line_end == std::string_view::npos
                        ? std::string_view::npos
                        : line_end - line_start);
    constexpr std::string_view kLength = "content-length:";
    if (iequals_prefix(line, kLength)) {
      std::string_view value = line.substr(kLength.size());
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      const auto [p, e] = std::from_chars(
          value.data(), value.data() + value.size(), body_length);
      if (e != std::errc() || p == value.data()) {
        failed_ = true;
        return false;
      }
    }
    line_start = line_end;
  }

  const std::size_t total = head_end + 4 + body_length;
  if (pending.size() < total) return false;
  out->status = status;
  out->body.assign(pending.substr(head_end + 4, body_length));
  consumed_ += total;
  return true;
}

std::string render_request(std::string_view method, std::string_view path,
                           std::string_view body) {
  std::string out;
  out.reserve(96 + path.size() + body.size());
  out.append(method).append(" ").append(path).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty() || method == "POST") {
    out.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  out.append("\r\n").append(body);
  return out;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

Response round_trip(int fd, ResponseParser& parser, std::string_view method,
                    std::string_view path, std::string_view body,
                    double timeout_s) {
  return exchange(fd, parser, render_request(method, path, body), timeout_s);
}

Response exchange(int fd, ResponseParser& parser, std::string_view request,
                  double timeout_s) {
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    off += static_cast<std::size_t>(n);
  }
  const double deadline = now_s() + timeout_s;
  Response response;
  char chunk[65536];
  while (!parser.next(&response)) {
    if (parser.failed()) return {};
    const double left = deadline - now_s();
    if (left <= 0.0) return {};
    // Busy-poll: on a virtual machine a halted vCPU's wake-up waits for
    // the host scheduler, which would inflate the timed exchanges.
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return {};
    if (ready == 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) return {};
    parser.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
  return response;
}

double now_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
