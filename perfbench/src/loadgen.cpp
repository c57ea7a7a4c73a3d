#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <deque>
#include <vector>

#include "http_client.h"

namespace perfbench {

namespace {

struct Inflight {
  Planned planned;
  std::uint64_t end_offset = 0;  // stream offset just past the request
  double sent = -1.0;
};

struct Connection {
  int fd = -1;
  bool dead = false;
  std::string out;              // bytes not yet written
  std::uint64_t written = 0;    // stream offset of out[0]
  std::uint64_t appended = 0;   // stream offset past the last appended byte
  std::deque<Inflight> inflight;
  ResponseParser parser;
};

}  // namespace

LoopResult run_open_loop(std::span<const int> fds,
                         const std::function<bool(Planned*)>& next,
                         const std::function<void(Completion&)>& done,
                         double origin, double timeout_s) {
  std::vector<Connection> conns(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) conns[i].fd = fds[i];

  LoopResult result;
  const auto rel_now = [origin] { return now_s() - origin; };
  const auto fail = [&](const Planned& p, double sent, double at) {
    Completion c;
    c.tag = p.tag;
    c.due = p.due;
    c.sent = sent;
    c.done = at;
    ++result.failed;
    done(c);
  };
  const auto kill = [&](Connection& conn, double at) {
    conn.dead = true;
    for (const Inflight& f : conn.inflight) fail(f.planned, f.sent, at);
    conn.inflight.clear();
    conn.out.clear();
  };

  Planned pending;
  bool have_pending = next(&pending);
  double last_due = have_pending ? pending.due : 0.0;
  std::vector<pollfd> pfds(conns.size());
  std::vector<char> chunk(1 << 16);

  while (true) {
    double now = rel_now();
    // 1. Hand every due request to its connection's output buffer.
    while (have_pending && pending.due <= now) {
      Connection& conn = conns[pending.conn];
      if (conn.dead) {
        fail(pending, now, now);
      } else {
        conn.out.append(*pending.bytes);
        conn.appended += pending.bytes->size();
        conn.inflight.push_back({pending, conn.appended, -1.0});
      }
      last_due = pending.due;
      have_pending = next(&pending);
    }

    // 2. Write eagerly; stamp requests whose last byte left.
    for (Connection& conn : conns) {
      while (!conn.dead && !conn.out.empty()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data(), conn.out.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
          kill(conn, rel_now());
          break;
        }
        conn.out.erase(0, static_cast<std::size_t>(n));
        conn.written += static_cast<std::uint64_t>(n);
      }
      if (conn.dead) continue;
      const double stamp = rel_now();
      for (Inflight& f : conn.inflight) {
        if (f.sent >= 0.0) continue;
        if (f.end_offset > conn.written) break;
        f.sent = stamp;
      }
    }

    bool outstanding = false;
    for (const Connection& conn : conns) {
      if (!conn.inflight.empty()) outstanding = true;
    }
    if (!have_pending && !outstanding) break;
    now = rel_now();
    if (!have_pending && now > last_due + timeout_s) {
      for (Connection& conn : conns) {
        for (const Inflight& f : conn.inflight) fail(f.planned, f.sent, now);
        conn.inflight.clear();
      }
      break;
    }

    // 3. Poll the sockets without sleeping: a sleeping vCPU is halted,
    // and on a virtual machine its wake-up waits for the host scheduler,
    // which would show up as generator lag.  Spinning keeps the
    // generator's core awake.
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].dead ? -1 : conns[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    timespec ts{};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;

    // 4. Read, match responses FIFO per connection.
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& conn = conns[i];
      if (conn.dead || pfds[i].revents == 0) continue;
      if ((pfds[i].revents & POLLIN) == 0 &&
          (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        kill(conn, rel_now());
        continue;
      }
      if ((pfds[i].revents & POLLIN) == 0) continue;
      while (true) {
        const ssize_t n = ::read(conn.fd, chunk.data(), chunk.size());
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
          kill(conn, rel_now());
          break;
        }
        conn.parser.feed(
            std::string_view(chunk.data(), static_cast<std::size_t>(n)));
        const double at = rel_now();
        Response response;
        while (conn.parser.next(&response)) {
          if (conn.inflight.empty()) {  // unsolicited response
            kill(conn, at);
            break;
          }
          Inflight f = std::move(conn.inflight.front());
          conn.inflight.pop_front();
          Completion c;
          c.tag = f.planned.tag;
          c.due = f.planned.due;
          c.sent = f.sent >= 0.0 ? f.sent : at;
          c.done = at;
          c.status = response.status;
          c.body = std::move(response.body);
          ++result.completed;
          done(c);
        }
        if (conn.parser.failed()) {
          kill(conn, at);
          break;
        }
        if (conn.dead) break;
      }
    }
  }
  return result;
}

}  // namespace perfbench
