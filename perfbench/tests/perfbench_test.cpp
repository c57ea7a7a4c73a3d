// Unit tests for the benchmark's own code: the percentile reporting rule,
// response framing across split reads and pipelined responses, and the
// open-loop generator's due-time accounting.
//
//   .bench_build/perfbench_test     (exit 0 = all passed)
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "http_client.h"
#include "loadgen.h"
#include "stats.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

void test_percentile_rule() {
  // p99 of 1000 samples sits at rank 990: exactly ten samples beyond.
  Percentile p = percentile(ramp(1000), 0.99);
  CHECK(p.value == 990.0);
  CHECK(p.beyond == 10);
  CHECK(p.reportable);
  // One sample fewer leaves only nine beyond: not reportable.
  p = percentile(ramp(999), 0.99);
  CHECK(p.beyond == 9);
  CHECK(!p.reportable);
  // The median needs twenty samples.
  CHECK(percentile(ramp(20), 0.5).reportable);
  CHECK(percentile(ramp(20), 0.5).value == 10.0);
  CHECK(!percentile(ramp(19), 0.5).reportable);
  CHECK(!percentile({}, 0.5).reportable);

  // Sliced form: ten slices of 500; one slice of stalls is trimmed and
  // does not move the result; each slice keeps ten samples beyond its
  // rank.
  std::vector<double> stream;
  for (std::size_t slice = 0; slice < 10; ++slice) {
    for (std::size_t i = 0; i < 500; ++i) {
      stream.push_back(slice == 3 ? 100.0 : static_cast<double>(i % 100));
    }
  }
  const Percentile sliced = sliced_percentile(stream, 0.99);
  CHECK(sliced.reportable);
  CHECK(sliced.samples == 5000);
  CHECK(sliced.value == 98.0);
  CHECK(sliced.beyond >= kMinBeyond);
  CHECK(percentile(stream, 0.99).value == 100.0);
  // Too few samples for two slices falls back to the plain percentile.
  CHECK(sliced_percentile(ramp(1500), 0.99).value ==
        percentile(ramp(1500), 0.99).value);

  // Histogram buckets: rank 99 of 100 lands in the second bucket.
  CHECK(bucket_percentile({1, 2, 4}, {98, 1, 1}, 0.99) == 2.0);
  CHECK(bucket_percentile({1, 2, 4}, {0, 0, 0}, 0.99) == 0.0);
  CHECK(median({3.0, 1.0, 2.0, 10.0}) == 2.5);
  CHECK(trimmed_mean({3.0, 1.0, 2.0, 10.0}) == 2.5);
  CHECK(trimmed_mean({4.0, 2.0}) == 3.0);
  CHECK(trimmed_mean({}) == 0.0);
}

void test_response_framing() {
  const std::string stream =
      "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n"
      "Content-Length: 14\r\n\r\n{\"accepted\":4}"
      "HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\n\r\nno"
      "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
  // Every split point of the stream into two reads.
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    ResponseParser parser;
    std::vector<Response> got;
    Response r;
    parser.feed(std::string_view(stream).substr(0, cut));
    while (parser.next(&r)) got.push_back(r);
    parser.feed(std::string_view(stream).substr(cut));
    while (parser.next(&r)) got.push_back(r);
    CHECK(!parser.failed());
    CHECK(got.size() == 3);
    if (got.size() != 3) continue;
    CHECK(got[0].status == 202 && got[0].body == "{\"accepted\":4}");
    CHECK(got[1].status == 429 && got[1].body == "no");
    CHECK(got[2].status == 200 && got[2].body.empty());
  }
  // Byte-at-a-time delivery.
  ResponseParser parser;
  std::size_t count = 0;
  Response r;
  for (const char c : stream) {
    parser.feed(std::string_view(&c, 1));
    while (parser.next(&r)) ++count;
  }
  CHECK(count == 3);
  // A malformed status line poisons the stream.
  ResponseParser bad;
  bad.feed("SMTP/1.0 hello\r\n\r\n");
  CHECK(!bad.next(&r));
  CHECK(bad.failed());
}

// A fake server on one end of a socket pair: answers each request with a
// 200, sleeping `stall_s` before the answer to request `stall_at`.
void serve(int fd, std::size_t requests, std::size_t stall_at,
           double stall_s) {
  std::string buffer;
  char chunk[4096];
  std::size_t answered = 0;
  while (answered < requests) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t end;
    while ((end = buffer.find("\r\n\r\n")) != std::string::npos) {
      buffer.erase(0, end + 4);
      if (answered == stall_at) {
        std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
      }
      const std::string reply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
      if (::write(fd, reply.data(), reply.size()) < 0) return;
      ++answered;
    }
  }
}

void test_due_time_accounting() {
  constexpr std::size_t kRequests = 40;
  constexpr std::size_t kStallAt = 10;
  constexpr double kStall = 0.08;
  constexpr double kPeriod = 0.002;
  int sv[2];
  CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
  std::thread server(serve, sv[1], kRequests, kStallAt, kStall);
  set_nonblocking(sv[0]);

  const std::string request = render_request("GET", "/healthz");
  std::size_t issued = 0;
  std::vector<Completion> completions(kRequests);
  const int fds[] = {sv[0]};
  const LoopResult result = run_open_loop(
      fds,
      [&](Planned* p) {
        if (issued == kRequests) return false;
        p->due = kPeriod * static_cast<double>(issued);
        p->conn = 0;
        p->bytes = &request;
        p->tag = issued++;
        return true;
      },
      [&](Completion& c) { completions[c.tag] = c; }, now_s() + 0.01, 5.0);
  server.join();
  ::close(sv[0]);
  ::close(sv[1]);

  CHECK(result.completed == kRequests);
  CHECK(result.failed == 0);
  for (const Completion& c : completions) CHECK(c.status == 200);
  // The stalled request and every request due during the stall pay for it:
  // their latency, measured from the due time, covers what is left of the
  // stall when they fell due, although each was written on schedule.
  const std::size_t stall_ticks = static_cast<std::size_t>(kStall / kPeriod);
  for (std::size_t i = kStallAt; i < kStallAt + stall_ticks / 2; ++i) {
    const Completion& c = completions[i];
    const double left = kStall - kPeriod * static_cast<double>(i - kStallAt);
    CHECK(c.done - c.due >= left - 0.005);
    CHECK(c.sent - c.due < 0.02);
  }
  // Requests before the stall were not charged for it.
  for (std::size_t i = 0; i + 1 < kStallAt; ++i) {
    CHECK(completions[i].done - completions[i].due < kStall / 2);
  }
}

}  // namespace

int main() {
  test_percentile_rule();
  test_response_framing();
  test_due_time_accounting();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
