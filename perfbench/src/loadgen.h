// Open-loop load generator core: one thread, one busy-polling ppoll()
// loop, a fixed schedule of requests pipelined over a handful of
// keep-alive connections.
//
// Every request has a due time on the schedule.  It is written as soon as
// it is due, whatever is still outstanding, and its latency is measured
// from the due time to the last byte of its response — so a stall in the
// server (or in the generator itself) is charged to every request queued
// behind it, not hidden by a client that waits before sending.  How late
// each request actually went out is reported separately (`sent - due`).
//
// Responses on one connection come back in request order (HTTP/1.1
// pipelining), so completions are matched FIFO per connection; a caller
// that binds each campaign to one connection keeps the server's
// per-campaign apply order equal to the send order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

namespace perfbench {

struct Planned {
  double due = 0.0;                    // seconds after the schedule origin
  std::size_t conn = 0;                // index into the connection list
  const std::string* bytes = nullptr;  // whole request; caller keeps it alive
  std::uint64_t tag = 0;               // echoed back in the completion
};

struct Completion {
  std::uint64_t tag = 0;
  double due = 0.0;   // schedule time (origin-relative seconds)
  double sent = 0.0;  // last request byte handed to the kernel
  double done = 0.0;  // last response byte read
  int status = 0;     // HTTP status; 0 = connection error or timeout
  std::string body;
};

struct LoopResult {
  std::size_t completed = 0;  // responses received
  std::size_t failed = 0;     // connection errors, timeouts, bad framing
};

// Runs the schedule produced by `next` (which must yield non-decreasing
// due times and return false when exhausted) over the non-blocking
// sockets `fds`, calling `done` once per request.  `origin` is the
// absolute now_s() time of due = 0.  Requests still unanswered
// `timeout_s` after the last due time complete with status 0.
LoopResult run_open_loop(std::span<const int> fds,
                         const std::function<bool(Planned*)>& next,
                         const std::function<void(Completion&)>& done,
                         double origin, double timeout_s);

}  // namespace perfbench
