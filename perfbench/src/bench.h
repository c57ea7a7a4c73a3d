// Shared types of the perfbench program: parsed options, the run result it
// prints, and the span recorder of the traced mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string server_bin;  // sybiltd_server binary (serving workloads)
  std::string trace_dir;   // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 = not a sampled statistic
  std::string source;       // span or counter the value comes from
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // check outcomes and run notes
  // Machine and run context: key -> JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> context;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
    notes.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
  }
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string source = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       std::move(source)});
  }
  // A percentile metric; an unreportable one (fewer than kMinBeyond
  // samples beyond its rank) fails the run, since the workload is sized
  // so that it never happens.
  void add_percentile(const std::string& name, const Percentile& p,
                      double scale, const std::string& unit) {
    if (!p.reportable) {
      correct = false;
      notes.push_back("CHECK FAILED: " + name + " has only " +
                      std::to_string(p.beyond) + " samples beyond its rank");
    }
    add(name, p.value * scale, unit, p.samples);
  }
  void set_context(const std::string& key, const std::string& json) {
    context.emplace_back(key, json);
  }
};

std::string json_string(const std::string& text);

// A JSON array of numbers, for the run context.
template <typename T>
std::string json_list(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::to_string(values[i]);
  }
  return out + "]";
}

// A numeric field ("VmHWM:", ...) of a /proc/<pid>/status file, or 0.
double status_field(const std::string& path, const std::string& key);

// Peak resident set (VmHWM) of process `pid` ("self" for this one), MB.
double peak_rss_mb(const std::string& pid);

// In-memory span recorder for the traced run.  Single-threaded: spans are
// recorded from the benchmark's own thread around calls into the layers.
// A span's self time is its duration minus the time its direct children
// cover.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
    bool active_;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  Totals totals(const std::string& name) const;
  std::size_t size() const { return spans_.size(); }

  // A disabled tracer records nothing: the same code runs once without
  // spans to measure the tracing overhead.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Chrome trace-event JSON (one complete event per span), at most
  // `max_spans` of them.
  bool write(const std::string& path, std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
  bool enabled_ = true;
};

std::uint64_t monotonic_ns();

// Per-workload entry points.  Each fills a RunResult with either the
// end-to-end metrics (options.trace == false) or the per-layer metrics.
RunResult run_serving(const Options& options);
RunResult run_batch(const Options& options);

// Writes the tracer's spans to <trace_dir>/<workload>-<seed>.json and
// notes where they went.
void write_spans(const Tracer& tracer, const Options& options,
                 RunResult& result);

// Machine context shared by every workload.
void add_machine_context(RunResult& result);

// The per-layer metrics with their units and sources, in BENCHMARK.json
// order, so every traced run prints each of them (zero where the workload
// does not exercise the layer).
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* source;  // span or counter the value comes from
};
const std::vector<LayerMetric>& layer_metrics();

}  // namespace perfbench
