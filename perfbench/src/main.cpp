// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--server-bin PATH] [--trace-dir DIR]
//
// Workloads: ingest_upsert, ingest_growth (the sybiltd_server binary over
// loopback, open loop), batch_scale, batch_paper (the library API
// in-process).  With --trace 0 the run measures the end-to-end metrics;
// with --trace 1 it measures the per-layer metrics and writes its spans to
// DIR/<workload>-<seed>.json.  Human-readable lines come first; the last
// line of stdout is one JSON object {correct, attempted, failed, metrics}.
// perfbench/README.md describes every metric.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench.h"

namespace perfbench {

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
    "[--server-bin PATH] [--trace-dir DIR]\n"
    "  workloads: ingest_upsert ingest_growth batch_scale batch_paper\n";

bool parse_u64(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  options.server_bin = ".bench_build/sybiltd/server/sybiltd_server";
  options.trace_dir = ".bench_build/traces";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    if (i + 1 >= argc) usage_error(std::string(arg) + " requires a value");
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &n)) usage_error("bad --seed: " + std::string(value));
      options.seed = n;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, &n) || n == 0 || n > 600) {
        usage_error("bad --seconds (1..600): " + std::string(value));
      }
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(value, &n) || n > 1) {
        usage_error("bad --trace (0 or 1): " + std::string(value));
      }
      options.trace = n == 1;
      have_trace = true;
    } else if (arg == "--server-bin") {
      options.server_bin = value;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      usage_error("unknown argument: " + std::string(arg));
    }
  }
  if (options.workload.empty()) usage_error("missing --workload");
  if (!have_seed) usage_error("missing --seed");
  if (!have_seconds) usage_error("missing --seconds");
  if (!have_trace) usage_error("missing --trace");
  if (options.workload != "ingest_upsert" &&
      options.workload != "ingest_growth" &&
      options.workload != "batch_scale" && options.workload != "batch_paper") {
    usage_error("unknown workload: " + options.workload);
  }
  return options;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse_options(argc, argv);
  const bool serving = options.workload.rfind("ingest_", 0) == 0;
  RunResult result;
  try {
    result = serving ? run_serving(options) : run_batch(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }

  std::string context = "{";
  for (std::size_t i = 0; i < result.context.size(); ++i) {
    if (i > 0) context += ", ";
    context += json_string(result.context[i].first) + ": " +
               result.context[i].second;
  }
  context += "}";
  std::printf("context %s\n", context.c_str());
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("%-34s %16.6f %-10s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    if (!m.source.empty()) std::printf(" [%s]", m.source.c_str());
    std::printf("\n");
  }

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) line += ", ";
    line += json_string(m.name) + ": {\"value\": " + format_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
