// Machine context, span recording and the per-layer metric catalogue.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>

#include "bench.h"
#include "simd/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double status_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key, 0) == 0) return std::atof(line.c_str() + key.size());
  }
  return 0.0;
}

double peak_rss_mb(const std::string& pid) {
  return status_field("/proc/" + pid + "/status", "VmHWM:") / 1024.0;
}

void add_machine_context(RunResult& result) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  int allowed = 0;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) allowed = CPU_COUNT(&set);
  result.set_context("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  result.set_context("cpus_allowed", std::to_string(allowed));
  result.set_context("cpu_model", json_string(model));
  result.set_context(
      "simd_level",
      json_string(std::string(sybiltd::simd::level_name(
          sybiltd::simd::active_level()))));
  result.set_context("compiler", json_string(std::string("gcc ") + __VERSION__));
  result.set_context("build_type", json_string(PERFBENCH_BUILD_TYPE));
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer), index_(tracer.spans_.size()), active_(tracer.enabled_) {
  if (!active_) return;
  Span span;
  span.name = name;
  span.parent = tracer.open_;
  span.request = request;
  tracer.spans_.push_back(span);
  tracer.open_ = static_cast<std::int64_t>(index_);
  tracer.spans_[index_].start_ns = monotonic_ns();
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  Span& span = tracer_.spans_[index_];
  span.end_ns = monotonic_ns();
  tracer_.open_ = span.parent;
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  Totals out;
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const double duration =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    ++out.count;
    out.total_ns += duration;
    out.self_ns += duration - child_ns[i];
  }
  return out;
}

bool Tracer::write(const std::string& path, std::size_t max_spans) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"request\": %llu}}\n",
                 i > 0 ? "," : "", s.name, 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

void write_spans(const Tracer& tracer, const Options& options,
                 RunResult& result) {
  // The first spans are enough to inspect a run; the metrics use all.
  constexpr std::size_t kWritten = 100000;
  const std::string path = options.trace_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  const bool ok = tracer.write(path, kWritten);
  result.notes.push_back(
      "spans: " + std::to_string(tracer.size()) + ", first " +
      std::to_string(std::min(tracer.size(), kWritten)) + " written to " +
      (ok ? path : "(failed)"));
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"server.parse_ns_per_req", "ns", "span HttpParser::feed/next"},
      {"server.decode_ns_per_report", "ns", "span decode_reports"},
      {"server.handle_ns_per_req", "ns", "span handle_api_request"},
      {"server.decode_fast_frac", "ratio", "server.decode.fast/fallback"},
      {"server.render_us_per_snapshot", "us",
       "span pipeline::to_json_into/groups_json_into"},
      {"server.cache_hit_frac", "ratio", "server.snapshot_cache.hits/misses"},
      {"pipeline.submit_ns_per_report", "ns",
       "span CampaignEngine::try_submit_batch"},
      {"pipeline.apply_ns_per_report", "ns", "span CampaignState::apply"},
      {"pipeline.regroup_us_per_call", "us",
       "span CampaignState::grouping() when it regrouped"},
      {"pipeline.regroups_per_1k_reports", "count",
       "pipeline.regroups/pipeline.applied"},
      {"pipeline.refine_publish_us_per_call", "us",
       "span CampaignState::refine_and_publish(false)"},
      {"pipeline.reports_per_batch", "count",
       "pipeline.applied/pipeline.batches"},
      {"pipeline.queue_wait_p99_us", "us", "histogram pipeline.queue_wait_us"},
      {"core.ag_tr_s", "s", "span AgTr::group_with_stats"},
      {"core.ag_ts_s", "s", "span AgTs::group_with_stats"},
      {"core.group_data_ms", "ms", "span core::group_data"},
      {"core.iterate_us", "us", "span framework_iterate_once"},
      {"core.iterations", "count", "framework_iterate_once calls per run"},
      {"core.ag_fp_s", "s", "span AgFp::group"},
      {"candidate.block_ms", "ms", "span endpoint_grid_candidates"},
      {"candidate.blocked_frac", "ratio", "AgTrStats blocked/pairs"},
      {"candidate.cascade_pruned_frac", "ratio",
       "AgTrStats (lb_pruned+task_abandoned)/pairs"},
      {"candidate.exact_pairs", "count", "AgTrStats exact_pairs"},
      {"candidate.setjoin_ms", "ms", "span sparse_affinity_edges"},
      {"candidate.verified_pairs", "count", "SetJoinStats candidates"},
      {"dtw.evals", "count", "dtw.evals per job"},
      {"signal.featurize_us_per_capture", "us",
       "span sensing::to_streams+fingerprint_features"},
      {"signal.plan_hit_frac", "ratio", "fft/welch plan_hits/plan_misses"},
      {"ml.elbow_ms", "ms", "span elbow_select_k"},
      {"truth.crh_ms", "ms", "span truth::Crh::run"},
      {"mcs.scenario_ms", "ms", "span generate_scenario"},
      {"common.pool_queue_wait_p99_us", "us",
       "histogram threadpool.queue_wait_us"},
      {"common.pool_steal_frac", "ratio", "threadpool.stolen/executed"},
      {"proc.ctx_switches_invol", "count",
       "server /proc task nonvoluntary_ctxt_switches"},
      {"loadgen.lag_p99_ms", "ms", "generator written - due"},
      {"trace.overhead_frac", "ratio", "traced / plain replay or job - 1"},
  };
  return kMetrics;
}

}  // namespace perfbench
