// Per-layer measurement helpers shared by the serving and batch workloads
// of the traced run.  Every helper records spans from the benchmark's own
// code around calls into one layer's public functions and adds the
// resulting per-layer metrics to a map keyed by metric name.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ag_tr.h"
#include "core/framework_input.h"
#include "core/grouping.h"

namespace perfbench {

using LayerValues = std::map<std::string, double>;

// Request bytes a serving run sent, in send order, for the in-process
// replay through HttpParser -> decode_reports -> handle_api_request and
// through CampaignState (apply / regroup / refine+publish).
struct ServingRecording {
  std::size_t campaigns = 0;
  std::size_t tasks = 0;
  struct Op {
    const std::string* bytes = nullptr;  // full HTTP request
    std::size_t campaign = 0;
    bool ingest = false;                 // POST reports (else a GET)
    bool timed = false;                  // inside the measured window
  };
  std::vector<Op> ops;  // priming, lead-in and window requests
};

// Replays the recording; fills server.* and pipeline.* span metrics.
// Returns the replay's wall time with spans (`traced_s`) and the mean of
// two replays without spans around it (`plain_s`) for the
// tracing-overhead figure.  The return value counts refused outcomes over
// all passes (a decode error, a submit or ingest short of kAccepted / 202,
// a read short of 200): the spans are only meaningful when it is 0.
std::uint64_t replay_serving_layers(const ServingRecording& recording, Tracer& tracer,
                           LayerValues& out, double* plain_s,
                           double* traced_s);

// AG-TR grouping (group_with_stats, plus endpoint_grid_candidates alone
// when the candidate path ran) + Algorithm 2 on its grouping.  Fills
// core.ag_tr_s, candidate.* funnel metrics and core.* (means over calls).
void measure_agtr_framework(const sybiltd::core::FrameworkInput& input,
                            const sybiltd::core::AgTrOptions& options,
                            Tracer& tracer, LayerValues& out);

// AG-TS grouping + Algorithm 2, decomposed into group_with_stats /
// group_data / framework_iterate_once, on a batch input.  Fills core.* and
// candidate.setjoin_ms / verified_pairs (means over calls).
void measure_agts_framework(const sybiltd::core::FrameworkInput& input,
                            double rho, Tracer& tracer, LayerValues& out);

// Algorithm 2 on a fixed grouping, decomposed into group_data and
// framework_iterate_once calls (core.group_data_ms / iterate_us /
// iterations).
void measure_framework(const sybiltd::core::FrameworkInput& input,
                       const sybiltd::core::AccountGrouping& grouping,
                       Tracer& tracer, LayerValues& out);

// Records one call's value of a per-call metric; emit_layer_metrics
// reports the mean over calls.
inline void per_call(LayerValues& out, const std::string& name,
                     double value) {
  out[name] += value;
  out["_n." + name] += 1.0;
}

// Emits every catalogue metric (zero where absent) into `result`.
void emit_layer_metrics(const LayerValues& values, RunResult& result);

}  // namespace perfbench
