// Inert compatibility shim for the retired candidate-generation policy.
//
// Each grouping job now has one exact path chosen by its input (see
// docs/GROUPING.md, "Which path runs"): AG-TR's total-cost mode always runs
// endpoint-grid blocking plus the lower-bound cascade, AG-TS always runs
// the sparse set join for rho >= 0, and the pipeline always regroups
// incrementally.  Nothing reads this type.  It survives only because the
// repository benchmark (perfbench/, which is built unmodified) still
// assigns `candidates.mode = Mode::kOn` on AgTrOptions and AgTsOptions;
// delete it together with those two lines.
#pragma once

namespace sybiltd::candidate {

enum class Mode { kOn };

struct Policy {
  Mode mode = Mode::kOn;
};

}  // namespace sybiltd::candidate
