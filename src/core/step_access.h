// Per-step analysis of ∆-scripts, shared by the compiler (src/exec) and the
// maintainer's merge (src/core/maintainer.cc): the transients and stored
// tables a plan references, and each step's cost-model phase and stable
// label (fault sites, per-rule counters and trace spans are all keyed on
// the label). StepRun is the per-step execution record the VM fills and
// the maintainer merges in script order.

#ifndef IDIVM_CORE_STEP_ACCESS_H_
#define IDIVM_CORE_STEP_ACCESS_H_

#include <cstdint>
#include <set>
#include <string>

#include "src/algebra/plan.h"
#include "src/core/delta_script.h"
#include "src/diff/apply.h"
#include "src/storage/access_stats.h"

namespace idivm {

// Transient relations a plan reads. The minimizer's statically-empty
// "__empty*" refs resolve without the context and are not reads.
void CollectTransientRefs(const PlanPtr& plan, std::set<std::string>* out);

// Stored tables a plan may read (Scan leaves in either state; CoalesceProbe
// children are ordinary subplans and are covered by their own Scans).
void CollectScanTables(const PlanPtr& plan, std::set<std::string>* out);

// The cost-model phase and label of one script step.
struct StepAccess {
  MaintPhase phase = MaintPhase::kDiffComputation;
  std::string label;
};

// Computes the phase and label of one step.
StepAccess AnalyzeStep(const ScriptStep& step);

// Per-step execution record: every access charge lands in the step's
// private arena, and wall time and apply counters are per-step too. The
// maintainer merges the records in script order after execution, so a
// failed epoch publishes nothing and a committed one attributes every
// charge to its step and phase.
struct StepRun {
  StatsArena arena;
  double seconds = 0;
  ApplyResult applied;
  // Trace capture (filled only when tracing is on). start/end are on the
  // recorder's clock so the apply sub-window nests exactly.
  int tid = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t apply_start_us = 0;
  int64_t apply_end_us = 0;
  AccessStats apply_accesses;
  bool has_apply = false;
};

}  // namespace idivm

#endif  // IDIVM_CORE_STEP_ACCESS_H_
