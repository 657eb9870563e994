// Per-step analysis of ∆-scripts, shared by the compiler (src/exec), the
// repository loader (src/core/script_io.cc) and the maintainer's merge
// (src/core/maintainer.cc): the transients a plan references, the
// transient names each step can read, and each step's cost-model phase and
// stable label (fault sites, per-rule counters and trace spans are all
// keyed on the label). StepRun is the per-step execution record the VM
// fills and the maintainer merges in script order.

#ifndef IDIVM_CORE_STEP_ACCESS_H_
#define IDIVM_CORE_STEP_ACCESS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "src/algebra/plan.h"
#include "src/core/delta_script.h"
#include "src/diff/apply.h"
#include "src/robust/status.h"
#include "src/storage/access_stats.h"
#include "src/storage/database.h"

namespace idivm {

// Transient relations a plan reads. The minimizer's statically-empty
// "__empty*" refs resolve without the context and are not reads.
void CollectTransientRefs(const PlanPtr& plan, std::set<std::string>* out);

// The transient relations a script binds, tracked step by step in script
// order. Input bindings are bound from the start (every epoch instantiates
// each of them, possibly empty); each step's outputs are bound from the next
// step on: an i-diff compute's result, an APPLY's RETURNING images and a γ
// step's output diffs. Raw compute results (γ row sets) are read by γ steps
// by name and are not bindings plans may reference.
class StaticBindings {
 public:
  void Bind(const std::string& name, const Schema& schema);

  // The schema `name` is bound with, or null when unbound.
  const Schema* Find(const std::string& name) const;

  // Checks `plan` against `db` and the names bound so far: every Scan
  // names a table, every RelationRef (other than the minimizer's
  // statically-empty "__empty*" refs) a bound relation with the ref's column
  // names, and every column a predicate, projection, group-by or aggregate
  // argument references exists in its input, so that inferring the plan's
  // schema cannot abort. Fails with a kCorruptScript error naming the first
  // violation.
  Status CheckPlan(const PlanPtr& plan, const Database& db) const;

  // Checks `step`'s plans and stored targets against `db` (see CheckPlan;
  // APPLY targets and γ operator caches must be tables too), then binds
  // its outputs.
  Status CheckAndBindStep(const ScriptStep& step, const DeltaScript& script,
                          const Database& db);

  // Binds `step`'s outputs without checking.
  void BindOutputs(const ScriptStep& step, const DeltaScript& script,
                   const Database& db);

 private:
  // CheckPlan's bottom-up walk; sets `schema` to `node`'s output schema.
  Status CheckPlanSchema(const PlanNode& node, const Database& db,
                         Schema* schema) const;

  std::map<std::string, Schema> bound_;
};

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
