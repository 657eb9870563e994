#include "src/core/step_access.h"

namespace idivm {

void CollectTransientRefs(const PlanPtr& plan, std::set<std::string>* out) {
  if (plan == nullptr) return;
  if (plan->kind() == PlanKind::kRelationRef &&
      plan->ref_name().rfind("__empty", 0) != 0) {
    out->insert(plan->ref_name());
  }
  for (const PlanPtr& child : plan->children()) {
    CollectTransientRefs(child, out);
  }
}

void CollectScanTables(const PlanPtr& plan, std::set<std::string>* out) {
  if (plan == nullptr) return;
  if (plan->kind() == PlanKind::kScan) out->insert(plan->table_name());
  for (const PlanPtr& child : plan->children()) {
    CollectScanTables(child, out);
  }
}

StepAccess AnalyzeStep(const ScriptStep& step) {
  StepAccess access;
  if (step.compute.has_value()) {
    access.phase = MaintPhase::kDiffComputation;
    access.label = "compute " + step.compute->out_name;
  } else if (step.apply.has_value()) {
    const ApplyStep& as = *step.apply;
    std::string diffs = as.diff_name;
    for (const std::string& extra : as.extra_diff_names) {
      diffs += "+" + extra;
    }
    access.phase = as.phase;
    access.label = "apply " + diffs + " -> " + as.target_table;
  } else if (step.aggregate.has_value()) {
    access.phase = MaintPhase::kDiffComputation;
    access.label = "γ-maintain " + step.aggregate->node_name;
  }
  return access;
}

}  // namespace idivm
