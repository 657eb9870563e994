#include "src/core/step_access.h"

#include "src/common/str_util.h"

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

void StaticBindings::Bind(const std::string& name, const Schema& schema) {
  bound_[name] = schema;
}

const Schema* StaticBindings::Find(const std::string& name) const {
  const auto it = bound_.find(name);
  return it == bound_.end() ? nullptr : &it->second;
}

Status StaticBindings::CheckPlan(const PlanPtr& plan,
                                 const Database& db) const {
  if (plan == nullptr) return OkStatus();
  if (plan->kind() == PlanKind::kScan && !db.HasTable(plan->table_name())) {
    return CorruptScriptError(
        StrCat("scan of unknown table '", plan->table_name(), "'"));
  }
  if (plan->kind() == PlanKind::kRelationRef &&
      plan->ref_name().rfind("__empty", 0) != 0) {
    const Schema* bound = Find(plan->ref_name());
    if (bound == nullptr) {
      return CorruptScriptError(
          StrCat("unbound relation ref '", plan->ref_name(), "'"));
    }
    if (bound->ColumnNames() != plan->ref_schema().ColumnNames()) {
      return CorruptScriptError(StrCat(
          "relation ref '", plan->ref_name(), "' expects ",
          plan->ref_schema().ToString(), " but is bound to ",
          bound->ToString()));
    }
  }
  for (const PlanPtr& child : plan->children()) {
    IDIVM_RETURN_IF_ERROR(CheckPlan(child, db));
  }
  return OkStatus();
}

Status StaticBindings::CheckAndBindStep(const ScriptStep& step,
                                        const DeltaScript& script,
                                        const Database& db) {
  if (step.compute.has_value()) {
    IDIVM_RETURN_IF_ERROR(CheckPlan(step.compute->query, db));
  } else if (step.apply.has_value()) {
    if (!db.HasTable(step.apply->target_table)) {
      return CorruptScriptError(StrCat("apply to unknown table '",
                                       step.apply->target_table, "'"));
    }
  } else if (step.aggregate.has_value()) {
    const AggregateStep& ag = *step.aggregate;
    IDIVM_RETURN_IF_ERROR(CheckPlan(ag.input_post_plan, db));
    IDIVM_RETURN_IF_ERROR(CheckPlan(ag.input_pre_plan, db));
    if (!ag.opcache_table.empty() && !db.HasTable(ag.opcache_table)) {
      return CorruptScriptError(StrCat("γ operator cache '", ag.opcache_table,
                                       "' does not exist"));
    }
  }
  BindOutputs(step, script, db);
  return OkStatus();
}

void StaticBindings::BindOutputs(const ScriptStep& step,
                                 const DeltaScript& script,
                                 const Database& db) {
  if (step.compute.has_value()) {
    const DiffSchema* ds = script.FindDiffSchema(step.compute->out_name);
    if (!step.compute->raw_relation && ds != nullptr) {
      Bind(step.compute->out_name, ds->relation_schema());
    }
  } else if (step.apply.has_value()) {
    const ApplyStep& as = *step.apply;
    const bool capture =
        !as.returning_pre.empty() || !as.returning_post.empty();
    if (capture && db.HasTable(as.target_table)) {
      const Schema& ts = db.GetTable(as.target_table).schema();
      Bind(as.returning_pre, ts);
      Bind(as.returning_post, ts);
    }
  } else if (step.aggregate.has_value()) {
    const AggregateStep& ag = *step.aggregate;
    for (const std::string& out_name :
         {ag.out_update, ag.out_insert, ag.out_delete}) {
      const DiffSchema* ds = script.FindDiffSchema(out_name);
      if (ds != nullptr) Bind(out_name, ds->relation_schema());
    }
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
