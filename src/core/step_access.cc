#include "src/core/step_access.h"

#include "src/common/str_util.h"
#include "src/expr/analysis.h"

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

namespace {

Status CheckColumn(const std::string& col, const Schema& schema,
                   const char* where) {
  if (schema.HasColumn(col)) return OkStatus();
  return CorruptScriptError(StrCat(where, " references unknown column '", col,
                                   "' (schema ", schema.ToString(), ")"));
}

Status CheckColumns(const ExprPtr& expr, const Schema& schema,
                    const char* where) {
  if (expr == nullptr) return OkStatus();
  for (const std::string& col : ReferencedColumns(expr)) {
    IDIVM_RETURN_IF_ERROR(CheckColumn(col, schema, where));
  }
  return OkStatus();
}

Status CheckDistinct(const std::vector<std::string>& names,
                     const char* where) {
  std::set<std::string> seen;
  for (const std::string& name : names) {
    if (!seen.insert(name).second) {
      return CorruptScriptError(
          StrCat(where, " yields duplicate column '", name, "'"));
    }
  }
  return OkStatus();
}

// Checks the group-by columns and aggregate arguments of a γ over `input`.
Status CheckAggregate(const std::vector<std::string>& group_by,
                      const std::vector<AggSpec>& aggs, const Schema& input) {
  std::vector<std::string> names = group_by;
  for (const std::string& g : group_by) {
    IDIVM_RETURN_IF_ERROR(CheckColumn(g, input, "group-by"));
  }
  for (const AggSpec& agg : aggs) {
    if (agg.arg == nullptr && agg.func != AggFunc::kCount &&
        agg.func != AggFunc::kAvg) {
      return CorruptScriptError(
          StrCat(AggFuncName(agg.func), " needs an argument"));
    }
    IDIVM_RETURN_IF_ERROR(CheckColumns(agg.arg, input, "aggregate argument"));
    names.push_back(agg.name);
  }
  return CheckDistinct(names, "aggregate");
}

}  // namespace

Status StaticBindings::CheckPlan(const PlanPtr& plan,
                                 const Database& db) const {
  if (plan == nullptr) return OkStatus();
  Schema unused;
  return CheckPlanSchema(*plan, db, &unused);
}

Status StaticBindings::CheckPlanSchema(const PlanNode& node,
                                       const Database& db,
                                       Schema* schema) const {
  std::vector<Schema> children(node.children().size());
  for (size_t i = 0; i < children.size(); ++i) {
    IDIVM_RETURN_IF_ERROR(CheckPlanSchema(*node.child(i), db, &children[i]));
  }
  // Everything NodeSchema would abort on is checked first, so that a plan
  // which passes here infers its schema without a fatal check.
  switch (node.kind()) {
    case PlanKind::kScan:
      if (!db.HasTable(node.table_name())) {
        return CorruptScriptError(
            StrCat("scan of unknown table '", node.table_name(), "'"));
      }
      break;
    case PlanKind::kRelationRef: {
      if (node.ref_name().rfind("__empty", 0) == 0) break;
      const Schema* bound = Find(node.ref_name());
      if (bound == nullptr) {
        return CorruptScriptError(
            StrCat("unbound relation ref '", node.ref_name(), "'"));
      }
      if (bound->ColumnNames() != node.ref_schema().ColumnNames()) {
        return CorruptScriptError(StrCat(
            "relation ref '", node.ref_name(), "' expects ",
            node.ref_schema().ToString(), " but is bound to ",
            bound->ToString()));
      }
      break;
    }
    case PlanKind::kSelect:
      IDIVM_RETURN_IF_ERROR(
          CheckColumns(node.predicate(), children[0], "selection"));
      break;
    case PlanKind::kProject: {
      std::vector<std::string> names;
      for (const ProjectItem& item : node.project_items()) {
        IDIVM_RETURN_IF_ERROR(
            CheckColumns(item.expr, children[0], "projection"));
        names.push_back(item.name);
      }
      IDIVM_RETURN_IF_ERROR(CheckDistinct(names, "projection"));
      break;
    }
    case PlanKind::kJoin:
    case PlanKind::kSemiJoin:
    case PlanKind::kAntiSemiJoin: {
      std::vector<std::string> names = children[0].ColumnNames();
      for (const ColumnDef& col : children[1].columns()) {
        names.push_back(col.name);
      }
      IDIVM_RETURN_IF_ERROR(CheckDistinct(names, "join"));
      IDIVM_RETURN_IF_ERROR(CheckColumns(
          node.predicate(), children[0].Extend(children[1].columns()),
          "join condition"));
      break;
    }
    case PlanKind::kUnionAll:
      if (children[0].ColumnNames() != children[1].ColumnNames()) {
        return CorruptScriptError(
            StrCat("union all children differ: ", children[0].ToString(),
                   " vs ", children[1].ToString()));
      }
      if (children[0].HasColumn(node.branch_column())) {
        return CorruptScriptError(StrCat("union all branch column '",
                                         node.branch_column(),
                                         "' is already an input column"));
      }
      break;
    case PlanKind::kCoalesceProbe:
      if (children[0].ColumnNames() != children[1].ColumnNames()) {
        return CorruptScriptError(
            StrCat("coalesce-probe paths differ: ", children[0].ToString(),
                   " vs ", children[1].ToString()));
      }
      break;
    case PlanKind::kAggregate:
      IDIVM_RETURN_IF_ERROR(
          CheckAggregate(node.group_by(), node.aggregates(), children[0]));
      break;
    case PlanKind::kMaterialize:
      break;
  }
  *schema = NodeSchema(node, children, db);
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
    IDIVM_RETURN_IF_ERROR(
        CheckAggregate(ag.group_by, ag.aggs, ag.input_schema));
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
