#include "src/exec/compiler.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/evaluator.h"
#include "src/common/str_util.h"
#include "src/core/step_access.h"
#include "src/expr/analysis.h"
#include "src/obs/metrics.h"

namespace idivm {
namespace exec {
namespace {

// True when BindAggregateStep can run without tripping a schema-resolution
// CHECK. When false the program carries no prebound γ bindings and the
// executor binds at runtime — hitting exactly the failure runtime binding
// reports, at the same point.
bool CanBindAggregate(const AggregateStep& step, const Database& db) {
  const std::set<std::string> in_cols = step.input_schema.ColumnNameSet();
  for (const std::string& g : step.group_by) {
    if (in_cols.count(g) == 0) return false;
  }
  for (const AggSpec& spec : step.aggs) {
    if (spec.arg == nullptr) continue;
    for (const std::string& c : ReferencedColumns(spec.arg)) {
      if (in_cols.count(c) == 0) return false;
    }
  }
  if (step.mode == AggregateStep::Mode::kIncremental &&
      !step.opcache_table.empty() && db.HasTable(step.opcache_table)) {
    const std::set<std::string> cache_cols =
        db.GetTable(step.opcache_table).schema().ColumnNameSet();
    for (const std::string& g : step.group_by) {
      if (cache_cols.count(g) == 0) return false;
    }
    for (const AggSpec& spec : step.aggs) {
      if (cache_cols.count(StrCat("__sum_", spec.name)) == 0) return false;
      if (cache_cols.count(StrCat("__cnt_", spec.name)) == 0) return false;
    }
    if (cache_cols.count("__count") == 0) return false;
  }
  return true;
}

class ScriptCompiler {
 public:
  ScriptCompiler(CompiledProgram* p, const Database& db) : p_(p), db_(db) {}

  void Run(const std::vector<InputDiffBinding>& input_bindings) {
    // Input bindings are instantiated every epoch (possibly empty), so
    // their names are statically bound from the start.
    for (const InputDiffBinding& binding : input_bindings) {
      const int s = Slot(binding.name, binding.schema.relation_schema());
      p_->slots[s].input_binding = true;
      BindStatic(binding.name, binding.schema.relation_schema());
    }
    const DeltaScript& script = p_->script;
    const size_t n = script.steps.size();
    p_->n_steps = n;

    // How many sites read each transient name: compute-plan refs, APPLY
    // inputs and γ inputs (row sets, accumulated diffs and recompute-probe
    // plan refs). A fused compute whose only reader is the piped APPLY
    // skips slot publication.
    std::map<std::string, int> readers;
    for (const ScriptStep& step : script.steps) {
      std::set<std::string> refs;
      if (step.compute.has_value()) {
        CollectTransientRefs(step.compute->query, &refs);
      } else if (step.apply.has_value()) {
        refs.insert(step.apply->diff_name);
        for (const std::string& extra : step.apply->extra_diff_names) {
          refs.insert(extra);
        }
      } else if (step.aggregate.has_value()) {
        const AggregateStep& ag = *step.aggregate;
        for (const AggregateInput& in : ag.inputs) {
          refs.insert(in.pre_rows);
          refs.insert(in.post_rows);
        }
        for (const auto& [d, schema] : ag.input_diffs) refs.insert(d);
        CollectTransientRefs(ag.input_post_plan, &refs);
        CollectTransientRefs(ag.input_pre_plan, &refs);
      }
      for (const std::string& r : refs) ++readers[r];
    }

    std::vector<MicroOp> mops(n);
    for (size_t i = 0; i < n; ++i) {
      mops[i] =
          LowerStep(i, script.steps[i], AnalyzeStep(script.steps[i]).label);
    }

    // Instruction grouping: fuse compute(i) into apply(i+1) when the apply
    // consumes exactly the diff the compute produced, then merge runs of
    // adjacent applies to the same target into the same instruction. Fused
    // steps keep per-step arenas, fault sites and spans — only the
    // hand-off through the shared transient store is eliminated.
    size_t i = 0;
    while (i < n) {
      Instruction inst;
      size_t j = i + 1;
      const ScriptStep& step = script.steps[i];
      if (step.compute.has_value() && i + 1 < n &&
          script.steps[i + 1].apply.has_value() &&
          script.steps[i + 1].apply->diff_name == step.compute->out_name &&
          !step.compute->raw_relation && mops[i].out_diff != nullptr) {
        mops[i].fuse_to_next = true;
        mops[i].publish_output = readers[step.compute->out_name] > 1;
        mops[i + 1].piped_input = true;
        inst.ops.push_back(std::move(mops[i]));
        inst.ops.push_back(std::move(mops[i + 1]));
        j = i + 2;
      } else {
        inst.ops.push_back(std::move(mops[i]));
      }
      if (inst.ops.back().kind == MicroOp::Kind::kApply) {
        const std::string& target =
            p_->tables[inst.ops.back().table_id];
        while (j < n && script.steps[j].apply.has_value() &&
               script.steps[j].apply->target_table == target) {
          inst.ops.push_back(std::move(mops[j]));
          ++j;
        }
      }
      p_->instructions.push_back(std::move(inst));
      i = j;
    }
    p_->fused_steps = static_cast<int64_t>(n) -
                      static_cast<int64_t>(p_->instructions.size());
  }

 private:
  int InternTable(const std::string& name) {
    const auto it = p_->table_index.find(name);
    if (it != p_->table_index.end()) return it->second;
    const int id = static_cast<int>(p_->tables.size());
    p_->tables.push_back(name);
    p_->table_index.emplace(name, id);
    return id;
  }

  // Creates (or finds) the slot register for `name`. The first creation
  // fixes the slot schema; a name is only ever produced with one schema.
  int Slot(const std::string& name, const Schema& schema) {
    const auto it = p_->slot_index.find(name);
    if (it != p_->slot_index.end()) return it->second;
    const int id = static_cast<int>(p_->slots.size());
    p_->slots.push_back(CompiledProgram::SlotDef{name, schema, false});
    p_->slot_index.emplace(name, id);
    return id;
  }

  void BindStatic(const std::string& name, const Schema& schema) {
    bound_[name] = schema;
  }

  bool ScanTablesExist(const PlanPtr& plan) {
    std::set<std::string> tables;
    CollectScanTables(plan, &tables);
    for (const std::string& t : tables) {
      if (!db_.HasTable(t)) return false;
    }
    return true;
  }

  int AddPlan(PlanOp op) {
    p_->plan_ops.push_back(std::move(op));
    return static_cast<int>(p_->plan_ops.size()) - 1;
  }

  int AddProbe(ProbeOp op) {
    p_->probe_ops.push_back(std::move(op));
    return static_cast<int>(p_->probe_ops.size()) - 1;
  }

  // Whole-subtree evaluator fallback: the VM calls Evaluate(plan) with
  // the step's reconstructed EvalContext — identical behaviour (including
  // any runtime CHECK) by construction.
  int Fallback(const PlanPtr& plan) {
    saw_fallback_ = true;
    PlanOp op;
    op.kind = PlanOp::Kind::kFallback;
    op.plan = plan;
    return AddPlan(op);
  }

  MicroOp LowerStep(size_t i, const ScriptStep& step,
                    const std::string& label) {
    MicroOp op;
    op.step = i;
    op.label = label;
    if (step.compute.has_value()) {
      const ComputeDiffStep& cs = *step.compute;
      op.kind = MicroOp::Kind::kCompute;
      op.name = cs.out_name;
      op.raw = cs.raw_relation;
      saw_fallback_ = false;
      // A scan of a table the database does not have would make schema
      // inference impossible; the evaluator only faults if and when such a
      // scan actually runs, so defer the whole query.
      op.plan_root = ScanTablesExist(cs.query) ? CompilePlan(cs.query)
                                               : Fallback(cs.query);
      op.has_fallback = saw_fallback_;
      if (!cs.raw_relation) {
        const DiffSchema* ds = p_->script.FindDiffSchema(cs.out_name);
        if (ds == nullptr) {
          op.unregistered_out = true;  // the error fires after evaluation
        } else {
          op.out_diff = ds;
          op.out_slot = Slot(cs.out_name, ds->relation_schema());
          BindStatic(cs.out_name, ds->relation_schema());
        }
      } else if (ScanTablesExist(cs.query)) {
        const Schema s = InferSchema(cs.query, db_);
        op.out_slot = Slot(cs.out_name, s);
        BindStatic(cs.out_name, s);
      } else {
        // Schema unknown; the epoch faults before the publish anyway.
        op.out_slot = Slot(cs.out_name, Schema());
      }
    } else if (step.apply.has_value()) {
      const ApplyStep& as = *step.apply;
      op.kind = MicroOp::Kind::kApply;
      op.name = as.diff_name;
      const DiffSchema* ds = p_->script.FindDiffSchema(as.diff_name);
      if (ds == nullptr) {
        op.apply_unregistered = true;
      } else {
        op.diff_schema = ds;
        // Every input binding is instantiated every epoch (possibly empty)
        // and compute outputs precede their applies, so boundness at this
        // step is static.
        if (bound_.count(as.diff_name) > 0) {
          op.in_slot = Slot(as.diff_name, ds->relation_schema());
        } else {
          op.apply_unbound = true;
        }
      }
      for (const std::string& extra : as.extra_diff_names) {
        ExtraApply ex;
        ex.name = extra;
        const DiffSchema* eds = p_->script.FindDiffSchema(extra);
        if (eds == nullptr) {
          ex.unregistered = true;
        } else {
          ex.schema = eds;
          if (bound_.count(extra) > 0) {
            ex.in_slot = Slot(extra, eds->relation_schema());
          } else {
            ex.unbound = true;
          }
        }
        op.extras.push_back(std::move(ex));
      }
      op.table_id = InternTable(as.target_table);
      op.capture = !as.returning_pre.empty() || !as.returning_post.empty();
      if (op.capture) {
        const Schema ts = db_.HasTable(as.target_table)
                              ? db_.GetTable(as.target_table).schema()
                              : Schema();
        op.pre_slot = Slot(as.returning_pre, ts);
        op.post_slot = Slot(as.returning_post, ts);
        if (db_.HasTable(as.target_table)) {
          BindStatic(as.returning_pre, ts);
          BindStatic(as.returning_post, ts);
        }
      }
    } else if (step.aggregate.has_value()) {
      const AggregateStep& ag = *step.aggregate;
      op.kind = MicroOp::Kind::kAggregate;
      op.name = ag.node_name;
      op.agg = &*step.aggregate;
      if (CanBindAggregate(ag, db_)) {
        const Status st =
            BindAggregateStep(ag, p_->script, db_, &op.bindings);
        op.has_bindings = st.ok();
      }
      // Specialize the accumulation loop when every aggregate argument is
      // a plain column reference (kernel eligibility); the prebound
      // bindings supply the group-key offsets.
      if (op.has_bindings) op.kernel = BuildAggKernel(ag, op.bindings);
      for (const std::string& out_name :
           {ag.out_update, ag.out_insert, ag.out_delete}) {
        const DiffSchema* ds = p_->script.FindDiffSchema(out_name);
        if (ds != nullptr) {
          Slot(out_name, ds->relation_schema());
          BindStatic(out_name, ds->relation_schema());
        } else {
          Slot(out_name, Schema());
        }
      }
    }
    return op;
  }

  // ---- Plan lowering (mirrors EvaluateImpl) --------------------------------

  int CompilePlan(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kScan: {
        PlanOp op;
        op.kind = PlanOp::Kind::kScan;
        op.table_id = InternTable(plan->table_name());
        op.pre_state = plan->state() == StateTag::kPre;
        op.out_schema = InferSchema(plan, db_);
        return AddPlan(std::move(op));
      }
      case PlanKind::kRelationRef: {
        if (plan->ref_name().rfind("__empty", 0) == 0) {
          PlanOp op;
          op.kind = PlanOp::Kind::kEmptyRef;
          op.out_schema = plan->ref_schema();
          return AddPlan(std::move(op));
        }
        const auto it = bound_.find(plan->ref_name());
        // Statically unbound or mismatched: fall back so the runtime CHECK
        // ("unbound relation ref" / "relation ref schema mismatch") fires
        // exactly as in the evaluator.
        if (it == bound_.end() ||
            it->second.ColumnNames() != plan->ref_schema().ColumnNames()) {
          return Fallback(plan);
        }
        PlanOp op;
        op.kind = PlanOp::Kind::kSlotRef;
        op.slot = Slot(plan->ref_name(), it->second);
        op.out_schema = it->second;
        return AddPlan(std::move(op));
      }
      case PlanKind::kSelect: {
        PlanOp op;
        op.kind = PlanOp::Kind::kSelect;
        op.child0 = CompilePlan(plan->child(0));
        op.out_schema = p_->plan_ops[op.child0].out_schema;
        op.pred.emplace(plan->predicate(), op.out_schema);
        return AddPlan(std::move(op));
      }
      case PlanKind::kProject: {
        PlanOp op;
        const PlanPtr& child = plan->child(0);
        // The SPJ diff kernel: σ under π fuses to one filter+project pass.
        if (child->kind() == PlanKind::kSelect) {
          op.kind = PlanOp::Kind::kFilterProject;
          op.child0 = CompilePlan(child->child(0));
          const Schema& in = p_->plan_ops[op.child0].out_schema;
          op.pred.emplace(child->predicate(), in);
          for (const ProjectItem& item : plan->project_items()) {
            op.exprs.emplace_back(item.expr, in);
          }
        } else {
          op.kind = PlanOp::Kind::kProject;
          op.child0 = CompilePlan(child);
          const Schema& in = p_->plan_ops[op.child0].out_schema;
          for (const ProjectItem& item : plan->project_items()) {
            op.exprs.emplace_back(item.expr, in);
          }
        }
        op.out_schema = InferSchema(plan, db_);
        return AddPlan(std::move(op));
      }
      case PlanKind::kJoin:
        return CompileJoin(plan);
      case PlanKind::kSemiJoin:
        return CompileSemi(plan, /*anti=*/false);
      case PlanKind::kAntiSemiJoin:
        return CompileSemi(plan, /*anti=*/true);
      case PlanKind::kUnionAll: {
        PlanOp op;
        op.kind = PlanOp::Kind::kUnionAll;
        op.child0 = CompilePlan(plan->child(0));
        op.child1 = CompilePlan(plan->child(1));
        op.out_schema = InferSchema(plan, db_);
        return AddPlan(std::move(op));
      }
      case PlanKind::kAggregate: {
        PlanOp op;
        op.kind = PlanOp::Kind::kAggregate;
        op.child0 = CompilePlan(plan->child(0));
        const Schema& in = p_->plan_ops[op.child0].out_schema;
        op.group_cols = in.ColumnIndices(plan->group_by());
        for (const AggSpec& agg : plan->aggregates()) {
          if (agg.arg != nullptr) {
            op.agg_args.emplace_back(BoundExpr(agg.arg, in));
          } else {
            op.agg_args.emplace_back(std::nullopt);
          }
        }
        op.out_schema = InferSchema(plan, db_);
        op.plan = plan;  // AggSpec list for finalization
        return AddPlan(std::move(op));
      }
      case PlanKind::kMaterialize:
        return CompilePlan(plan->child(0));
      case PlanKind::kCoalesceProbe:
        // As a full relation the node means its base-truth fallback.
        return CompilePlan(plan->child(1));
    }
    return Fallback(plan);
  }

  // Mirrors EvalJoin's strategy selection, in its exact order: transient
  // left driving a probe of the right, transient right driving a probe of
  // the left, hash join with transient-first short-circuit, nested loop.
  int CompileJoin(const PlanPtr& plan) {
    const PlanPtr& left = plan->child(0);
    const PlanPtr& right = plan->child(1);
    const Schema left_schema = InferSchema(left, db_);
    const Schema right_schema = InferSchema(right, db_);
    const Schema out_schema = left_schema.Extend(right_schema.columns());

    std::vector<std::pair<std::string, std::string>> equi;
    const std::vector<ExprPtr> residual_conjuncts = ExtractEquiPairs(
        plan->predicate(), left_schema.ColumnNameSet(),
        right_schema.ColumnNameSet(), &equi);
    const ExprPtr residual = ConjoinAll(residual_conjuncts);

    PlanOp op;
    op.out_schema = out_schema;
    op.left_ncols = left_schema.num_columns();
    const int tf = IsTransientOnly(left) ? 0 : IsTransientOnly(right) ? 1 : 2;
    op.transient_first = tf;

    if (!equi.empty()) {
      std::vector<std::string> left_keys;
      std::vector<std::string> right_keys;
      for (const auto& [l, r] : equi) {
        left_keys.push_back(l);
        right_keys.push_back(r);
      }
      op.lk_all = left_schema.ColumnIndices(left_keys);
      op.rk_all = right_schema.ColumnIndices(right_keys);
      op.residual.emplace(residual, out_schema);
      if (IsTransientOnly(left) && ScanTablesExist(right)) {
        const std::vector<size_t> subset =
            FindProbeableKeySubset(right, right_keys, db_);
        if (!subset.empty()) {
          op.kind = PlanOp::Kind::kJoinProbe;
          op.subset = subset;
          std::vector<std::string> probe_cols;
          for (size_t s : subset) {
            probe_cols.push_back(right_keys[s]);
            op.probe_key_cols.push_back(op.lk_all[s]);
          }
          op.probe_root = CompileProbe(right, probe_cols);
          op.child0 = CompilePlan(left);
          op.transient_first = 0;  // left drives
          return AddPlan(std::move(op));
        }
      }
      if (IsTransientOnly(right) && ScanTablesExist(left)) {
        const std::vector<size_t> subset =
            FindProbeableKeySubset(left, left_keys, db_);
        if (!subset.empty()) {
          op.kind = PlanOp::Kind::kJoinProbe;
          op.subset = subset;
          std::vector<std::string> probe_cols;
          for (size_t s : subset) {
            probe_cols.push_back(left_keys[s]);
            op.probe_key_cols.push_back(op.rk_all[s]);
          }
          op.probe_root = CompileProbe(left, probe_cols);
          op.child0 = CompilePlan(right);
          op.transient_first = 1;  // right drives
          return AddPlan(std::move(op));
        }
      }
      op.kind = PlanOp::Kind::kJoinHash;
      op.child0 = CompilePlan(left);
      op.child1 = CompilePlan(right);
      return AddPlan(std::move(op));
    }

    op.kind = PlanOp::Kind::kJoinNl;
    op.child0 = CompilePlan(left);
    op.child1 = CompilePlan(right);
    op.pred.emplace(plan->predicate(), out_schema);
    return AddPlan(std::move(op));
  }

  // Mirrors EvalSemi: transient left probing the right (anti allowed),
  // transient right probing the left (semi only, partial-subset dedup),
  // then the hash / nested-loop fallback with its short-circuits.
  int CompileSemi(const PlanPtr& plan, bool anti) {
    const PlanPtr& left = plan->child(0);
    const PlanPtr& right = plan->child(1);
    const Schema left_schema = InferSchema(left, db_);
    const Schema right_schema = InferSchema(right, db_);
    const Schema combined = left_schema.Extend(right_schema.columns());

    std::vector<std::pair<std::string, std::string>> equi;
    const std::vector<ExprPtr> residual_conjuncts = ExtractEquiPairs(
        plan->predicate(), left_schema.ColumnNameSet(),
        right_schema.ColumnNameSet(), &equi);
    const ExprPtr residual = ConjoinAll(residual_conjuncts);

    std::vector<std::string> left_keys;
    std::vector<std::string> right_keys;
    for (const auto& [l, r] : equi) {
      left_keys.push_back(l);
      right_keys.push_back(r);
    }

    PlanOp op;
    op.out_schema = left_schema;
    op.left_ncols = left_schema.num_columns();
    op.anti = anti;
    op.lk_all = left_schema.ColumnIndices(left_keys);
    op.rk_all = right_schema.ColumnIndices(right_keys);
    op.residual.emplace(residual, combined);
    op.transient_first =
        IsTransientOnly(left) ? 0 : IsTransientOnly(right) ? 1 : 2;

    if (!equi.empty() && IsTransientOnly(left) && ScanTablesExist(right)) {
      const std::vector<size_t> subset =
          FindProbeableKeySubset(right, right_keys, db_);
      if (!subset.empty()) {
        op.kind = PlanOp::Kind::kSemiProbeLeft;
        op.subset = subset;
        std::vector<std::string> probe_cols;
        for (size_t s : subset) {
          probe_cols.push_back(right_keys[s]);
          op.probe_key_cols.push_back(op.lk_all[s]);
        }
        op.probe_root = CompileProbe(right, probe_cols);
        op.child0 = CompilePlan(left);
        return AddPlan(std::move(op));
      }
    }
    if (!anti && !equi.empty() && IsTransientOnly(right) &&
        ScanTablesExist(left)) {
      const std::vector<size_t> subset =
          FindProbeableKeySubset(left, left_keys, db_);
      if (!subset.empty()) {
        op.kind = PlanOp::Kind::kSemiProbeRight;
        op.subset = subset;
        op.partial = subset.size() < left_keys.size();
        std::vector<std::string> probe_cols;
        for (size_t s : subset) {
          probe_cols.push_back(left_keys[s]);
          op.probe_key_cols.push_back(op.rk_all[s]);
        }
        op.probe_root = CompileProbe(left, probe_cols);
        op.child0 = CompilePlan(right);
        return AddPlan(std::move(op));
      }
    }

    op.child0 = CompilePlan(left);
    op.child1 = CompilePlan(right);
    if (!equi.empty()) {
      op.kind = PlanOp::Kind::kSemiHash;
    } else {
      op.kind = PlanOp::Kind::kSemiNl;
      op.pred.emplace(plan->predicate(), combined);
    }
    return AddPlan(std::move(op));
  }

  // ---- Probe-path lowering (mirrors DoProbe) -------------------------------
  //
  // Only reached for subtrees FindProbeableKeySubset accepted, whose Scan
  // leaves all exist (checked at the join), so schema resolution here
  // cannot fault.

  int CompileProbe(const PlanPtr& plan,
                   const std::vector<std::string>& columns) {
    switch (plan->kind()) {
      case PlanKind::kScan: {
        ProbeOp op;
        op.kind = ProbeOp::Kind::kScan;
        op.table_id = InternTable(plan->table_name());
        op.pre_state = plan->state() == StateTag::kPre;
        // Pre-state relations keep the table's schema, so the offsets
        // below serve both states.
        op.key_cols =
            db_.GetTable(plan->table_name()).schema().ColumnIndices(columns);
        return AddProbe(std::move(op));
      }
      case PlanKind::kSelect: {
        ProbeOp op;
        op.kind = ProbeOp::Kind::kSelect;
        op.child0 = CompileProbe(plan->child(0), columns);
        op.pred.emplace(plan->predicate(),
                        InferSchema(plan->child(0), db_));
        return AddProbe(std::move(op));
      }
      case PlanKind::kProject: {
        // Rename the probe columns through the first matching item, then
        // project every fetched row through all items.
        std::vector<std::string> inner;
        inner.reserve(columns.size());
        for (const std::string& name : columns) {
          for (const ProjectItem& item : plan->project_items()) {
            if (item.name == name) {
              inner.push_back(item.expr->column_name());
              break;
            }
          }
        }
        ProbeOp op;
        op.kind = ProbeOp::Kind::kProject;
        op.child0 = CompileProbe(plan->child(0), inner);
        const Schema child_schema = InferSchema(plan->child(0), db_);
        for (const ProjectItem& item : plan->project_items()) {
          op.exprs.emplace_back(item.expr, child_schema);
        }
        return AddProbe(std::move(op));
      }
      case PlanKind::kCoalesceProbe: {
        ProbeOp op;
        op.kind = ProbeOp::Kind::kCoalesce;
        op.table_id = InternTable(plan->table_name());
        // Static half of the safety decision: the probe key must cover the
        // base table's primary key (at most one base row per key). The
        // runtime half — did the table receive updates/deletes this
        // round — stays with the VM.
        if (db_.HasTable(plan->table_name())) {
          for (const std::string& key_col :
               db_.GetTable(plan->table_name()).key_columns()) {
            if (std::find(columns.begin(), columns.end(), key_col) ==
                columns.end()) {
              op.static_unsafe = true;
              break;
            }
          }
        }
        op.child0 = CompileProbe(plan->child(0), columns);
        op.child1 = CompileProbe(plan->child(1), columns);
        return AddProbe(std::move(op));
      }
      case PlanKind::kJoin: {
        const Schema left_schema = InferSchema(plan->child(0), db_);
        const Schema right_schema = InferSchema(plan->child(1), db_);
        JoinProbePlan probe;
        IDIVM_CHECK(PlanJoinProbe(*plan, left_schema, right_schema, columns,
                                  &probe),
                    "CompileProbe on non-probeable join");
        ProbeOp op;
        op.kind = ProbeOp::Kind::kJoin;
        op.first_is_left = probe.first == 0;
        const Schema& first_schema =
            probe.first == 0 ? left_schema : right_schema;
        op.link_cols = first_schema.ColumnIndices(probe.first_link_cols);
        op.residual.emplace(probe.residual,
                            left_schema.Extend(right_schema.columns()));
        op.child0 = CompileProbe(plan->child(probe.first), columns);
        op.child1 =
            CompileProbe(plan->child(1 - probe.first), probe.second_link_cols);
        return AddProbe(std::move(op));
      }
      default:
        IDIVM_UNREACHABLE("CompileProbe on non-probeable plan");
    }
  }

  CompiledProgram* p_;
  const Database& db_;
  // Statically-bound transient names at the current step, with the schema
  // the runtime relation will carry.
  std::map<std::string, Schema> bound_;
  bool saw_fallback_ = false;
};

}  // namespace

std::shared_ptr<const CompiledProgram> CompileProgram(
    const CompiledView& view, const Database& db,
    obs::TraceRecorder* trace) {
  const int64_t start_us = trace != nullptr ? trace->NowMicros() : 0;
  const auto t0 = std::chrono::steady_clock::now();

  auto program = std::make_shared<CompiledProgram>();
  program->view_name = view.view_name;
  // Own the script first: every pointer taken below (diff schemas,
  // aggregate steps, plan nodes) targets this copy, never the view's.
  program->script = view.script;

  ScriptCompiler compiler(program.get(), db);
  compiler.Run(view.input_bindings);

  const auto t1 = std::chrono::steady_clock::now();
  program->compile_seconds = std::chrono::duration<double>(t1 - t0).count();
  obs::GlobalHistogram("idivm_compile_seconds")
      .Observe(program->compile_seconds);
  obs::GlobalCounter("idivm_fused_steps_total")
      .Increment(program->fused_steps);
  if (trace != nullptr) {
    obs::TraceSpan span;
    span.name = StrCat("compile ", view.view_name);
    span.category = "compile";
    span.tid = obs::TraceRecorder::CurrentThreadId();
    span.start_us = start_us;
    span.dur_us = trace->NowMicros() - start_us;
    span.args.emplace_back("steps",
                           static_cast<int64_t>(program->n_steps));
    span.args.emplace_back("instructions",
                           static_cast<int64_t>(program->instructions.size()));
    span.args.emplace_back("fused_steps", program->fused_steps);
    trace->Record(std::move(span));
  }
  return program;
}

}  // namespace exec
}  // namespace idivm
