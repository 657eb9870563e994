#include "src/exec/compiler.h"

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
      bindings_.Bind(binding.name, binding.schema.relation_schema());
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
      bindings_.BindOutputs(script.steps[i], script, db_);
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
      op.plan.emplace(PrepareStepPlan(cs.query));
      if (!cs.raw_relation) {
        const DiffSchema* ds = p_->script.FindDiffSchema(cs.out_name);
        if (ds == nullptr) {
          op.unregistered_out = true;  // the error fires after evaluation
        } else {
          op.out_diff = ds;
          op.out_slot = Slot(cs.out_name, ds->relation_schema());
        }
      } else {
        op.out_slot = Slot(cs.out_name, op.plan->schema());
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
        if (bindings_.Find(as.diff_name) != nullptr) {
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
          if (bindings_.Find(extra) != nullptr) {
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
      // Every γ step but the operator-cache one may recompute groups.
      const bool uses_opcache = ag.mode == AggregateStep::Mode::kIncremental &&
                                !ag.opcache_table.empty();
      if (op.has_bindings && !uses_opcache &&
          ag.input_post_plan != nullptr) {
        op.recompute_probe.emplace(PrepareStepPlan(RecomputeProbePlan(ag)));
      }
      for (const AggregateInput& in : ag.inputs) {
        for (const std::string* rows : {&in.pre_rows, &in.post_rows}) {
          const auto it = p_->slot_index.find(*rows);
          if (it != p_->slot_index.end()) {
            op.agg_row_slots.emplace_back(*rows, it->second);
          }
        }
      }
      int k = 0;
      for (const std::string& out_name :
           {ag.out_update, ag.out_insert, ag.out_delete}) {
        const DiffSchema* ds = p_->script.FindDiffSchema(out_name);
        op.agg_out_slots[k++] =
            Slot(out_name, ds != nullptr ? ds->relation_schema() : Schema());
      }
    }
    return op;
  }

  // Prepares `plan` with its relation refs read from their slot registers
  // and typed by the names bound before the current step.
  PreparedPlan PrepareStepPlan(const PlanPtr& plan) const {
    return Prepare(plan, db_, [this](const std::string& name) {
      const auto it = p_->slot_index.find(name);
      return RefBinding{bindings_.Find(name),
                        it == p_->slot_index.end() ? -1 : it->second};
    });
  }

  CompiledProgram* p_;
  const Database& db_;
  // Transient names bound before the current step, with the schema the
  // runtime relation carries.
  StaticBindings bindings_;
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
