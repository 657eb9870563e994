#include "src/exec/vm.h"

#include <chrono>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/aggregate_exec.h"
#include "src/diff/apply.h"
#include "src/obs/metrics.h"

namespace idivm {
namespace exec {
namespace {

// Mutable state of one program execution.
struct ExecState {
  const ExecEnv* env = nullptr;
  const CompiledProgram* p = nullptr;
  std::vector<Table*> tables;  // APPLY targets, resolved once; null = missing
  std::vector<Relation> regs;  // slot registers
  // Every step's evaluation context: the epoch's stored state and the
  // registers published so far, bound to their slots.
  EvalContext ctx;

  Table* ResolveTable(int table_id) {
    Table* t = tables[table_id];
    // Missing table: resolve through the database so its CHECK fires with
    // the identical message.
    if (t == nullptr) t = &env->db->GetTable(p->tables[table_id]);
    return t;
  }

  void Publish(int slot, Relation rel) {
    regs[slot] = std::move(rel);
    ctx.slots[slot] = &regs[slot];
  }
};

// ---- Micro-op / instruction execution --------------------------------------

Status RunMicroOp(ExecState& st, const MicroOp& op,
                  std::optional<DiffInstance>* piped, StepRun& run) {
  const ExecEnv& env = *st.env;
  if (env.fault != nullptr) {
    IDIVM_RETURN_IF_ERROR(env.fault->Check(StrCat("step:", op.label)));
  }
  if (env.deadline != nullptr) {
    IDIVM_RETURN_IF_ERROR(env.deadline->Check(StrCat("step:", op.label)));
  }
  switch (op.kind) {
    case MicroOp::Kind::kCompute: {
      Relation rel = op.plan->Run(st.ctx);
      if (!op.raw) {
        if (op.unregistered_out) {
          return CorruptScriptError(
              StrCat("compute of unregistered diff ", op.name));
        }
        DiffInstance inst(*op.out_diff, std::move(rel));
        inst.DeduplicateByIds();
        if (op.fuse_to_next) {
          if (op.publish_output) st.Publish(op.out_slot, inst.data());
          piped->emplace(std::move(inst));
        } else {
          st.Publish(op.out_slot, inst.data());
        }
      } else {
        st.Publish(op.out_slot, std::move(rel));
      }
      break;
    }
    case MicroOp::Kind::kApply: {
      // Resolve the main diff and every compose-time-merged extra before
      // any mutation, main diff first, then the extras in order.
      if (op.apply_unregistered) {
        return CorruptScriptError(
            StrCat("apply of unregistered diff ", op.name));
      }
      const DiffSchema* schema = nullptr;
      const Relation* data = nullptr;
      if (op.piped_input) {
        schema = &(*piped)->schema();
        data = &(*piped)->data();
      } else {
        if (op.apply_unbound) {
          return CorruptScriptError(StrCat("apply of unbound diff ", op.name));
        }
        schema = op.diff_schema;
        data = &st.regs[op.in_slot];
      }
      for (const ExtraApply& ex : op.extras) {
        if (ex.unregistered) {
          return CorruptScriptError(
              StrCat("apply of unregistered diff ", ex.name));
        }
        if (ex.unbound) {
          return CorruptScriptError(StrCat("apply of unbound diff ", ex.name));
        }
      }
      Table& target = *st.ResolveTable(op.table_id);
      if (env.apply_observer != nullptr && *env.apply_observer) {
        (*env.apply_observer)(st.p->tables[op.table_id],
                              DiffInstance(*schema, *data));
        for (const ExtraApply& ex : op.extras) {
          (*env.apply_observer)(st.p->tables[op.table_id],
                                DiffInstance(*ex.schema, st.regs[ex.in_slot]));
        }
      }
      if (env.fault != nullptr) {
        IDIVM_RETURN_IF_ERROR(
            env.fault->Check(StrCat("apply:", st.p->tables[op.table_id])));
      }
      if (env.deadline != nullptr) {
        IDIVM_RETURN_IF_ERROR(env.deadline->Check(
            StrCat("apply:", st.p->tables[op.table_id])));
      }
      ReturningImages images(target.schema());
      AccessStats apply_before;
      if (env.trace != nullptr) {
        apply_before = run.arena.Sum(&env.db->stats());
        run.apply_start_us = env.trace->NowMicros();
      }
      IDIVM_RETURN_IF_ERROR(TryApplyDiff(*schema, *data, target, &run.applied,
                                         op.capture ? &images : nullptr,
                                         env.undo, env.fault));
      for (const ExtraApply& ex : op.extras) {
        IDIVM_RETURN_IF_ERROR(TryApplyDiff(
            *ex.schema, st.regs[ex.in_slot], target, &run.applied,
            op.capture ? &images : nullptr, env.undo, env.fault));
      }
      if (env.trace != nullptr) {
        run.apply_end_us = env.trace->NowMicros();
        run.apply_accesses = run.arena.Sum(&env.db->stats()) - apply_before;
        run.has_apply = true;
      }
      if (op.capture) {
        st.Publish(op.pre_slot, std::move(images.pre_images));
        st.Publish(op.post_slot, std::move(images.post_images));
      }
      break;
    }
    case MicroOp::Kind::kAggregate: {
      for (const auto& [name, slot] : op.agg_row_slots) {
        if (st.ctx.slots[slot] != nullptr) {
          st.ctx.transient[name] = st.ctx.slots[slot];
        }
      }
      AggregateExecutor exec(env.db, *op.agg, &st.ctx);
      exec.set_script(&st.p->script);
      exec.set_undo(env.undo);
      if (op.has_bindings) exec.set_bindings(&op.bindings);
      if (op.recompute_probe.has_value()) {
        exec.set_recompute_probe(&*op.recompute_probe);
      }
      if (op.kernel != nullptr) {
        exec.set_accumulator(op.kernel.get());
        obs::GlobalCounter("idivm_agg_kernel_hits_total").Increment(1);
      } else {
        obs::GlobalCounter("idivm_agg_kernel_misses_total").Increment(1);
      }
      AggregateOutputs outputs;
      IDIVM_RETURN_IF_ERROR(exec.Run(&outputs));
      st.Publish(op.agg_out_slots[0], std::move(outputs.update));
      st.Publish(op.agg_out_slots[1], std::move(outputs.insert));
      st.Publish(op.agg_out_slots[2], std::move(outputs.del));
      break;
    }
  }
  if (env.max_epoch_ops > 0 &&
      static_cast<int64_t>(env.undo->size()) > env.max_epoch_ops) {
    return ResourceExhaustedError(
        StrCat("epoch op budget exceeded: ", env.undo->size(),
               " stored-table mutations > --max-epoch-ops=",
               env.max_epoch_ops));
  }
  return OkStatus();
}

Status RunInstruction(ExecState& st, const Instruction& inst) {
  const ExecEnv& env = *st.env;
  std::optional<DiffInstance> piped;
  for (const MicroOp& op : inst.ops) {
    StepRun& run = (*env.runs)[op.step];
    ScopedStatsArena scope(&run.arena);
    if (env.trace != nullptr) {
      run.start_us = env.trace->NowMicros();
      run.tid = obs::TraceRecorder::CurrentThreadId();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = RunMicroOp(st, op, &piped, run);
    const auto t1 = std::chrono::steady_clock::now();
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (env.trace != nullptr) run.end_us = env.trace->NowMicros();
    if (!status.ok()) return status;
  }
  return OkStatus();
}

}  // namespace

Status Execute(const ExecEnv& env) {
  const CompiledProgram& p = *env.program;
  ExecState st;
  st.env = &env;
  st.p = &p;

  st.tables.assign(p.tables.size(), nullptr);
  for (size_t i = 0; i < p.tables.size(); ++i) {
    if (env.db->HasTable(p.tables[i])) {
      st.tables[i] = &env.db->GetTable(p.tables[i]);
    }
  }

  st.ctx.db = env.db;
  st.ctx.pre_state = env.pre_state;
  st.ctx.assist_unsafe_tables = env.assist_unsafe;
  st.ctx.slots.assign(p.slots.size(), nullptr);
  st.regs.reserve(p.slots.size());  // stable: the context points into it
  for (const CompiledProgram::SlotDef& slot : p.slots) {
    st.regs.emplace_back(slot.schema);
  }
  for (const auto& [name, inst] : *env.instances) {
    const auto it = p.slot_index.find(name);
    if (it == p.slot_index.end()) continue;
    st.Publish(it->second, inst.data());
  }

  for (const Instruction& inst : p.instructions) {
    IDIVM_RETURN_IF_ERROR(RunInstruction(st, inst));
  }
  return OkStatus();
}

}  // namespace exec
}  // namespace idivm
