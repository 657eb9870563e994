// Compiled ∆-script programs: the data structures produced by the
// ScriptCompiler (compiler.h) and executed by the register-based VM (vm.h).
//
// A CompiledProgram lowers a DeltaScript into a flat instruction list over
// slot registers (one per transient relation name). Everything evaluating
// the script step by step would resolve per epoch is resolved once at
// compile time: each compute step's plan and each γ step's recompute probe
// are prepared (algebra/evaluator.h: schemas, bound expressions, join
// strategies, probe paths), and diff-schema lookups, γ bindings and kernels,
// slot and table ids are fixed. Executing a program is byte-identical to
// that step-by-step evaluation: same table contents, same AccessStats
// charges, same fault sites, same error messages, in the same order (pinned
// by the golden files under tests/golden/exec_parity/). A cached program is
// immutable and shared by views refreshing in parallel.

#ifndef IDIVM_EXEC_PROGRAM_H_
#define IDIVM_EXEC_PROGRAM_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/evaluator.h"
#include "src/core/aggregate_exec.h"
#include "src/core/delta_script.h"
#include "src/exec/agg_kernel.h"

namespace idivm {
namespace exec {

// One compose-time-merged diff riding on a kApply micro-op: applied after
// the op's main diff, in order, into the same RETURNING capture.
struct ExtraApply {
  std::string name;
  bool unregistered = false;
  bool unbound = false;
  const DiffSchema* schema = nullptr;
  int in_slot = -1;
};

// One unit of per-step work inside an instruction. Every micro-op keeps the
// originating script-step index so per-rule arenas, labels, trace spans and
// fault sites stay per original step — fusion changes data flow, never
// observability.
struct MicroOp {
  enum class Kind { kCompute, kApply, kAggregate };
  Kind kind = Kind::kCompute;
  size_t step = 0;     // original script-step index
  std::string name;    // compute out_name / apply diff_name (error messages)
  std::string label;   // the step's AnalyzeStep label (fault site, spans)
  // kCompute
  std::optional<PreparedPlan> plan;
  int out_slot = -1;
  bool raw = false;
  bool unregistered_out = false;  // diff not in registry: error after eval
  const DiffSchema* out_diff = nullptr;
  bool fuse_to_next = false;   // pipe the DiffInstance to the next micro-op
  bool publish_output = true;  // false when fused and nothing else reads it
  // kApply
  bool piped_input = false;  // consume the piped DiffInstance, not a slot
  int in_slot = -1;
  int table_id = -1;
  bool apply_unregistered = false;
  bool apply_unbound = false;
  const DiffSchema* diff_schema = nullptr;
  bool capture = false;
  int pre_slot = -1;
  int post_slot = -1;
  std::vector<ExtraApply> extras;
  // kAggregate
  const AggregateStep* agg = nullptr;
  bool has_bindings = false;
  AggregateBindings bindings;
  // The step's recompute probe, prepared when the step may recompute
  // groups and its bindings resolved at compile time.
  std::optional<PreparedPlan> recompute_probe;
  // The slots of the row sets the step reads by name, bound into the
  // step's EvalContext before it runs.
  std::vector<std::pair<std::string, int>> agg_row_slots;
  int agg_out_slots[3] = {-1, -1, -1};  // update, insert, delete
  // Specialized accumulation kernel (null: generic Contribute loop).
  // Stateless after construction, so the shared cached program can run it
  // from any epoch/thread.
  std::shared_ptr<AggKernel> kernel;
};

// One instruction: a maximal fused run of micro-ops, executed in order.
struct Instruction {
  std::vector<MicroOp> ops;
};

// A fully lowered ∆-script. The program owns a copy of the script; every
// pointer in its ops (diff schemas, aggregate steps, plans) points into
// that copy, so a cached program outlives the CompiledView it came from.
// APPLY targets are referenced by name (`tables`) and resolved to handles
// once per epoch, and prepared plans resolve their tables per run — a
// cached program never holds stale Table pointers.
struct CompiledProgram {
  CompiledProgram() = default;
  CompiledProgram(const CompiledProgram&) = delete;
  CompiledProgram& operator=(const CompiledProgram&) = delete;

  std::string view_name;
  DeltaScript script;  // owned; internal pointers target this copy

  struct SlotDef {
    std::string name;
    Schema schema;
    bool input_binding = false;  // seeded from the epoch's diff instances
  };
  std::vector<SlotDef> slots;
  std::map<std::string, int> slot_index;

  std::vector<std::string> tables;
  std::map<std::string, int> table_index;

  std::vector<Instruction> instructions;

  size_t n_steps = 0;       // original script steps
  int64_t fused_steps = 0;  // n_steps - instructions.size()
  double compile_seconds = 0;
};

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_PROGRAM_H_
