// Compiled ∆-script programs: the data structures produced by the
// ScriptCompiler (compiler.h) and executed by the register-based VM (vm.h).
//
// A CompiledProgram lowers a DeltaScript into a flat instruction list over
// slot registers (one per transient relation name). Everything evaluating
// the script step by step would resolve per epoch — column offsets,
// expression bindings, join strategies, probe-key subsets, diff-schema
// lookups, table handles — is resolved once at compile time. Executing a
// program is byte-identical to that step-by-step evaluation: same table
// contents, same AccessStats charges, same fault sites, same error
// messages, in the same order (pinned by the golden files under
// tests/golden/exec_parity/).

#ifndef IDIVM_EXEC_PROGRAM_H_
#define IDIVM_EXEC_PROGRAM_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/plan.h"
#include "src/core/aggregate_exec.h"
#include "src/core/delta_script.h"
#include "src/exec/agg_kernel.h"
#include "src/expr/expr.h"

namespace idivm {
namespace exec {

// One node of a compiled keyed-probe path (the static form of the
// evaluator's DoProbe decision tree). Children are indices into
// CompiledProgram::probe_ops.
struct ProbeOp {
  enum class Kind {
    kScan,      // stored hash-index lookup (post- or pre-state)
    kSelect,    // prebound predicate filter over the child's probe result
    kProject,   // prebound rename/projection; probes the child on inner cols
    kCoalesce,  // Section 9 view-assisted probe: primary, dedup, fallback
    kJoin,      // chained index nested loop through the join's equi keys
  };
  Kind kind = Kind::kScan;
  int child0 = -1;
  int child1 = -1;
  // kScan
  int table_id = -1;
  bool pre_state = false;
  std::vector<size_t> key_cols;  // probe columns resolved to table offsets
  // kSelect (child schema), kProject (all items over the child schema)
  std::optional<BoundExpr> pred;
  std::vector<BoundExpr> exprs;
  // kCoalesce: true when the probe key cannot cover the base table's
  // primary key (static half of the fallback decision); the runtime half is
  // the assist-unsafe table set.
  bool static_unsafe = false;
  // kJoin
  bool first_is_left = false;
  std::vector<size_t> link_cols;  // equi cols resolved into the first side
  std::optional<BoundExpr> residual;  // over left ++ right
};

// One node of a compiled relational expression (the static form of the
// evaluator's EvaluateImpl / EvalJoin / EvalSemi decision trees). Children
// are indices into CompiledProgram::plan_ops.
struct PlanOp {
  enum class Kind {
    kScan,           // stored full scan (post- or pre-state)
    kSlotRef,        // borrow a slot register (free)
    kEmptyRef,       // statically-empty minimizer ref
    kSelect,         // prebound σ
    kProject,        // prebound π
    kFilterProject,  // fused σ+π single pass (the SPJ diff kernel)
    kUnionAll,       // bag union with branch attribute
    kJoinProbe,      // transient side driving a compiled probe path
    kJoinHash,       // hash join over materialized inputs
    kJoinNl,         // nested loop (no equi conjuncts)
    kSemiProbeLeft,  // transient left ⋉/⋉̄ stored right via probe path
    kSemiProbeRight, // stored left ⋉ transient right via probe path
    kSemiHash,       // ⋉/⋉̄ hash fallback
    kSemiNl,         // ⋉/⋉̄ nested loop (no equi conjuncts)
    kAggregate,      // γ plan node (prebound group/arg offsets)
    kFallback,       // uncompilable subtree: evaluator Evaluate()
  };
  Kind kind = Kind::kFallback;
  int child0 = -1;
  int child1 = -1;
  Schema out_schema;
  // kScan
  int table_id = -1;
  bool pre_state = false;
  // kSlotRef
  int slot = -1;
  // kSelect / kFilterProject / kJoinNl / kSemiNl (full predicate)
  std::optional<BoundExpr> pred;
  // kProject / kFilterProject
  std::vector<BoundExpr> exprs;
  // join / semijoin strategies
  std::optional<BoundExpr> residual;   // over left ++ right
  std::vector<size_t> lk_all;          // all equi-key offsets, left side
  std::vector<size_t> rk_all;          // all equi-key offsets, right side
  std::vector<size_t> subset;          // probe-key subset positions
  std::vector<size_t> probe_key_cols;  // subset offsets in the driving side
  int probe_root = -1;                 // ProbeOp index for the stored side
  size_t left_ncols = 0;
  // Which side is transient-only: 0 = left (evaluate first, empty
  // short-circuits), 1 = right, 2 = neither.
  int transient_first = 2;
  bool anti = false;
  bool partial = false;  // kSemiProbeRight: dedup emitted left rows
  // kAggregate
  std::vector<size_t> group_cols;
  std::vector<std::optional<BoundExpr>> agg_args;
  // kAggregate (specs) and kFallback (whole subtree)
  PlanPtr plan;
};

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
  int plan_root = -1;
  bool has_fallback = false;  // plan tree contains a kFallback op
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
// Stored tables are referenced by name (`tables`) and resolved to handles
// once per epoch — a cached program never holds stale Table pointers.
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

  std::vector<PlanOp> plan_ops;
  std::vector<ProbeOp> probe_ops;
  std::vector<Instruction> instructions;

  size_t n_steps = 0;       // original script steps
  int64_t fused_steps = 0;  // n_steps - instructions.size()
  double compile_seconds = 0;
};

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_PROGRAM_H_
