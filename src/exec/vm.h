// The register VM executing CompiledPrograms (program.h) — the only
// ∆-script executor. Slot registers hold transient relations, instructions
// run sequentially or over the rule conflict DAG (threads > 1), and every
// micro-op performs the full per-step bookkeeping — private StatsArena,
// fault sites, trace windows, undo capture, op-budget check — so an epoch
// is identical at every thread count in table contents, AccessStats, fault
// behaviour and error messages.

#ifndef IDIVM_EXEC_VM_H_
#define IDIVM_EXEC_VM_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/evaluator.h"
#include "src/core/step_access.h"
#include "src/diff/diff_instance.h"
#include "src/exec/program.h"
#include "src/obs/trace.h"
#include "src/robust/deadline.h"
#include "src/robust/epoch.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"
#include "src/storage/database.h"

namespace idivm {
namespace exec {

// Everything one epoch execution needs. All pointers are borrowed and must
// outlive the Execute call; `runs` must be sized to the program's step
// count (the VM fills one record per original script step, which the
// maintainer's merge loop reads).
struct ExecEnv {
  Database* db = nullptr;
  const CompiledProgram* program = nullptr;
  // The epoch's input diff instances (one per input binding).
  const std::map<std::string, DiffInstance>* instances = nullptr;
  const std::map<std::string, IndexedRelation>* pre_state = nullptr;
  const std::set<std::string>* assist_unsafe = nullptr;
  EpochUndo* undo = nullptr;
  FaultInjector* fault = nullptr;
  // Cooperative refresh deadline, checked at the same sites as `fault`.
  robust::Deadline* deadline = nullptr;
  int64_t max_epoch_ops = 0;
  int threads = 1;
  obs::TraceRecorder* trace = nullptr;
  const std::function<void(const std::string&, const DiffInstance&)>*
      apply_observer = nullptr;
  std::vector<StepRun>* runs = nullptr;
};

// Runs the program. On error the epoch's partial mutations are already in
// `undo`; the caller rolls back.
Status Execute(const ExecEnv& env);

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_VM_H_
