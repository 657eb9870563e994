// View-maintenance-time execution (Section 3, blue components): the ∆-script
// executor. Takes the net base-table changes, populates the input i-diff
// instances, reconstructs pre-states where the script needs them, and runs
// the script — lowered once to a CompiledProgram and executed by the
// register VM (src/exec) — attributing costs and wall time to the phases of
// Fig. 12 (diff computation / cache update / view update).
//
// With MaintainOptions::threads > 1 the VM schedules steps over the rule
// DAG (Fig. 6): steps whose input diffs are ready and whose stored-table
// accesses do not conflict run concurrently on a thread pool, so the
// independent per-base-table diff chains of the script proceed in parallel.
// Blocking (aggregation) steps act as barriers. Per-step costs accumulate in
// thread-private StatsArenas and are merged single-threaded in script order,
// so view contents and every AccessStats counter are identical to sequential
// execution (asserted by parallel_maintain_test).

#ifndef IDIVM_CORE_MAINTAINER_H_
#define IDIVM_CORE_MAINTAINER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/core/compose.h"
#include "src/core/modification_log.h"
#include "src/core/step_access.h"
#include "src/diff/apply.h"
#include "src/obs/trace.h"
#include "src/robust/deadline.h"
#include "src/robust/epoch.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"
#include "src/storage/database.h"

namespace idivm {

namespace exec {
struct CompiledProgram;
class ProgramCache;
}  // namespace exec

struct PhaseCost {
  AccessStats accesses;
  double seconds = 0;

  PhaseCost& operator+=(const PhaseCost& other) {
    accesses += other.accesses;
    seconds += other.seconds;
    return *this;
  }
};

struct MaintainOptions {
  // Number of worker threads executing the ∆-script. 1 (the default) runs
  // the steps sequentially on the calling thread — the pre-parallel
  // behaviour, bit for bit. Values > 1 enable the DAG scheduler.
  int threads = 1;
  // Fault-injection hook (chaos tests / benches); nullptr leaves the hot
  // path fault-free.
  FaultInjector* fault = nullptr;
  // Cooperative refresh deadline (robust::Deadline), checked at the same
  // sites as fault injection. An expired deadline fails the epoch with
  // kDeadlineExceeded — roll back, then the ladder — so a stalled refresh
  // cannot hang a long-running service. nullptr disables.
  robust::Deadline* deadline = nullptr;
  // Epoch op budget: when > 0, an epoch that mutates more than this many
  // stored-table rows fails with kResourceExhausted (and rolls back).
  // 0 = unlimited.
  int64_t max_epoch_ops = 0;
  // Span recorder for this epoch (docs/OBSERVABILITY.md). nullptr falls
  // back to obs::GlobalTrace(); tracing is off when both are null. A
  // committed epoch records one "epoch" span, one "setup" span and one
  // "rule" span per ∆-script step (APPLY steps get a nested "apply" span),
  // each carrying its exact AccessStats delta; a failed epoch records only
  // the "epoch" span, marked failed=1, since its charges rolled back. The
  // first epoch of a maintainer without a cached program also records the
  // zero-charge "compile" span, whether the epoch then commits or fails.
  obs::TraceRecorder* trace = nullptr;
  // When set, a *committed* epoch moves its undo log here instead of
  // discarding it: the same (Table*, Modification) records, in per-table
  // program order, now read forward as the epoch's redo delta. ViewManager
  // uses this in snapshot-read mode to derive the next MVCC table versions
  // (src/mvcc) from exactly what the epoch changed. A failed epoch still
  // rolls back and leaves `redo` untouched.
  EpochUndo* redo = nullptr;
  // Program cache the epoch's CompiledProgram comes from. nullptr: the
  // maintainer compiles its view on its first epoch and keeps the program
  // privately (bench/one-shot use).
  exec::ProgramCache* programs = nullptr;
};

struct MaintainResult {
  PhaseCost diff_computation;
  PhaseCost cache_update;
  PhaseCost view_update;
  // Apply-level counters (overestimation visibility, Section 1).
  int64_t diff_tuples_applied = 0;
  int64_t rows_touched = 0;
  int64_t dummy_tuples = 0;

  AccessStats TotalAccesses() const;
  double TotalSeconds() const;
  std::string ToString() const;
};

class Maintainer {
 public:
  // `db` must outlive the maintainer; `view` is the compiled view whose
  // script this maintainer executes.
  Maintainer(Database* db, CompiledView view);

  const CompiledView& view() const { return view_; }

  // Runs the ∆-script for the given net base-table changes (from
  // ModificationLogger::NetChanges). Does not clear any log. Aborts the
  // process on script errors — the infallible wrapper around TryMaintain
  // for call sites that treat maintenance failure as a bug.
  MaintainResult Maintain(
      const std::map<std::string, std::vector<Modification>>& net_changes,
      const MaintainOptions& options = {});

  // Fault-isolated epoch execution: runs the ∆-script recording an undo
  // entry per stored-table row it mutates (view, caches, γ operator
  // caches). On any failure — corrupt script, apply conflict, exhausted op
  // budget, injected fault, from any worker thread — every table is rolled
  // back to its pre-epoch contents, no AccessStats are published (per-step
  // arenas are simply dropped), `*result` is left untouched, and the error
  // is returned. On success behaves exactly like Maintain.
  Status TryMaintain(
      const std::map<std::string, std::vector<Modification>>& net_changes,
      const MaintainOptions& options, MaintainResult* result);

  // Observability hook: called for every APPLY step just before execution
  // with the target table name and the diff instance. Used by tests to
  // verify the Section 2 effectiveness conditions on emitted diffs, and by
  // embedders for audit logging. Not part of the cost model. With
  // options.threads > 1 the observer may be invoked from worker threads
  // (APPLY steps to *different* targets can run concurrently); it must be
  // thread-safe then.
  using ApplyObserver =
      std::function<void(const std::string& target, const DiffInstance&)>;
  void set_apply_observer(ApplyObserver observer) {
    apply_observer_ = std::move(observer);
  }

 private:
  // The compiled program for this epoch: from options.programs when set,
  // else compiled once and kept privately.
  const exec::CompiledProgram* CompiledProgramFor(
      const MaintainOptions& options, obs::TraceRecorder* trace);

  ApplyObserver apply_observer_;
  Database* db_;
  CompiledView view_;
  // Tables the script reads in pre-state (computed once from the script).
  std::vector<std::string> pre_state_tables_;
  // Per-step label and phase (computed once from the script), for the
  // merge's attribution, rule counters and spans.
  std::vector<StepAccess> step_access_;
  // Keeps the active program (and a privately-compiled one) alive across
  // the epoch.
  std::shared_ptr<const exec::CompiledProgram> program_;
};

}  // namespace idivm

#endif  // IDIVM_CORE_MAINTAINER_H_
