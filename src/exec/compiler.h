// The ∆-script compiler: lowers a CompiledView's DeltaScript into a
// CompiledProgram (program.h) executed by the register VM (vm.h). It
// assigns slot registers and table ids, prepares each compute step's plan
// and each γ step's recompute probe against the stored-table schemas
// (algebra/evaluator.h), fuses computes into the APPLY they feed, groups
// APPLYs to one target, and prebinds γ steps with their kernels. Relation
// refs are read from their slot registers and typed by the names the script
// binds before each step (StaticBindings); a ref the walk does not know
// keeps its declared schema, and one without a slot is looked up by name
// when it runs, as in a one-shot Evaluate.

#ifndef IDIVM_EXEC_COMPILER_H_
#define IDIVM_EXEC_COMPILER_H_

#include <memory>

#include "src/core/compose.h"
#include "src/exec/program.h"
#include "src/obs/trace.h"
#include "src/storage/database.h"

namespace idivm {
namespace exec {

// Compiles `view`'s script against the stored-table schemas in `db`.
// Records a "compile" trace span on `trace` (nullptr: no span) and observes
// the idivm_compile_seconds / idivm_fused_steps_total metrics. Never fails.
std::shared_ptr<const CompiledProgram> CompileProgram(
    const CompiledView& view, const Database& db, obs::TraceRecorder* trace);

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_COMPILER_H_
