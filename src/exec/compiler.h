// The ∆-script compiler: lowers a CompiledView's DeltaScript into a
// CompiledProgram (program.h) executed by the register VM (vm.h). Every
// decision the evaluator (algebra/evaluator.h) would make per epoch from
// plan structure and stored schemas — join strategy selection, probe-key
// subsets, expression binding, diff-schema lookups, γ bindings — is made
// once here; subtrees the compiler cannot prove byte-identical
// (statically-unbound relation refs, scans of missing tables) lower to
// evaluator-fallback ops, so a compiled program never diverges from
// evaluating the script, it only skips per-epoch work.

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
