// Fingerprint-keyed cache of CompiledPrograms. ViewManager owns one: a
// view's program is compiled on the view's first refresh and reused until
// the catalog changes (DefineView / DropView / LoadRepository clear the
// cache — the only operations that can change a view's script or the
// stored schemas the compiler bound against). Keys are FNV-64 digests
// of the view's serialized form, so re-defining an identical view re-uses
// nothing stale and two views never collide in practice.

#ifndef IDIVM_EXEC_PROGRAM_CACHE_H_
#define IDIVM_EXEC_PROGRAM_CACHE_H_

#include <map>
#include <memory>
#include <mutex>

#include "src/core/compose.h"
#include "src/exec/program.h"
#include "src/obs/trace.h"
#include "src/storage/database.h"

namespace idivm {
namespace exec {

// Thread-safe: concurrent per-view refreshes may look up programs while a
// miss compiles. Observes idivm_program_cache_hits_total /
// idivm_program_cache_misses_total.
class ProgramCache {
 public:
  // The cached program for `view`, compiling on miss.
  std::shared_ptr<const CompiledProgram> GetOrCompile(
      const CompiledView& view, const Database& db,
      obs::TraceRecorder* trace);

  // Drops every cached program (catalog changed).
  void Clear();

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<uint64_t, std::shared_ptr<const CompiledProgram>> cache_;
};

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_PROGRAM_CACHE_H_
