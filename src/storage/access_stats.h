// The Section 6 cost model: idIVM's formal analysis measures IVM cost as the
// combined number of tuple accesses and index lookups incurred by a
// ∆/D-script. Every base-table / view / cache touch in this engine is charged
// to an AccessStats instance so benchmarks can report exactly the quantities
// of Tables 2 and 3 of the paper alongside wall-clock time.

#ifndef IDIVM_STORAGE_ACCESS_STATS_H_
#define IDIVM_STORAGE_ACCESS_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace idivm {

struct AccessStats {
  // One per index probe (hash or B-tree descent in the paper's model).
  int64_t index_lookups = 0;
  // One per tuple read from a stored relation (base table, view or cache).
  int64_t tuple_reads = 0;
  // One per tuple inserted/deleted/updated in a stored relation.
  int64_t tuple_writes = 0;

  // ---- Degradation-ladder accounting (src/robust) ----
  // Rung transitions of ViewManager's failure ladder, recorded here so
  // benches can price degradation alongside the paper's cost model. Rung
  // *work* (a retry, a recompute) is charged to the access
  // counters above like any other work; these count the transitions
  // themselves and are excluded from TotalAccesses(). A failed epoch's
  // access charges are rolled back; its rollback counter is not.
  int64_t epoch_rollbacks = 0;      // epochs that failed and were undone
  int64_t degraded_retries = 0;     // rung 1: epoch re-runs
  int64_t recompute_fallbacks = 0;  // rung 2: view rematerializations
  int64_t quarantines = 0;          // rung 3: views taken out of service

  // The paper's combined cost: data accesses = lookups + reads + writes.
  int64_t TotalAccesses() const {
    return index_lookups + tuple_reads + tuple_writes;
  }

  AccessStats& operator+=(const AccessStats& other);
  friend AccessStats operator-(AccessStats a, const AccessStats& b);

  void Reset() { *this = AccessStats(); }

  std::string ToString() const;
};

// ---- Deferred charging (per-view and per-step attribution) ---------------
//
// The cost model shares one AccessStats per database (plus one per table).
// When views refresh concurrently, charging those shared counters directly
// would be a data race and would make per-view cost attribution
// order-dependent; and a failed epoch must publish nothing. A StatsArena
// redirects every charge on the installing thread into private
// per-destination accumulators. The maintainer gives each ∆-script step
// its own arena and publishes them in script order once the epoch commits;
// a parallel Refresh gives each view an arena and publishes them in
// definition order — so the final counters are byte-identical to a
// sequential refresh.

// Private accumulator keyed by the counter the charge was aimed at.
class StatsArena {
 public:
  // The accumulator standing in for `dest` (created on first use).
  AccessStats& For(AccessStats* dest);

  // Accumulated charges aimed at `dest` (zero if none).
  AccessStats Sum(const AccessStats* dest) const;

  // Adds every accumulated entry into its destination — or, when a
  // StatsArena is active on the calling thread, into that arena (so nested
  // scopes compose: step arenas publish into an enclosing per-view arena,
  // which publishes into the real counters). Clears this arena.
  void Publish();

 private:
  // Small linear map: a script step touches a handful of tables.
  std::vector<std::pair<AccessStats*, AccessStats>> entries_;
  size_t last_hit_ = 0;
};

// Installs `arena` as the calling thread's charge target for its lifetime;
// restores the previous target (arenas nest) on destruction.
class ScopedStatsArena {
 public:
  explicit ScopedStatsArena(StatsArena* arena);
  ~ScopedStatsArena();

  ScopedStatsArena(const ScopedStatsArena&) = delete;
  ScopedStatsArena& operator=(const ScopedStatsArena&) = delete;

  // The calling thread's active arena, or nullptr.
  static StatsArena* Current();

 private:
  StatsArena* prev_;
};

// The counter a charge aimed at `dest` must hit on this thread: `dest`
// itself, or the active arena's accumulator for it.
AccessStats& ChargeSink(AccessStats* dest);

}  // namespace idivm

#endif  // IDIVM_STORAGE_ACCESS_STATS_H_
