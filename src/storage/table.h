// Stored, indexed relations.
//
// A Table is a slotted row store with a unique primary-key hash index and
// secondary hash indexes on arbitrary column subsets (created on demand —
// idIVM applies i-diffs through indexes on subsets of a view's key
// components, Section 2). Every access is charged to the owning Database's
// AccessStats, implementing the Section 6 cost model.

#ifndef IDIVM_STORAGE_TABLE_H_
#define IDIVM_STORAGE_TABLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/access_stats.h"
#include "src/types/relation.h"
#include "src/types/schema.h"

namespace idivm {

class Table {
 public:
  // `key_columns` name the primary key (must be non-empty and exist in
  // `schema`). `stats` is owned by the enclosing Database and may not be
  // null; it outlives the table.
  Table(std::string name, Schema schema, std::vector<std::string> key_columns,
        AccessStats* stats);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<std::string>& key_columns() const { return key_columns_; }
  const std::vector<size_t>& key_indices() const { return key_indices_; }

  // Number of live rows.
  size_t size() const { return live_count_; }

  // ---- Modification API (each row touched charges tuple_writes) ----

  // Inserts a row. Returns false (and does not charge a write) when a row
  // with the same primary key already exists.
  bool Insert(Row row);

  // Deletes the row with the given primary key. Returns true if it existed.
  bool DeleteByKey(const Row& key);

  // Updates columns `set_columns` of the row with primary key `key` to
  // `new_values`. Returns true if the row existed.
  bool UpdateByKey(const Row& key, const std::vector<size_t>& set_columns,
                   const Row& new_values);

  // Deletes every row whose `columns` equal `key` (via a secondary index).
  // Returns the number of rows deleted. When `pre_images` is non-null the
  // deleted rows are appended to it (RETURNING).
  size_t DeleteWhereEquals(const std::vector<size_t>& columns, const Row& key,
                           std::vector<Row>* pre_images = nullptr);

  // Updates `set_columns` of every row whose `match_columns` equal `key`.
  // Returns the number of rows updated (rows whose current values already
  // equal the new values still count as touched, matching the DML model).
  size_t UpdateWhereEquals(const std::vector<size_t>& match_columns,
                           const Row& key,
                           const std::vector<size_t>& set_columns,
                           const Row& new_values);

  // General in-place update: applies `mutator` to every row whose
  // `match_columns` equal `key` (one index lookup + one tuple write per
  // touched row — the paper's UPDATE cost). Optionally captures the rows
  // before/after mutation (PostgreSQL's UPDATE .. RETURNING, which the
  // ID-based algorithm uses to obtain cache diffs for free, Appendix A.2).
  //
  // When `mutated_columns` is non-null it is a caller contract that
  // `mutator` writes no column outside that set; indexes whose key columns
  // are disjoint from it keep their entries (slots are stable and the
  // hashed key bytes cannot change), skipping the erase/rehash/insert
  // round-trip per index per row. Charges are identical either way — the
  // cost model counts tuple writes, not index touches.
  size_t UpdateRowsWhereEquals(const std::vector<size_t>& match_columns,
                               const Row& key,
                               const std::function<void(Row&)>& mutator,
                               std::vector<Row>* pre_images = nullptr,
                               std::vector<Row>* post_images = nullptr,
                               const std::vector<size_t>* mutated_columns =
                                   nullptr);

  // ---- Read API (charges index_lookups / tuple_reads) ----

  // Primary-key point lookup; returns a copy of the row if present.
  std::optional<Row> LookupByKey(const Row& key);

  // Like LookupByKey but charges nothing (used by the modification logger at
  // data-modification time, which is outside the maintenance cost model).
  std::optional<Row> LookupByKeyUncounted(const Row& key) const;

  // All rows whose `columns` equal `key`, via a secondary (or primary)
  // hash index. Charges 1 index lookup + 1 read per returned row.
  std::vector<Row> LookupWhereEquals(const std::vector<size_t>& columns,
                                     const Row& key);

  // True iff a row with exactly these values exists (full-row membership,
  // used by the insert i-diff APPLY guard). Charges 1 index lookup on the
  // primary key plus reads for rows inspected.
  bool ContainsRow(const Row& row);

  // Full scan: copies all live rows. Charges one read per row.
  Relation ScanAll();

  // Full scan streamed to `fn` in slot order without copying; charges one
  // read per row. `fn` must not modify this table.
  void ForEachRow(const std::function<void(const Row&)>& fn);

  // Reads table contents without charging accesses (testing / setup / full
  // recomputation baselines that are costed separately).
  Relation SnapshotUncounted() const;

  // Streams every live row to `fn` without charging accesses or copying
  // the relation (snapshot serialization, src/persist).
  void ForEachRowUncounted(const std::function<void(const Row&)>& fn) const;

  // Replaces the entire contents without charging accesses (bulk load).
  void BulkLoadUncounted(const Relation& data);

  // Ensures a hash index exists on the named columns (no cost; the paper's
  // model assumes indices pre-exist at maintenance time).
  void EnsureIndex(const std::vector<std::string>& columns);

  // Per-table accesses (in addition to the Database-wide counter): lets
  // benches separate base-table accesses from view/cache accesses — the
  // quantity the paper's Section 9 insert-i-diff extension minimizes.
  const AccessStats& local_stats() const { return local_stats_; }
  void ResetLocalStats() { local_stats_.Reset(); }

 private:
  // Charges go through ChargeSink so a thread refreshing a view under a
  // StatsArena accumulates privately instead of racing on the shared
  // counters (parallel refresh; see access_stats.h).
  void ChargeLookup() {
    ++ChargeSink(stats_).index_lookups;
    ++ChargeSink(&local_stats_).index_lookups;
  }
  void ChargeReads(int64_t n) {
    ChargeSink(stats_).tuple_reads += n;
    ChargeSink(&local_stats_).tuple_reads += n;
  }
  void ChargeWrites(int64_t n) {
    ChargeSink(stats_).tuple_writes += n;
    ChargeSink(&local_stats_).tuple_writes += n;
  }
  struct HashIndex {
    std::vector<size_t> columns;  // column indices
    std::unordered_map<size_t, std::vector<size_t>> buckets;  // hash -> slots
  };

  void IndexInsert(HashIndex& index, size_t slot);
  void IndexErase(HashIndex& index, size_t slot);
  // Slots (live) whose `index.columns` equal `key`.
  std::vector<size_t> IndexProbe(const HashIndex& index, const Row& key) const;
  HashIndex& GetOrCreateIndex(const std::vector<size_t>& columns);
  void EraseSlot(size_t slot);

  std::string name_;
  Schema schema_;
  std::vector<std::string> key_columns_;
  std::vector<size_t> key_indices_;
  AccessStats* stats_;
  AccessStats local_stats_;

  std::vector<Row> rows_;
  std::vector<bool> live_;
  std::vector<size_t> free_slots_;
  size_t live_count_ = 0;

  HashIndex primary_;                  // unique index on key_indices_
  // Two views refreshing in parallel may both probe a shared base table on
  // a secondary index it does not have yet, so creation is serialized and
  // the container keeps references stable across appends (deque, not
  // vector). Probing an existing index needs no lock: a parallel refresh
  // only reads base tables, and each view writes only its own view and
  // cache tables.
  std::deque<HashIndex> secondary_;    // created on demand
  std::mutex secondary_mutex_;
};

}  // namespace idivm

#endif  // IDIVM_STORAGE_TABLE_H_
