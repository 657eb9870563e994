#include "src/storage/table.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

Table::Table(std::string name, Schema schema,
             std::vector<std::string> key_columns, AccessStats* stats)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_columns_(std::move(key_columns)),
      stats_(stats) {
  IDIVM_CHECK(stats_ != nullptr, "Table requires an AccessStats sink");
  IDIVM_CHECK(!key_columns_.empty(),
              StrCat("table ", name_, " needs a primary key"));
  key_indices_ = schema_.ColumnIndices(key_columns_);
  primary_.columns = key_indices_;
}

void Table::IndexInsert(HashIndex& index, size_t slot) {
  const size_t h = HashRowKey(rows_[slot], index.columns);
  index.buckets[h].push_back(slot);
}

void Table::IndexErase(HashIndex& index, size_t slot) {
  const size_t h = HashRowKey(rows_[slot], index.columns);
  auto it = index.buckets.find(h);
  if (it == index.buckets.end()) return;
  auto& bucket = it->second;
  bucket.erase(std::remove(bucket.begin(), bucket.end(), slot), bucket.end());
  if (bucket.empty()) index.buckets.erase(it);
}

std::vector<size_t> Table::IndexProbe(const HashIndex& index,
                                      const Row& key) const {
  std::vector<size_t> out;
  size_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : key) {
    h ^= v.Hash();
    h *= 0x100000001b3ULL;
  }
  const auto it = index.buckets.find(h);
  if (it == index.buckets.end()) return out;
  for (size_t slot : it->second) {
    if (!live_[slot]) continue;
    bool match = true;
    for (size_t i = 0; i < index.columns.size(); ++i) {
      if (rows_[slot][index.columns[i]].Compare(key[i]) != 0) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(slot);
  }
  return out;
}

Table::HashIndex& Table::GetOrCreateIndex(const std::vector<size_t>& columns) {
  if (columns == key_indices_) return primary_;
  // Serialized: two views refreshing in parallel may both probe a shared
  // base table, find the index missing and try to create it.
  std::lock_guard<std::mutex> lock(secondary_mutex_);
  for (HashIndex& idx : secondary_) {
    if (idx.columns == columns) return idx;
  }
  secondary_.emplace_back();
  HashIndex& idx = secondary_.back();
  idx.columns = columns;
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) IndexInsert(idx, slot);
  }
  return idx;
}

void Table::EnsureIndex(const std::vector<std::string>& columns) {
  GetOrCreateIndex(schema_.ColumnIndices(columns));
}

bool Table::Insert(Row row) {
  IDIVM_CHECK(row.size() == schema_.num_columns(),
              StrCat("bad arity inserting into ", name_));
  const Row key = ProjectRow(row, key_indices_);
  if (!IndexProbe(primary_, key).empty()) return false;  // PK violation
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    rows_[slot] = std::move(row);
    live_[slot] = true;
  } else {
    slot = rows_.size();
    rows_.push_back(std::move(row));
    live_.push_back(true);
  }
  ++live_count_;
  IndexInsert(primary_, slot);
  for (HashIndex& idx : secondary_) IndexInsert(idx, slot);
  ChargeWrites(1);
  return true;
}

void Table::EraseSlot(size_t slot) {
  IndexErase(primary_, slot);
  for (HashIndex& idx : secondary_) IndexErase(idx, slot);
  live_[slot] = false;
  free_slots_.push_back(slot);
  --live_count_;
}

bool Table::DeleteByKey(const Row& key) {
  ChargeLookup();
  const std::vector<size_t> slots = IndexProbe(primary_, key);
  if (slots.empty()) return false;
  EraseSlot(slots.front());
  ChargeWrites(1);
  return true;
}

bool Table::UpdateByKey(const Row& key, const std::vector<size_t>& set_columns,
                        const Row& new_values) {
  ChargeLookup();
  const std::vector<size_t> slots = IndexProbe(primary_, key);
  if (slots.empty()) return false;
  const size_t slot = slots.front();
  // Updating indexed columns must keep secondary indexes consistent.
  for (HashIndex& idx : secondary_) IndexErase(idx, slot);
  IndexErase(primary_, slot);
  for (size_t i = 0; i < set_columns.size(); ++i) {
    rows_[slot][set_columns[i]] = new_values[i];
  }
  IndexInsert(primary_, slot);
  for (HashIndex& idx : secondary_) IndexInsert(idx, slot);
  ChargeWrites(1);
  return true;
}

size_t Table::DeleteWhereEquals(const std::vector<size_t>& columns,
                                const Row& key,
                                std::vector<Row>* pre_images) {
  HashIndex& idx = GetOrCreateIndex(columns);
  ChargeLookup();
  const std::vector<size_t> slots = IndexProbe(idx, key);
  for (size_t slot : slots) {
    if (pre_images != nullptr) pre_images->push_back(rows_[slot]);
    EraseSlot(slot);
    ChargeWrites(1);
  }
  return slots.size();
}

size_t Table::UpdateWhereEquals(const std::vector<size_t>& match_columns,
                                const Row& key,
                                const std::vector<size_t>& set_columns,
                                const Row& new_values) {
  return UpdateRowsWhereEquals(
      match_columns, key, [&](Row& row) {
        for (size_t i = 0; i < set_columns.size(); ++i) {
          row[set_columns[i]] = new_values[i];
        }
      });
}

namespace {

bool ColumnsIntersect(const std::vector<size_t>& a,
                      const std::vector<size_t>& b) {
  for (size_t x : a) {
    for (size_t y : b) {
      if (x == y) return true;
    }
  }
  return false;
}

}  // namespace

size_t Table::UpdateRowsWhereEquals(const std::vector<size_t>& match_columns,
                                    const Row& key,
                                    const std::function<void(Row&)>& mutator,
                                    std::vector<Row>* pre_images,
                                    std::vector<Row>* post_images,
                                    const std::vector<size_t>* mutated_columns) {
  HashIndex& match_idx = GetOrCreateIndex(match_columns);
  ChargeLookup();
  const std::vector<size_t> slots = IndexProbe(match_idx, key);
  if (slots.empty()) return 0;
  // With a mutated-column hint, an index whose key columns the mutator
  // cannot touch keeps its entries: the slot number is stable and the
  // hashed key bytes are unchanged, so erase+reinsert would be a no-op
  // bought with two full key hashes per row.
  bool reindex_primary = true;
  std::vector<HashIndex*> reindex;
  for (HashIndex& idx : secondary_) reindex.push_back(&idx);
  if (mutated_columns != nullptr) {
    reindex_primary = ColumnsIntersect(primary_.columns, *mutated_columns);
    reindex.erase(std::remove_if(reindex.begin(), reindex.end(),
                                 [&](const HashIndex* idx) {
                                   return !ColumnsIntersect(idx->columns,
                                                            *mutated_columns);
                                 }),
                  reindex.end());
  }
  for (size_t slot : slots) {
    if (pre_images != nullptr) pre_images->push_back(rows_[slot]);
    for (HashIndex* idx : reindex) IndexErase(*idx, slot);
    if (reindex_primary) IndexErase(primary_, slot);
    mutator(rows_[slot]);
    if (reindex_primary) IndexInsert(primary_, slot);
    for (HashIndex* idx : reindex) IndexInsert(*idx, slot);
    if (post_images != nullptr) post_images->push_back(rows_[slot]);
    ChargeWrites(1);
  }
  return slots.size();
}

std::optional<Row> Table::LookupByKey(const Row& key) {
  ChargeLookup();
  const std::vector<size_t> slots = IndexProbe(primary_, key);
  if (slots.empty()) return std::nullopt;
  ChargeReads(1);
  return rows_[slots.front()];
}

std::optional<Row> Table::LookupByKeyUncounted(const Row& key) const {
  const std::vector<size_t> slots = IndexProbe(primary_, key);
  if (slots.empty()) return std::nullopt;
  return rows_[slots.front()];
}

std::vector<Row> Table::LookupWhereEquals(const std::vector<size_t>& columns,
                                          const Row& key) {
  HashIndex& idx = GetOrCreateIndex(columns);
  ChargeLookup();
  const std::vector<size_t> slots = IndexProbe(idx, key);
  std::vector<Row> out;
  out.reserve(slots.size());
  for (size_t slot : slots) {
    ChargeReads(1);
    out.push_back(rows_[slot]);
  }
  return out;
}

bool Table::ContainsRow(const Row& row) {
  ChargeLookup();
  const Row key = ProjectRow(row, key_indices_);
  const std::vector<size_t> slots = IndexProbe(primary_, key);
  for (size_t slot : slots) {
    ChargeReads(1);
    if (CompareRows(rows_[slot], row) == 0) return true;
  }
  return false;
}

Relation Table::ScanAll() {
  Relation out(schema_);
  ForEachRow([&out](const Row& row) { out.Append(row); });
  return out;
}

void Table::ForEachRow(const std::function<void(const Row&)>& fn) {
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    ChargeReads(1);
    fn(rows_[slot]);
  }
}

Relation Table::SnapshotUncounted() const {
  Relation out(schema_);
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) out.Append(rows_[slot]);
  }
  return out;
}

void Table::ForEachRowUncounted(
    const std::function<void(const Row&)>& fn) const {
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) fn(rows_[slot]);
  }
}

void Table::BulkLoadUncounted(const Relation& data) {
  IDIVM_CHECK(data.schema().ColumnNames() == schema_.ColumnNames(),
              StrCat("bulk load schema mismatch for ", name_));
  rows_.clear();
  live_.clear();
  free_slots_.clear();
  live_count_ = 0;
  primary_.buckets.clear();
  for (HashIndex& idx : secondary_) idx.buckets.clear();
  for (const Row& row : data.rows()) {
    const size_t slot = rows_.size();
    rows_.push_back(row);
    live_.push_back(true);
    ++live_count_;
    IndexInsert(primary_, slot);
    for (HashIndex& idx : secondary_) IndexInsert(idx, slot);
  }
}

}  // namespace idivm
