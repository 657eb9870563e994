#include "src/algebra/evaluator.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/expr/analysis.h"

namespace idivm {

IndexedRelation::IndexedRelation(Relation data, AccessStats* stats)
    : data_(std::move(data)), stats_(stats) {
  IDIVM_CHECK(stats_ != nullptr);
}

Relation IndexedRelation::ScanCounted() const {
  ChargeSink(stats_).tuple_reads += static_cast<int64_t>(data_.size());
  return data_;
}

void IndexedRelation::ForEachRow(
    const std::function<void(const Row&)>& fn) const {
  for (const Row& row : data_.rows()) {
    ++ChargeSink(stats_).tuple_reads;
    fn(row);
  }
}

const IndexedRelation::LazyIndex& IndexedRelation::GetOrBuildIndex(
    const std::vector<size_t>& columns) const {
  auto it = indexes_.find(columns);
  if (it == indexes_.end()) {
    // Build the index once; building is free in the paper's model (indices
    // are assumed to exist at maintenance time).
    LazyIndex index;
    for (size_t i = 0; i < data_.rows().size(); ++i) {
      index[HashRowKey(data_.rows()[i], columns)].push_back(i);
    }
    it = indexes_.emplace(columns, std::move(index)).first;
  }
  return it->second;
}

std::vector<Row> IndexedRelation::Probe(const std::vector<size_t>& columns,
                                        const Row& key) const {
  const LazyIndex& index = GetOrBuildIndex(columns);
  ++ChargeSink(stats_).index_lookups;
  std::vector<Row> out;
  size_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : key) {
    h ^= v.Hash();
    h *= 0x100000001b3ULL;
  }
  const auto bucket = index.find(h);
  if (bucket == index.end()) return out;
  for (size_t row_idx : bucket->second) {
    const Row& row = data_.rows()[row_idx];
    bool match = true;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (row[columns[i]].Compare(key[i]) != 0) {
        match = false;
        break;
      }
    }
    if (match) {
      ++ChargeSink(stats_).tuple_reads;
      out.push_back(row);
    }
  }
  return out;
}

namespace {

bool RowKeyHasNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

// ---- Probe paths -----------------------------------------------------------
//
// A plan subtree is "probeable" on a set of output columns when keyed lookups
// can be served by stored hash indexes at its Scan leaves, with selections,
// column-renaming projections and *chained joins* applied on the way out: a
// probe into Join(A, B) on columns of A probes A, then probes B per result
// row through the join's equi condition — exactly the chained diff-driven
// index-nested-loop plan the Section 6 analysis assumes over R1, ..., Rn.
//
// PlanJoinProbe / CheckProbeable / FindProbeableKeySubset are declared in
// the header: the src/exec compiler replays these exact decisions at
// compile time (they depend only on plan structure and stored schemas).

bool PlanJoinProbe(const PlanNode& join, const Schema& left_schema,
                   const Schema& right_schema,
                   const std::vector<std::string>& columns,
                   JoinProbePlan* out) {
  const std::set<std::string> left_cols = left_schema.ColumnNameSet();
  const std::set<std::string> right_cols = right_schema.ColumnNameSet();
  bool all_left = true;
  bool all_right = true;
  for (const std::string& col : columns) {
    all_left &= left_cols.count(col) > 0;
    all_right &= right_cols.count(col) > 0;
  }
  if (!all_left && !all_right) return false;
  std::vector<std::pair<std::string, std::string>> equi;
  const std::vector<ExprPtr> residual_conjuncts =
      ExtractEquiPairs(join.predicate(), left_cols, right_cols, &equi);
  if (equi.empty()) return false;
  out->first = all_left ? 0 : 1;
  out->first_link_cols.clear();
  out->second_link_cols.clear();
  for (const auto& [l, r] : equi) {
    if (all_left) {
      out->first_link_cols.push_back(l);
      out->second_link_cols.push_back(r);
    } else {
      out->first_link_cols.push_back(r);
      out->second_link_cols.push_back(l);
    }
  }
  out->residual = ConjoinAll(residual_conjuncts);
  return true;
}

bool CheckProbeable(const PlanPtr& plan,
                    const std::vector<std::string>& columns,
                    const Database& db) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return true;  // hash index on demand
    case PlanKind::kSelect:
      return CheckProbeable(plan->child(0), columns, db);
    case PlanKind::kProject: {
      std::vector<std::string> inner;
      inner.reserve(columns.size());
      for (const std::string& name : columns) {
        const ProjectItem* found = nullptr;
        for (const ProjectItem& item : plan->project_items()) {
          if (item.name == name) {
            found = &item;
            break;
          }
        }
        if (found == nullptr || found->expr->kind() != ExprKind::kColumn) {
          return false;  // probe column is computed, not a rename
        }
        inner.push_back(found->expr->column_name());
      }
      return CheckProbeable(plan->child(0), inner, db);
    }
    case PlanKind::kJoin: {
      JoinProbePlan probe;
      const Schema left_schema = InferSchema(plan->child(0), db);
      const Schema right_schema = InferSchema(plan->child(1), db);
      if (!PlanJoinProbe(*plan, left_schema, right_schema, columns, &probe)) {
        return false;
      }
      return CheckProbeable(plan->child(probe.first), columns, db) &&
             CheckProbeable(plan->child(1 - probe.first),
                            probe.second_link_cols, db);
    }
    case PlanKind::kCoalesceProbe:
      return CheckProbeable(plan->child(0), columns, db) &&
             CheckProbeable(plan->child(1), columns, db);
    default:
      return false;
  }
}

namespace {

// Keyed lookup through a probeable subtree. Returns matching rows in the
// subtree's output schema. Only the Scan leaf charges accesses.
std::vector<Row> DoProbe(const PlanPtr& plan,
                         const std::vector<std::string>& columns,
                         const Row& key, EvalContext& ctx, const Database& db) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      if (plan->state() == StateTag::kPre && ctx.pre_state != nullptr) {
        const auto it = ctx.pre_state->find(plan->table_name());
        if (it != ctx.pre_state->end()) {
          return it->second.Probe(it->second.schema().ColumnIndices(columns),
                                  key);
        }
      }
      Table& table = ctx.db->GetTable(plan->table_name());
      return table.LookupWhereEquals(table.schema().ColumnIndices(columns),
                                     key);
    }
    case PlanKind::kSelect: {
      std::vector<Row> rows = DoProbe(plan->child(0), columns, key, ctx, db);
      const Schema schema = InferSchema(plan->child(0), db);
      const BoundExpr predicate(plan->predicate(), schema);
      std::vector<Row> out;
      out.reserve(rows.size());
      for (Row& row : rows) {
        if (predicate.Holds(row)) out.push_back(std::move(row));
      }
      return out;
    }
    case PlanKind::kProject: {
      std::vector<std::string> inner;
      inner.reserve(columns.size());
      for (const std::string& name : columns) {
        for (const ProjectItem& item : plan->project_items()) {
          if (item.name == name) {
            inner.push_back(item.expr->column_name());
            break;
          }
        }
      }
      std::vector<Row> rows = DoProbe(plan->child(0), inner, key, ctx, db);
      const Schema child_schema = InferSchema(plan->child(0), db);
      std::vector<BoundExpr> exprs;
      exprs.reserve(plan->project_items().size());
      for (const ProjectItem& item : plan->project_items()) {
        exprs.emplace_back(item.expr, child_schema);
      }
      std::vector<Row> out;
      out.reserve(rows.size());
      for (const Row& row : rows) {
        Row projected;
        projected.reserve(exprs.size());
        for (const BoundExpr& e : exprs) projected.push_back(e.Eval(row));
        out.push_back(std::move(projected));
      }
      return out;
    }
    case PlanKind::kCoalesceProbe: {
      // Section 9 extension: try the view/cache copy first; its distinct
      // rows for a full-key probe coincide with the base relation's single
      // row. Fall back on miss, or when the base table received
      // updates/deletes this round (the copy may be mid-maintenance).
      bool unsafe =
          ctx.assist_unsafe_tables != nullptr &&
          ctx.assist_unsafe_tables->count(plan->table_name()) > 0;
      // The FD argument requires the probe key to cover the base table's
      // primary key (at most one base row per probe key).
      if (!unsafe && ctx.db->HasTable(plan->table_name())) {
        for (const std::string& key_col :
             ctx.db->GetTable(plan->table_name()).key_columns()) {
          if (std::find(columns.begin(), columns.end(), key_col) ==
              columns.end()) {
            unsafe = true;
            break;
          }
        }
      }
      if (!unsafe) {
        std::vector<Row> rows =
            DoProbe(plan->child(0), columns, key, ctx, db);
        if (!rows.empty()) {
          // The cache may hold several copies (one per join partner); they
          // agree on all projected columns — deduplicate.
          std::vector<Row> distinct;
          for (Row& row : rows) {
            bool seen = false;
            for (const Row& kept : distinct) {
              if (CompareRows(kept, row) == 0) {
                seen = true;
                break;
              }
            }
            if (!seen) distinct.push_back(std::move(row));
          }
          return distinct;
        }
      }
      return DoProbe(plan->child(1), columns, key, ctx, db);
    }
    case PlanKind::kJoin: {
      // Chained index nested loop: probe one side with the key, then probe
      // the other side per matching row through the equi condition.
      const Schema left_schema = InferSchema(plan->child(0), db);
      const Schema right_schema = InferSchema(plan->child(1), db);
      JoinProbePlan probe;
      IDIVM_CHECK(PlanJoinProbe(*plan, left_schema, right_schema, columns,
                                &probe),
                  "DoProbe on non-probeable join");
      const Schema& first_schema =
          probe.first == 0 ? left_schema : right_schema;
      const std::vector<size_t> link_cols =
          first_schema.ColumnIndices(probe.first_link_cols);
      const Schema out_schema = left_schema.Extend(right_schema.columns());
      const BoundExpr residual(probe.residual, out_schema);
      std::vector<Row> first_rows =
          DoProbe(plan->child(probe.first), columns, key, ctx, db);
      std::vector<Row> out;
      for (const Row& frow : first_rows) {
        const Row link_key = ProjectRow(frow, link_cols);
        if (RowKeyHasNull(link_key)) continue;
        for (const Row& srow :
             DoProbe(plan->child(1 - probe.first), probe.second_link_cols,
                     link_key, ctx, db)) {
          Row combined = probe.first == 0 ? ConcatRows(frow, srow)
                                          : ConcatRows(srow, frow);
          if (residual.Holds(combined)) out.push_back(std::move(combined));
        }
      }
      return out;
    }
    default:
      IDIVM_UNREACHABLE("DoProbe on non-probeable plan");
  }
}

// Memoizes probes per key: a real executor reads a joining block once and
// reuses it for diff tuples sharing the key (Section 6.1 discussion of a<1).
class ProbeCache {
 public:
  ProbeCache(PlanPtr target, std::vector<std::string> columns,
             EvalContext* ctx, const Database* db)
      : target_(std::move(target)),
        columns_(std::move(columns)),
        ctx_(ctx),
        db_(db) {}

  const std::vector<Row>& Lookup(const Row& key) {
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    std::vector<Row> rows = DoProbe(target_, columns_, key, *ctx_, *db_);
    return cache_.emplace(key, std::move(rows)).first->second;
  }

 private:
  struct RowLess {
    bool operator()(const Row& a, const Row& b) const {
      return CompareRows(a, b) < 0;
    }
  };
  PlanPtr target_;
  std::vector<std::string> columns_;
  EvalContext* ctx_;
  const Database* db_;
  std::map<Row, std::vector<Row>, RowLess> cache_;
};

}  // namespace

// A multi-component key may span several base relations of a subview;
// probing on one component and filtering the rest reproduces the DBMS's
// index choice.
std::vector<size_t> FindProbeableKeySubset(
    const PlanPtr& target, const std::vector<std::string>& target_cols,
    const Database& db) {
  const size_t n = target_cols.size();
  if (n == 0 || n > 10) return {};
  // Try the full set first (common case), then subsets by decreasing size.
  std::vector<std::vector<size_t>> candidates;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<size_t> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(i);
    }
    candidates.push_back(std::move(subset));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  for (const std::vector<size_t>& subset : candidates) {
    std::vector<std::string> cols;
    for (size_t i : subset) cols.push_back(target_cols[i]);
    if (CheckProbeable(target, cols, db)) return subset;
  }
  return {};
}

namespace {

// ---- Push-based pipeline ---------------------------------------------------
//
// Every operator pushes its output rows, one at a time, into its consumer's
// RowSink. A row handed to a sink is valid only for the duration of the
// call: producers reuse one row buffer per operator, and a row is copied
// only where it is kept — into a pipeline breaker's materialized input or
// into Evaluate's result. The breakers are the inputs an operator needs in
// full before it can emit anything: a hash join's build side, a nested
// loop's inner side, a semijoin's build side, a transient-only side (its
// emptiness short-circuits the operator; the diff-driven probe paths loop
// over it) and an aggregate's group table. A left-deep join chain streams
// its left spine through every level's probe, depth first, which emits rows
// in exactly the order a level-at-a-time evaluation would.

using RowSink = std::function<void(const Row&)>;

void Stream(const PlanPtr& plan, EvalContext& ctx, const RowSink& sink);

// The schema of Evaluate's result: InferSchema's, except that leaves keep
// the schema of the relation they read and row-preserving operators pass
// their input's through.
Schema ResultSchema(const PlanPtr& plan, const EvalContext& ctx) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      if (plan->state() == StateTag::kPre && ctx.pre_state != nullptr) {
        const auto it = ctx.pre_state->find(plan->table_name());
        if (it != ctx.pre_state->end()) return it->second.schema();
      }
      return ctx.db->GetTable(plan->table_name()).schema();
    case PlanKind::kRelationRef: {
      const auto it = ctx.transient.find(plan->ref_name());
      return it == ctx.transient.end() ? plan->ref_schema()
                                       : it->second->schema();
    }
    case PlanKind::kSelect:
    case PlanKind::kMaterialize:
      return ResultSchema(plan->child(0), ctx);
    case PlanKind::kCoalesceProbe:
      return ResultSchema(plan->child(1), ctx);
    default:
      return InferSchema(plan, *ctx.db);
  }
}

// Runs `plan` to completion: a pipeline breaker.
Relation Materialize(const PlanPtr& plan, EvalContext& ctx) {
  Relation out(ResultSchema(plan, ctx));
  Stream(plan, ctx, [&out](const Row& row) { out.Append(row); });
  return out;
}

bool AnyNull(const Row& row, const std::vector<size_t>& cols) {
  for (size_t c : cols) {
    if (row[c].is_null()) return true;
  }
  return false;
}

void ProjectInto(const Row& row, const std::vector<size_t>& cols, Row* out) {
  out->resize(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) (*out)[i] = row[cols[i]];
}

// A binary operator's reused output row: the left input's columns, then the
// right input's. Filling it copies values into existing slots, so probing
// a join level allocates nothing per row.
class ConcatBuffer {
 public:
  ConcatBuffer(size_t left_width, size_t right_width)
      : row_(left_width + right_width), left_width_(left_width) {}

  void SetLeft(const Row& left) {
    std::copy(left.begin(), left.end(), row_.begin());
  }
  void SetRight(const Row& right) {
    std::copy(right.begin(), right.end(), row_.begin() + left_width_);
  }
  const Row& row() const { return row_; }

 private:
  Row row_;
  size_t left_width_;
};

// An in-memory hash table over a materialized build side (no cost: the
// side's reads were charged when it was produced). Rows with a NULL key
// never match and are left out.
class HashedSide {
 public:
  HashedSide(Relation rel, std::vector<size_t> key_cols)
      : rel_(std::move(rel)), key_cols_(std::move(key_cols)) {
    for (size_t i = 0; i < rel_.rows().size(); ++i) {
      const Row& row = rel_.rows()[i];
      if (AnyNull(row, key_cols_)) continue;
      buckets_[HashRowKey(row, key_cols_)].push_back(i);
    }
  }

  // Calls `fn` on each build row whose key equals `probe`'s `probe_cols`,
  // in build order, until `fn` returns false. The caller rules out NULL
  // probe keys.
  template <typename Fn>
  void ForEachMatch(const Row& probe, const std::vector<size_t>& probe_cols,
                    Fn&& fn) const {
    const auto it = buckets_.find(HashRowKey(probe, probe_cols));
    if (it == buckets_.end()) return;
    for (size_t idx : it->second) {
      const Row& row = rel_.rows()[idx];
      bool match = true;
      for (size_t i = 0; i < key_cols_.size(); ++i) {
        if (row[key_cols_[i]].Compare(probe[probe_cols[i]]) != 0) {
          match = false;
          break;
        }
      }
      if (match && !fn(row)) return;
    }
  }

 private:
  Relation rel_;
  std::vector<size_t> key_cols_;
  std::unordered_map<size_t, std::vector<size_t>> buckets_;
};

// Drives a binary operator whose right input is a pipeline breaker when no
// diff-driven probe path applies: materializes the right input, hands it to
// `build`, then feeds the left input's rows to `probe`. A transient-only
// side is evaluated first, so an empty diff short-circuits without touching
// stored data, as a pipelined executor would; a transient-only left side is
// materialized for that check. `empty_right_empties` is false for the
// antisemijoin, whose output over an empty right input is all of the left.
void DriveBinary(const PlanPtr& plan, bool empty_right_empties,
                 EvalContext& ctx, const std::function<void(Relation)>& build,
                 const RowSink& probe) {
  const PlanPtr& left = plan->child(0);
  const PlanPtr& right = plan->child(1);
  if (IsTransientOnly(left)) {
    const Relation left_rel = Materialize(left, ctx);
    if (left_rel.empty()) return;
    build(Materialize(right, ctx));
    for (const Row& row : left_rel.rows()) probe(row);
    return;
  }
  Relation right_rel = Materialize(right, ctx);
  if (right_rel.empty() && empty_right_empties && IsTransientOnly(right)) {
    return;
  }
  build(std::move(right_rel));
  Stream(left, ctx, probe);
}

// The equi-join structure of a join or (anti)semijoin predicate.
struct BinaryKeys {
  Schema left_schema;
  Schema right_schema;
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
  std::vector<size_t> lk_all;  // left_keys' positions in left_schema
  std::vector<size_t> rk_all;  // right_keys' positions in right_schema
  bool has_residual = false;   // conjuncts beyond the equi pairs
  ExprPtr residual;

  BinaryKeys(const PlanPtr& plan, const Database& db)
      : left_schema(InferSchema(plan->child(0), db)),
        right_schema(InferSchema(plan->child(1), db)) {
    std::vector<std::pair<std::string, std::string>> equi;
    const std::vector<ExprPtr> residual_conjuncts =
        ExtractEquiPairs(plan->predicate(), left_schema.ColumnNameSet(),
                         right_schema.ColumnNameSet(), &equi);
    for (const auto& [l, r] : equi) {
      left_keys.push_back(l);
      right_keys.push_back(r);
    }
    lk_all = left_schema.ColumnIndices(left_keys);
    rk_all = right_schema.ColumnIndices(right_keys);
    has_residual = !residual_conjuncts.empty();
    residual = ConjoinAll(residual_conjuncts);
  }

  Schema Combined() const { return left_schema.Extend(right_schema.columns()); }

  // The equi-key positions a probe on `subset` leaves to be checked on the
  // fetched rows.
  std::vector<size_t> Unprobed(const std::vector<size_t>& subset) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < lk_all.size(); ++i) {
      if (std::find(subset.begin(), subset.end(), i) == subset.end()) {
        out.push_back(i);
      }
    }
    return out;
  }

  // SQL equality of the pairs at `positions` between a left and a right row.
  bool KeysEqual(const Row& lrow, const Row& rrow,
                 const std::vector<size_t>& positions) const {
    for (size_t i : positions) {
      if (!lrow[lk_all[i]].SqlEquals(rrow[rk_all[i]])) return false;
    }
    return true;
  }
};

void StreamJoin(const PlanPtr& plan, EvalContext& ctx, const RowSink& sink) {
  const Database& db = *ctx.db;
  const BinaryKeys keys(plan, db);
  const Schema out_schema = keys.Combined();
  ConcatBuffer combined(keys.left_schema.num_columns(),
                        keys.right_schema.num_columns());

  if (keys.left_keys.empty()) {
    // No equi conjuncts: nested loop over the materialized inner side.
    const BoundExpr predicate(plan->predicate(), out_schema);
    Relation inner;
    DriveBinary(
        plan, /*empty_right_empties=*/true, ctx,
        [&](Relation right_rel) { inner = std::move(right_rel); },
        [&](const Row& lrow) {
          combined.SetLeft(lrow);
          for (const Row& rrow : inner.rows()) {
            combined.SetRight(rrow);
            if (predicate.Holds(combined.row())) sink(combined.row());
          }
        });
    return;
  }

  const BoundExpr residual(keys.residual, out_schema);
  auto emit_if_residual_holds = [&]() {
    if (!keys.has_residual || residual.Holds(combined.row())) {
      sink(combined.row());
    }
  };

  // Diff-driven loop plan: probe the stored side once per distinct key of
  // the transient side. The probe may use a subset of the equi keys;
  // dropped equalities are checked on the fetched rows.
  for (const bool diff_is_left : {true, false}) {
    const PlanPtr& diff_side = plan->child(diff_is_left ? 0 : 1);
    const PlanPtr& stored_side = plan->child(diff_is_left ? 1 : 0);
    if (!IsTransientOnly(diff_side)) continue;
    const std::vector<std::string>& stored_keys =
        diff_is_left ? keys.right_keys : keys.left_keys;
    const std::vector<size_t>& diff_key_all =
        diff_is_left ? keys.lk_all : keys.rk_all;
    const std::vector<size_t> subset =
        FindProbeableKeySubset(stored_side, stored_keys, db);
    if (subset.empty()) continue;
    const Relation diff_rel = Materialize(diff_side, ctx);
    std::vector<std::string> probe_cols;
    std::vector<size_t> diff_key;
    for (size_t i : subset) {
      probe_cols.push_back(stored_keys[i]);
      diff_key.push_back(diff_key_all[i]);
    }
    const std::vector<size_t> unprobed = keys.Unprobed(subset);
    ProbeCache cache(stored_side, probe_cols, &ctx, &db);
    Row key;
    for (const Row& drow : diff_rel.rows()) {
      ProjectInto(drow, diff_key, &key);
      if (RowKeyHasNull(key)) continue;
      if (diff_is_left) {
        combined.SetLeft(drow);
      } else {
        combined.SetRight(drow);
      }
      for (const Row& srow : cache.Lookup(key)) {
        if (diff_is_left) {
          if (!keys.KeysEqual(drow, srow, unprobed)) continue;
          combined.SetRight(srow);
        } else {
          if (!keys.KeysEqual(srow, drow, unprobed)) continue;
          combined.SetLeft(srow);
        }
        emit_if_residual_holds();
      }
    }
    return;
  }

  // Hash join: the right input is the build side, the left input streams
  // through it.
  std::optional<HashedSide> hashed;
  DriveBinary(
      plan, /*empty_right_empties=*/true, ctx,
      [&](Relation right_rel) {
        hashed.emplace(std::move(right_rel), keys.rk_all);
      },
      [&](const Row& lrow) {
        if (AnyNull(lrow, keys.lk_all)) return;
        bool left_set = false;
        hashed->ForEachMatch(lrow, keys.lk_all, [&](const Row& rrow) {
          if (!left_set) {
            combined.SetLeft(lrow);
            left_set = true;
          }
          combined.SetRight(rrow);
          emit_if_residual_holds();
          return true;
        });
      });
}

void StreamSemi(const PlanPtr& plan, bool anti, EvalContext& ctx,
                const RowSink& sink) {
  const Database& db = *ctx.db;
  const PlanPtr& left = plan->child(0);
  const PlanPtr& right = plan->child(1);
  const BinaryKeys keys(plan, db);
  const Schema combined_schema = keys.Combined();
  const BoundExpr residual(keys.residual, combined_schema);
  ConcatBuffer combined(keys.left_schema.num_columns(),
                        keys.right_schema.num_columns());
  // The residual of a left/right pair whose equi keys matched.
  auto residual_holds = [&](const Row& lrow, const Row& rrow) {
    if (!keys.has_residual) return true;
    combined.SetLeft(lrow);
    combined.SetRight(rrow);
    return residual.Holds(combined.row());
  };
  const bool has_equi = !keys.left_keys.empty();

  // Transient left probing a stored right: the common shape of rules like
  // σφ(∆) ⋉ R and ∆ ⋉̄ Input_post.
  if (has_equi && IsTransientOnly(left)) {
    const std::vector<size_t> subset =
        FindProbeableKeySubset(right, keys.right_keys, db);
    if (!subset.empty()) {
      const Relation left_rel = Materialize(left, ctx);
      std::vector<std::string> probe_cols;
      std::vector<size_t> lk;
      for (size_t i : subset) {
        probe_cols.push_back(keys.right_keys[i]);
        lk.push_back(keys.lk_all[i]);
      }
      const std::vector<size_t> unprobed = keys.Unprobed(subset);
      ProbeCache cache(right, probe_cols, &ctx, &db);
      Row key;
      for (const Row& lrow : left_rel.rows()) {
        ProjectInto(lrow, lk, &key);
        if (RowKeyHasNull(key)) {
          if (anti) sink(lrow);
          continue;
        }
        bool matched = false;
        for (const Row& rrow : cache.Lookup(key)) {
          if (keys.KeysEqual(lrow, rrow, unprobed) &&
              residual_holds(lrow, rrow)) {
            matched = true;
            break;
          }
        }
        if (matched != anti) sink(lrow);
      }
      return;
    }
  }

  // Transient right probing a stored left (Input_post ⋉Ī ∆): probe per
  // distinct diff key. With a partial probe subset the same left row may be
  // fetched for several diff keys, so emitted rows are deduplicated.
  if (!anti && has_equi && IsTransientOnly(right)) {
    const std::vector<size_t> subset =
        FindProbeableKeySubset(left, keys.left_keys, db);
    if (!subset.empty()) {
      const Relation right_rel = Materialize(right, ctx);
      std::vector<std::string> probe_cols;
      std::vector<size_t> rk;
      for (size_t i : subset) {
        probe_cols.push_back(keys.left_keys[i]);
        rk.push_back(keys.rk_all[i]);
      }
      const std::vector<size_t> unprobed = keys.Unprobed(subset);
      const bool partial = subset.size() < keys.left_keys.size();
      struct RowLess {
        bool operator()(const Row& a, const Row& b) const {
          return CompareRows(a, b) < 0;
        }
      };
      std::set<Row, RowLess> emitted;
      // Group right rows by probe key so residuals against any of them
      // count once per left row.
      std::map<Row, std::vector<const Row*>, RowLess> by_key;
      for (const Row& rrow : right_rel.rows()) {
        Row key = ProjectRow(rrow, rk);
        if (RowKeyHasNull(key)) continue;
        by_key[std::move(key)].push_back(&rrow);
      }
      ProbeCache cache(left, probe_cols, &ctx, &db);
      for (const auto& [key, rrows] : by_key) {
        for (const Row& lrow : cache.Lookup(key)) {
          for (const Row* rrow : rrows) {
            if (keys.KeysEqual(lrow, *rrow, unprobed) &&
                residual_holds(lrow, *rrow)) {
              if (!partial || emitted.insert(lrow).second) sink(lrow);
              break;
            }
          }
        }
      }
      return;
    }
  }

  // Fallback over a materialized build side. Semijoin with an empty left
  // or right → empty; antisemijoin with an empty right → all of left (left
  // must still be evaluated), with an empty left → empty.
  if (has_equi) {
    std::optional<HashedSide> hashed;
    DriveBinary(
        plan, /*empty_right_empties=*/!anti, ctx,
        [&](Relation right_rel) {
          hashed.emplace(std::move(right_rel), keys.rk_all);
        },
        [&](const Row& lrow) {
          bool matched = false;
          if (!AnyNull(lrow, keys.lk_all)) {
            hashed->ForEachMatch(lrow, keys.lk_all, [&](const Row& rrow) {
              matched = residual_holds(lrow, rrow);
              return !matched;
            });
          }
          if (matched != anti) sink(lrow);
        });
    return;
  }
  const BoundExpr predicate(plan->predicate(), combined_schema);
  Relation inner;
  DriveBinary(
      plan, /*empty_right_empties=*/!anti, ctx,
      [&](Relation right_rel) { inner = std::move(right_rel); },
      [&](const Row& lrow) {
        bool matched = false;
        combined.SetLeft(lrow);
        for (const Row& rrow : inner.rows()) {
          combined.SetRight(rrow);
          if (predicate.Holds(combined.row())) {
            matched = true;
            break;
          }
        }
        if (matched != anti) sink(lrow);
      });
}

// ---- Aggregation -----------------------------------------------------------

struct AggState {
  int64_t row_count = 0;
  int64_t nonnull_count = 0;
  double sum_double = 0;
  int64_t sum_int = 0;
  bool all_int = true;
  Value min;
  Value max;
};

// The group table is the pipeline breaker: the input streams into it, and
// the groups are emitted in key order once the input is exhausted.
void StreamAggregate(const PlanPtr& plan, EvalContext& ctx,
                     const RowSink& sink) {
  const Schema in_schema = ResultSchema(plan->child(0), ctx);
  const std::vector<AggSpec>& aggregates = plan->aggregates();
  const std::vector<size_t> group_cols =
      in_schema.ColumnIndices(plan->group_by());
  std::vector<std::optional<BoundExpr>> args;
  for (const AggSpec& agg : aggregates) {
    if (agg.arg != nullptr) {
      args.emplace_back(BoundExpr(agg.arg, in_schema));
    } else {
      args.emplace_back(std::nullopt);
    }
  }

  struct RowLess {
    bool operator()(const Row& a, const Row& b) const {
      return CompareRows(a, b) < 0;
    }
  };
  std::map<Row, std::vector<AggState>, RowLess> groups;

  Row key;
  Stream(plan->child(0), ctx, [&](const Row& row) {
    ProjectInto(row, group_cols, &key);
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key, std::vector<AggState>(aggregates.size())).first;
    }
    std::vector<AggState>& states = it->second;
    for (size_t i = 0; i < aggregates.size(); ++i) {
      AggState& st = states[i];
      ++st.row_count;
      if (!args[i].has_value()) continue;  // COUNT(*)
      const Value v = args[i]->Eval(row);
      if (v.is_null()) continue;
      ++st.nonnull_count;
      if (v.is_numeric()) {
        st.sum_double += v.NumericAsDouble();
        if (v.type() == DataType::kInt64) {
          st.sum_int += v.AsInt64();
        } else {
          st.all_int = false;
        }
      }
      if (st.min.is_null() || v.Compare(st.min) < 0) st.min = v;
      if (st.max.is_null() || v.Compare(st.max) > 0) st.max = v;
    }
  });

  auto finalize = [](const AggSpec& agg, const AggState& st) -> Value {
    switch (agg.func) {
      case AggFunc::kCount:
        return Value(agg.arg == nullptr ? st.row_count : st.nonnull_count);
      case AggFunc::kSum:
        if (st.nonnull_count == 0) return Value::Null();
        return st.all_int ? Value(st.sum_int) : Value(st.sum_double);
      case AggFunc::kAvg:
        if (st.nonnull_count == 0) return Value::Null();
        return Value(st.sum_double / static_cast<double>(st.nonnull_count));
      case AggFunc::kMin:
        return st.min;
      case AggFunc::kMax:
        return st.max;
    }
    IDIVM_UNREACHABLE("bad AggFunc");
  };

  if (groups.empty() && plan->group_by().empty()) {
    // SQL global aggregate over an empty input: one row.
    Row row;
    const std::vector<AggState> empty_states(aggregates.size());
    for (size_t i = 0; i < aggregates.size(); ++i) {
      row.push_back(finalize(aggregates[i], empty_states[i]));
    }
    sink(row);
    return;
  }

  for (const auto& [group_key, states] : groups) {
    Row row = group_key;
    for (size_t i = 0; i < aggregates.size(); ++i) {
      row.push_back(finalize(aggregates[i], states[i]));
    }
    sink(row);
  }
}

void Stream(const PlanPtr& plan, EvalContext& ctx, const RowSink& sink) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      if (plan->state() == StateTag::kPre && ctx.pre_state != nullptr) {
        const auto it = ctx.pre_state->find(plan->table_name());
        if (it != ctx.pre_state->end()) {
          it->second.ForEachRow(sink);
          return;
        }
      }
      ctx.db->GetTable(plan->table_name()).ForEachRow(sink);
      return;
    }
    case PlanKind::kRelationRef: {
      // Reserved names produced by the minimizer: statically-empty results
      // (Fig. 8: ∆− ⋈_Ī R → ∅).
      if (plan->ref_name().rfind("__empty", 0) == 0) return;
      const auto it = ctx.transient.find(plan->ref_name());
      IDIVM_CHECK(it != ctx.transient.end(),
                  StrCat("unbound relation ref: ", plan->ref_name()));
      IDIVM_CHECK(it->second->schema().ColumnNames() ==
                      plan->ref_schema().ColumnNames(),
                  StrCat("relation ref schema mismatch for ",
                         plan->ref_name()));
      // Transient: reads are free.
      for (const Row& row : it->second->rows()) sink(row);
      return;
    }
    case PlanKind::kSelect: {
      const BoundExpr predicate(plan->predicate(),
                                ResultSchema(plan->child(0), ctx));
      Stream(plan->child(0), ctx, [&](const Row& row) {
        if (predicate.Holds(row)) sink(row);
      });
      return;
    }
    case PlanKind::kProject: {
      const Schema in_schema = ResultSchema(plan->child(0), ctx);
      std::vector<BoundExpr> exprs;
      exprs.reserve(plan->project_items().size());
      for (const ProjectItem& item : plan->project_items()) {
        exprs.emplace_back(item.expr, in_schema);
      }
      Row projected(exprs.size());
      Stream(plan->child(0), ctx, [&](const Row& row) {
        for (size_t i = 0; i < exprs.size(); ++i) {
          projected[i] = exprs[i].Eval(row);
        }
        sink(projected);
      });
      return;
    }
    case PlanKind::kJoin:
      StreamJoin(plan, ctx, sink);
      return;
    case PlanKind::kSemiJoin:
      StreamSemi(plan, /*anti=*/false, ctx, sink);
      return;
    case PlanKind::kAntiSemiJoin:
      StreamSemi(plan, /*anti=*/true, ctx, sink);
      return;
    case PlanKind::kUnionAll: {
      Row extended;
      for (int64_t branch = 0; branch < 2; ++branch) {
        Stream(plan->child(branch), ctx, [&](const Row& row) {
          extended.assign(row.begin(), row.end());
          extended.push_back(Value(branch));
          sink(extended);
        });
      }
      return;
    }
    case PlanKind::kAggregate:
      StreamAggregate(plan, ctx, sink);
      return;
    case PlanKind::kMaterialize:
      Stream(plan->child(0), ctx, sink);
      return;
    case PlanKind::kCoalesceProbe:
      // As a full relation the node means its base-truth fallback.
      Stream(plan->child(1), ctx, sink);
      return;
  }
  IDIVM_UNREACHABLE("bad PlanKind");
}

}  // namespace

Relation Evaluate(const PlanPtr& plan, EvalContext& ctx) {
  IDIVM_CHECK(ctx.db != nullptr, "EvalContext requires a database");
  return Materialize(plan, ctx);
}

}  // namespace idivm
