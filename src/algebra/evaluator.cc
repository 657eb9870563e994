#include "src/algebra/evaluator.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <type_traits>

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

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) < 0;
  }
};

bool SameColumnNames(const Schema& a, const Schema& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    if (a.column(i).name != b.column(i).name) return false;
  }
  return true;
}

}  // namespace

// ---- Prepared plans --------------------------------------------------------

struct PreparedPlan::Node {
  // How a join or (anti)semijoin runs.
  enum class Strategy {
    kNone,            // not a binary operator
    kProbeFromLeft,   // the transient left input drives probes of the right
    kProbeFromRight,  // the transient right input drives probes of the left
    kHash,            // hash table over the materialized right input
    kNestedLoop,      // no equi conjunct: loop over the materialized right
  };

  // One node of a keyed-probe path (see "Probe paths" below).
  struct Probe {
    PlanKind kind = PlanKind::kScan;
    // kScan: the scanned table; kCoalesceProbe: the base table it avoids.
    std::string table;
    bool pre_state = false;         // kScan
    std::vector<size_t> key_cols;   // kScan: probe columns in the table
    std::optional<BoundExpr> pred;  // kSelect
    std::vector<BoundExpr> exprs;   // kProject
    // kCoalesceProbe: the probe key misses a primary-key column of the base
    // table, so the view copy may hold several base rows per key.
    bool key_misses_pk = false;
    bool first_is_left = false;         // kJoin
    std::vector<size_t> link_cols;      // kJoin: equi columns, first side
    std::optional<BoundExpr> residual;  // kJoin: over left ++ right
    // kSelect / kProject: the child; kJoin: the side probed with the key;
    // kCoalesceProbe: the primary path.
    std::unique_ptr<const Probe> first;
    // kJoin: the side probed per first-side row; kCoalesceProbe: the
    // fallback path.
    std::unique_ptr<const Probe> second;
  };

  PlanPtr plan;
  // Run's result schema: InferSchema's, except that a RelationRef has the
  // schema of the relation bound to it and row-preserving operators (σ,
  // materialize, coalesce-probe) pass their input's through.
  Schema schema;
  Schema inferred;              // InferSchema's
  bool transient_only = false;  // IsTransientOnly
  std::vector<std::unique_ptr<Node>> children;

  std::optional<BoundExpr> pred;  // kSelect; nested-loop (semi)join predicate
  std::vector<BoundExpr> exprs;   // kProject

  // Joins and (anti)semijoins.
  Strategy strategy = Strategy::kNone;
  std::vector<size_t> lk_all;  // equi-key positions in the left input
  std::vector<size_t> rk_all;  // the matching positions in the right input
  bool has_residual = false;   // conjuncts beyond the equi pairs
  std::optional<BoundExpr> residual;  // over left ++ right
  // Probe strategies: the probed key positions in the driving input, the
  // equi pairs left to check on fetched rows, and the stored input's path.
  std::vector<size_t> drive_key;
  std::vector<size_t> unprobed;
  std::unique_ptr<const Probe> probe;
  // A semijoin probed from the right on part of its key may fetch a left
  // row for several keys: emitted rows are deduplicated.
  bool dedup = false;

  int slot = -1;  // kRelationRef: EvalContext::slots index, or -1 (by name)

  // kAggregate: group-key positions and arguments (nullopt: COUNT(*)).
  std::vector<size_t> group_cols;
  std::vector<std::optional<BoundExpr>> args;
};

namespace {

using Node = PreparedPlan::Node;
using Probe = PreparedPlan::Node::Probe;
using Strategy = PreparedPlan::Node::Strategy;

// ---- Probe paths -----------------------------------------------------------
//
// A plan subtree is "probeable" on a set of output columns when keyed lookups
// can be served by stored hash indexes at its Scan leaves, with selections,
// column-renaming projections and *chained joins* applied on the way out: a
// probe into Join(A, B) on columns of A probes A, then probes B per result
// row through the join's equi condition — exactly the chained diff-driven
// index-nested-loop plan the Section 6 analysis assumes over R1, ..., Rn.

// How a join decomposes for probing from `columns` (all from one side):
// which side is probed first, the equi keys linking to the other side, and
// the residual predicate.
struct JoinProbePlan {
  size_t first = 0;  // child index probed with the incoming key
  std::vector<std::string> first_link_cols;   // equi cols on `first` side
  std::vector<std::string> second_link_cols;  // matching cols on other side
  ExprPtr residual;
};

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
  for (const auto& [l, r] : equi) {
    out->first_link_cols.push_back(all_left ? l : r);
    out->second_link_cols.push_back(all_left ? r : l);
  }
  out->residual = ConjoinAll(residual_conjuncts);
  return true;
}

// The keyed-probe path through `node` on `columns`, or null when `node` is
// not probeable on them.
std::unique_ptr<const Probe> PrepareProbe(
    const Node& node, const std::vector<std::string>& columns,
    const Database& db) {
  const PlanNode& plan = *node.plan;
  auto probe = std::make_unique<Probe>();
  probe->kind = plan.kind();
  switch (plan.kind()) {
    case PlanKind::kScan:
      // Hash index on demand; a pre-state copy has the table's schema.
      probe->table = plan.table_name();
      probe->pre_state = plan.state() == StateTag::kPre;
      probe->key_cols = node.inferred.ColumnIndices(columns);
      return probe;
    case PlanKind::kSelect:
      probe->first = PrepareProbe(*node.children[0], columns, db);
      if (probe->first == nullptr) return nullptr;
      probe->pred.emplace(plan.predicate(), node.children[0]->inferred);
      return probe;
    case PlanKind::kProject: {
      // Rename the probe columns through the first matching item, then
      // project every fetched row through all items.
      std::vector<std::string> inner;
      inner.reserve(columns.size());
      for (const std::string& name : columns) {
        const ProjectItem* found = nullptr;
        for (const ProjectItem& item : plan.project_items()) {
          if (item.name == name) {
            found = &item;
            break;
          }
        }
        if (found == nullptr || found->expr->kind() != ExprKind::kColumn) {
          return nullptr;  // probe column is computed, not a rename
        }
        inner.push_back(found->expr->column_name());
      }
      probe->first = PrepareProbe(*node.children[0], inner, db);
      if (probe->first == nullptr) return nullptr;
      for (const ProjectItem& item : plan.project_items()) {
        probe->exprs.emplace_back(item.expr, node.children[0]->inferred);
      }
      return probe;
    }
    case PlanKind::kJoin: {
      JoinProbePlan jp;
      if (!PlanJoinProbe(plan, node.children[0]->inferred,
                         node.children[1]->inferred, columns, &jp)) {
        return nullptr;
      }
      const Node& first = *node.children[jp.first];
      probe->first = PrepareProbe(first, columns, db);
      probe->second = PrepareProbe(*node.children[1 - jp.first],
                                   jp.second_link_cols, db);
      if (probe->first == nullptr || probe->second == nullptr) return nullptr;
      probe->first_is_left = jp.first == 0;
      probe->link_cols = first.inferred.ColumnIndices(jp.first_link_cols);
      probe->residual.emplace(jp.residual, node.inferred);
      return probe;
    }
    case PlanKind::kCoalesceProbe:
      probe->first = PrepareProbe(*node.children[0], columns, db);
      probe->second = PrepareProbe(*node.children[1], columns, db);
      if (probe->first == nullptr || probe->second == nullptr) return nullptr;
      probe->table = plan.table_name();
      // The FD argument requires the probe key to cover the base table's
      // primary key (at most one base row per probe key).
      if (db.HasTable(probe->table)) {
        for (const std::string& key_col :
             db.GetTable(probe->table).key_columns()) {
          if (std::find(columns.begin(), columns.end(), key_col) ==
              columns.end()) {
            probe->key_misses_pk = true;
            break;
          }
        }
      }
      return probe;
    default:
      return nullptr;
  }
}

// A multi-component key may span several base relations of a subview;
// probing on one component and filtering the rest reproduces the DBMS's
// index choice. Prepares the probe path of `target` on the largest subset
// of the equi-key positions it can serve (fewest residual checks) and
// stores the subset in `subset`; false when no non-empty subset works.
bool PrepareKeyedProbe(const Node& target,
                       const std::vector<std::string>& target_cols,
                       const Database& db, std::vector<size_t>* subset,
                       std::unique_ptr<const Probe>* probe) {
  const size_t n = target_cols.size();
  if (n == 0 || n > 10) return false;
  // Try the full set first (common case), then subsets by decreasing size.
  std::vector<std::vector<size_t>> candidates;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<size_t> candidate;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) candidate.push_back(i);
    }
    candidates.push_back(std::move(candidate));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  for (std::vector<size_t>& candidate : candidates) {
    std::vector<std::string> cols;
    for (size_t i : candidate) cols.push_back(target_cols[i]);
    *probe = PrepareProbe(target, cols, db);
    if (*probe != nullptr) {
      *subset = std::move(candidate);
      return true;
    }
  }
  return false;
}

// Splits a join's or (anti)semijoin's predicate into equi pairs and a
// residual, and picks the strategy: a transient input driving keyed probes
// of the stored one (for joins either input, left first; for semijoins the
// left, or the right of a plain semijoin), else a hash or nested loop.
void PrepareBinary(Node* n, const Database& db) {
  const PlanNode& plan = *n->plan;
  const Node& left = *n->children[0];
  const Node& right = *n->children[1];
  std::vector<std::pair<std::string, std::string>> equi;
  const std::vector<ExprPtr> residual_conjuncts =
      ExtractEquiPairs(plan.predicate(), left.inferred.ColumnNameSet(),
                       right.inferred.ColumnNameSet(), &equi);
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
  for (const auto& [l, r] : equi) {
    left_keys.push_back(l);
    right_keys.push_back(r);
  }
  n->lk_all = left.inferred.ColumnIndices(left_keys);
  n->rk_all = right.inferred.ColumnIndices(right_keys);
  n->has_residual = !residual_conjuncts.empty();
  const Schema combined = left.inferred.Extend(right.inferred.columns());
  n->residual.emplace(ConjoinAll(residual_conjuncts), combined);
  if (equi.empty()) {
    n->strategy = Strategy::kNestedLoop;
    n->pred.emplace(plan.predicate(), combined);
    return;
  }
  const bool is_join = plan.kind() == PlanKind::kJoin;
  for (const bool from_left : {true, false}) {
    if (!from_left && plan.kind() == PlanKind::kAntiSemiJoin) break;
    if (!(from_left ? left : right).transient_only) continue;
    std::vector<size_t> subset;
    if (!PrepareKeyedProbe(from_left ? right : left,
                           from_left ? right_keys : left_keys, db, &subset,
                           &n->probe)) {
      continue;
    }
    n->strategy = from_left ? Strategy::kProbeFromLeft
                            : Strategy::kProbeFromRight;
    for (size_t i : subset) {
      n->drive_key.push_back(from_left ? n->lk_all[i] : n->rk_all[i]);
    }
    for (size_t i = 0; i < equi.size(); ++i) {
      if (std::find(subset.begin(), subset.end(), i) == subset.end()) {
        n->unprobed.push_back(i);
      }
    }
    n->dedup = !is_join && !from_left && subset.size() < equi.size();
    return;
  }
  n->strategy = Strategy::kHash;
}

std::unique_ptr<Node> PrepareNode(const PlanPtr& plan, const Database& db,
                                  const RefResolver& resolve_ref) {
  auto n = std::make_unique<Node>();
  n->plan = plan;
  std::vector<Schema> child_schemas;
  for (const PlanPtr& child : plan->children()) {
    n->children.push_back(PrepareNode(child, db, resolve_ref));
    child_schemas.push_back(n->children.back()->inferred);
  }
  n->inferred = NodeSchema(*plan, child_schemas, db);
  n->schema = n->inferred;
  n->transient_only = IsTransientOnly(plan);
  switch (plan->kind()) {
    case PlanKind::kScan:
    case PlanKind::kUnionAll:
      break;
    case PlanKind::kRelationRef:
      if (resolve_ref != nullptr) {
        const RefBinding binding = resolve_ref(plan->ref_name());
        if (binding.schema != nullptr) n->schema = *binding.schema;
        n->slot = binding.slot;
      }
      break;
    case PlanKind::kSelect:
      n->schema = n->children[0]->schema;
      n->pred.emplace(plan->predicate(), n->schema);
      break;
    case PlanKind::kMaterialize:
      n->schema = n->children[0]->schema;
      break;
    case PlanKind::kCoalesceProbe:
      n->schema = n->children[1]->schema;
      break;
    case PlanKind::kProject:
      for (const ProjectItem& item : plan->project_items()) {
        n->exprs.emplace_back(item.expr, n->children[0]->schema);
      }
      break;
    case PlanKind::kJoin:
    case PlanKind::kSemiJoin:
    case PlanKind::kAntiSemiJoin:
      PrepareBinary(n.get(), db);
      break;
    case PlanKind::kAggregate: {
      const Schema& in = n->children[0]->schema;
      n->group_cols = in.ColumnIndices(plan->group_by());
      for (const AggSpec& agg : plan->aggregates()) {
        if (agg.arg != nullptr) {
          n->args.emplace_back(BoundExpr(agg.arg, in));
        } else {
          n->args.emplace_back(std::nullopt);
        }
      }
      break;
    }
  }
  return n;
}

// ---- Keyed probes at run time ----------------------------------------------

// Keyed lookup through a probe path. Returns matching rows in the probed
// subtree's output schema. Only the Scan leaf charges accesses.
std::vector<Row> DoProbe(const Probe& p, const Row& key,
                         const EvalContext& ctx) {
  switch (p.kind) {
    case PlanKind::kScan: {
      if (p.pre_state && ctx.pre_state != nullptr) {
        const auto it = ctx.pre_state->find(p.table);
        if (it != ctx.pre_state->end()) {
          return it->second.Probe(p.key_cols, key);
        }
      }
      return ctx.db->GetTable(p.table).LookupWhereEquals(p.key_cols, key);
    }
    case PlanKind::kSelect: {
      std::vector<Row> rows = DoProbe(*p.first, key, ctx);
      std::vector<Row> out;
      out.reserve(rows.size());
      for (Row& row : rows) {
        if (p.pred->Holds(row)) out.push_back(std::move(row));
      }
      return out;
    }
    case PlanKind::kProject: {
      std::vector<Row> rows = DoProbe(*p.first, key, ctx);
      std::vector<Row> out;
      out.reserve(rows.size());
      for (const Row& row : rows) {
        Row projected;
        projected.reserve(p.exprs.size());
        for (const BoundExpr& e : p.exprs) projected.push_back(e.Eval(row));
        out.push_back(std::move(projected));
      }
      return out;
    }
    case PlanKind::kCoalesceProbe: {
      // Section 9 extension: try the view/cache copy first; its distinct
      // rows for a full-key probe coincide with the base relation's single
      // row. Fall back on miss, or when the base table received
      // updates/deletes this round (the copy may be mid-maintenance).
      const bool unsafe =
          p.key_misses_pk || (ctx.assist_unsafe_tables != nullptr &&
                              ctx.assist_unsafe_tables->count(p.table) > 0);
      if (!unsafe) {
        std::vector<Row> rows = DoProbe(*p.first, key, ctx);
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
      return DoProbe(*p.second, key, ctx);
    }
    case PlanKind::kJoin: {
      // Chained index nested loop: probe one side with the key, then probe
      // the other side per matching row through the equi condition.
      std::vector<Row> out;
      for (const Row& frow : DoProbe(*p.first, key, ctx)) {
        const Row link_key = ProjectRow(frow, p.link_cols);
        if (RowKeyHasNull(link_key)) continue;
        for (const Row& srow : DoProbe(*p.second, link_key, ctx)) {
          Row combined = p.first_is_left ? ConcatRows(frow, srow)
                                         : ConcatRows(srow, frow);
          if (p.residual->Holds(combined)) out.push_back(std::move(combined));
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
  ProbeCache(const Probe& path, const EvalContext& ctx)
      : path_(path), ctx_(ctx) {}

  const std::vector<Row>& Lookup(const Row& key) {
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    std::vector<Row> rows = DoProbe(path_, key, ctx_);
    return cache_.emplace(key, std::move(rows)).first->second;
  }

 private:
  const Probe& path_;
  const EvalContext& ctx_;
  std::map<Row, std::vector<Row>, RowLess> cache_;
};

// ---- Push-based pipeline ---------------------------------------------------
//
// Every operator pushes its output rows, one at a time, into its consumer's
// RowSink. A row handed to a sink is valid only for the duration of the
// call: producers reuse one row buffer per operator, and a row is copied
// only where it is kept — into a pipeline breaker's materialized input or
// into Run's result. The breakers are the inputs an operator needs in
// full before it can emit anything: a hash join's build side, a nested
// loop's inner side, a semijoin's build side, a transient-only side (its
// emptiness short-circuits the operator; the diff-driven probe paths loop
// over it) and an aggregate's group table. A left-deep join chain streams
// its left spine through every level's probe, depth first, which emits rows
// in exactly the order a level-at-a-time evaluation would.

// A non-owning reference to a row consumer. A sink is only ever called
// while the callable it refers to is alive (the operator that created it is
// still on the stack), so binding one allocates nothing.
class RowSink {
 public:
  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, RowSink>>>
  RowSink(Fn&& fn)  // NOLINT(runtime/explicit): wraps lambdas at call sites
      : callable_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* callable, const Row& row) {
          (*static_cast<std::remove_reference_t<Fn>*>(callable))(row);
        }) {}

  void operator()(const Row& row) const { call_(callable_, row); }

 private:
  void* callable_;
  void (*call_)(void*, const Row&);
};

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

// SQL equality of a binary operator's unprobed equi pairs between a left
// and a right row.
bool UnprobedKeysEqual(const Node& n, const Row& lrow, const Row& rrow) {
  for (size_t i : n.unprobed) {
    if (!lrow[n.lk_all[i]].SqlEquals(rrow[n.rk_all[i]])) return false;
  }
  return true;
}

// A binary operator's reused output row: the left input's columns, then the
// right input's. Filling it copies values into existing slots, so probing
// a join level allocates nothing per row.
class ConcatBuffer {
 public:
  explicit ConcatBuffer(const Node& n)
      : row_(n.children[0]->inferred.num_columns() +
             n.children[1]->inferred.num_columns()),
        left_width_(n.children[0]->inferred.num_columns()) {}

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
  HashedSide(Relation rel, const std::vector<size_t>& key_cols)
      : rel_(std::move(rel)), key_cols_(key_cols) {
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
  const std::vector<size_t>& key_cols_;
  std::unordered_map<size_t, std::vector<size_t>> buckets_;
};

struct AggState {
  int64_t row_count = 0;
  int64_t nonnull_count = 0;
  double sum_double = 0;
  int64_t sum_int = 0;
  bool all_int = true;
  Value min;
  Value max;
};

// One run of a prepared plan against one context.
class Runner {
 public:
  explicit Runner(const EvalContext& ctx) : ctx_(ctx) {}

  // Runs `n` to completion: a pipeline breaker.
  Relation Materialize(const Node& n) {
    Relation out(n.schema);
    Stream(n, [&out](const Row& row) { out.Append(row); });
    return out;
  }

  void Stream(const Node& n, const RowSink& sink);

 private:
  void DriveBinary(const Node& n, bool empty_right_empties,
                   const std::function<void(Relation)>& build,
                   const RowSink& probe);
  void StreamJoin(const Node& n, const RowSink& sink);
  void StreamSemi(const Node& n, const RowSink& sink);
  void StreamAggregate(const Node& n, const RowSink& sink);

  const EvalContext& ctx_;
};

// Drives a binary operator whose right input is a pipeline breaker when no
// diff-driven probe path applies: materializes the right input, hands it to
// `build`, then feeds the left input's rows to `probe`. A transient-only
// side is evaluated first, so an empty diff short-circuits without touching
// stored data, as a pipelined executor would; a transient-only left side is
// materialized for that check. `empty_right_empties` is false for the
// antisemijoin, whose output over an empty right input is all of the left.
void Runner::DriveBinary(const Node& n, bool empty_right_empties,
                         const std::function<void(Relation)>& build,
                         const RowSink& probe) {
  const Node& left = *n.children[0];
  const Node& right = *n.children[1];
  if (left.transient_only) {
    const Relation left_rel = Materialize(left);
    if (left_rel.empty()) return;
    build(Materialize(right));
    for (const Row& row : left_rel.rows()) probe(row);
    return;
  }
  Relation right_rel = Materialize(right);
  if (right_rel.empty() && empty_right_empties && right.transient_only) {
    return;
  }
  build(std::move(right_rel));
  Stream(left, probe);
}

void Runner::StreamJoin(const Node& n, const RowSink& sink) {
  ConcatBuffer combined(n);
  auto emit_if_residual_holds = [&]() {
    if (!n.has_residual || n.residual->Holds(combined.row())) {
      sink(combined.row());
    }
  };
  switch (n.strategy) {
    case Strategy::kNestedLoop: {
      Relation inner;
      DriveBinary(
          n, /*empty_right_empties=*/true,
          [&](Relation right_rel) { inner = std::move(right_rel); },
          [&](const Row& lrow) {
            combined.SetLeft(lrow);
            for (const Row& rrow : inner.rows()) {
              combined.SetRight(rrow);
              if (n.pred->Holds(combined.row())) sink(combined.row());
            }
          });
      return;
    }
    case Strategy::kProbeFromLeft:
    case Strategy::kProbeFromRight: {
      // Diff-driven loop plan: probe the stored side once per distinct key
      // of the transient side. The probe may use a subset of the equi keys;
      // dropped equalities are checked on the fetched rows.
      const bool diff_is_left = n.strategy == Strategy::kProbeFromLeft;
      const Relation diff_rel = Materialize(*n.children[diff_is_left ? 0 : 1]);
      ProbeCache cache(*n.probe, ctx_);
      Row key;
      for (const Row& drow : diff_rel.rows()) {
        ProjectInto(drow, n.drive_key, &key);
        if (RowKeyHasNull(key)) continue;
        if (diff_is_left) {
          combined.SetLeft(drow);
        } else {
          combined.SetRight(drow);
        }
        for (const Row& srow : cache.Lookup(key)) {
          if (diff_is_left) {
            if (!UnprobedKeysEqual(n, drow, srow)) continue;
            combined.SetRight(srow);
          } else {
            if (!UnprobedKeysEqual(n, srow, drow)) continue;
            combined.SetLeft(srow);
          }
          emit_if_residual_holds();
        }
      }
      return;
    }
    case Strategy::kHash: {
      // The right input is the build side, the left input streams through.
      std::optional<HashedSide> hashed;
      DriveBinary(
          n, /*empty_right_empties=*/true,
          [&](Relation right_rel) {
            hashed.emplace(std::move(right_rel), n.rk_all);
          },
          [&](const Row& lrow) {
            if (AnyNull(lrow, n.lk_all)) return;
            bool left_set = false;
            hashed->ForEachMatch(lrow, n.lk_all, [&](const Row& rrow) {
              if (!left_set) {
                combined.SetLeft(lrow);
                left_set = true;
              }
              combined.SetRight(rrow);
              emit_if_residual_holds();
              return true;
            });
          });
      return;
    }
    case Strategy::kNone:
      break;
  }
  IDIVM_UNREACHABLE("join without a strategy");
}

void Runner::StreamSemi(const Node& n, const RowSink& sink) {
  const bool anti = n.plan->kind() == PlanKind::kAntiSemiJoin;
  ConcatBuffer combined(n);
  // The residual of a left/right pair whose equi keys matched.
  auto residual_holds = [&](const Row& lrow, const Row& rrow) {
    if (!n.has_residual) return true;
    combined.SetLeft(lrow);
    combined.SetRight(rrow);
    return n.residual->Holds(combined.row());
  };
  switch (n.strategy) {
    case Strategy::kProbeFromLeft: {
      // Transient left probing a stored right: the common shape of rules
      // like σφ(∆) ⋉ R and ∆ ⋉̄ Input_post.
      const Relation left_rel = Materialize(*n.children[0]);
      ProbeCache cache(*n.probe, ctx_);
      Row key;
      for (const Row& lrow : left_rel.rows()) {
        ProjectInto(lrow, n.drive_key, &key);
        if (RowKeyHasNull(key)) {
          if (anti) sink(lrow);
          continue;
        }
        bool matched = false;
        for (const Row& rrow : cache.Lookup(key)) {
          if (UnprobedKeysEqual(n, lrow, rrow) && residual_holds(lrow, rrow)) {
            matched = true;
            break;
          }
        }
        if (matched != anti) sink(lrow);
      }
      return;
    }
    case Strategy::kProbeFromRight: {
      // Transient right probing a stored left (Input_post ⋉Ī ∆): probe per
      // distinct diff key.
      const Relation right_rel = Materialize(*n.children[1]);
      std::set<Row, RowLess> emitted;
      // Group right rows by probe key so residuals against any of them
      // count once per left row.
      std::map<Row, std::vector<const Row*>, RowLess> by_key;
      for (const Row& rrow : right_rel.rows()) {
        Row key = ProjectRow(rrow, n.drive_key);
        if (RowKeyHasNull(key)) continue;
        by_key[std::move(key)].push_back(&rrow);
      }
      ProbeCache cache(*n.probe, ctx_);
      for (const auto& [key, rrows] : by_key) {
        for (const Row& lrow : cache.Lookup(key)) {
          for (const Row* rrow : rrows) {
            if (UnprobedKeysEqual(n, lrow, *rrow) &&
                residual_holds(lrow, *rrow)) {
              if (!n.dedup || emitted.insert(lrow).second) sink(lrow);
              break;
            }
          }
        }
      }
      return;
    }
    case Strategy::kHash: {
      // Fallback over a materialized build side. Semijoin with an empty
      // left or right → empty; antisemijoin with an empty right → all of
      // left (left must still be evaluated), with an empty left → empty.
      std::optional<HashedSide> hashed;
      DriveBinary(
          n, /*empty_right_empties=*/!anti,
          [&](Relation right_rel) {
            hashed.emplace(std::move(right_rel), n.rk_all);
          },
          [&](const Row& lrow) {
            bool matched = false;
            if (!AnyNull(lrow, n.lk_all)) {
              hashed->ForEachMatch(lrow, n.lk_all, [&](const Row& rrow) {
                matched = residual_holds(lrow, rrow);
                return !matched;
              });
            }
            if (matched != anti) sink(lrow);
          });
      return;
    }
    case Strategy::kNestedLoop: {
      Relation inner;
      DriveBinary(
          n, /*empty_right_empties=*/!anti,
          [&](Relation right_rel) { inner = std::move(right_rel); },
          [&](const Row& lrow) {
            bool matched = false;
            combined.SetLeft(lrow);
            for (const Row& rrow : inner.rows()) {
              combined.SetRight(rrow);
              if (n.pred->Holds(combined.row())) {
                matched = true;
                break;
              }
            }
            if (matched != anti) sink(lrow);
          });
      return;
    }
    case Strategy::kNone:
      break;
  }
  IDIVM_UNREACHABLE("semijoin without a strategy");
}

// The group table is the pipeline breaker: the input streams into it, and
// the groups are emitted in key order once the input is exhausted.
void Runner::StreamAggregate(const Node& n, const RowSink& sink) {
  const std::vector<AggSpec>& aggregates = n.plan->aggregates();
  std::map<Row, std::vector<AggState>, RowLess> groups;

  Row key;
  Stream(*n.children[0], [&](const Row& row) {
    ProjectInto(row, n.group_cols, &key);
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key, std::vector<AggState>(aggregates.size())).first;
    }
    std::vector<AggState>& states = it->second;
    for (size_t i = 0; i < aggregates.size(); ++i) {
      AggState& st = states[i];
      ++st.row_count;
      if (!n.args[i].has_value()) continue;  // COUNT(*)
      const Value v = n.args[i]->Eval(row);
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

  if (groups.empty() && n.plan->group_by().empty()) {
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

void Runner::Stream(const Node& n, const RowSink& sink) {
  const PlanNode& plan = *n.plan;
  switch (plan.kind()) {
    case PlanKind::kScan: {
      if (plan.state() == StateTag::kPre && ctx_.pre_state != nullptr) {
        const auto it = ctx_.pre_state->find(plan.table_name());
        if (it != ctx_.pre_state->end()) {
          it->second.ForEachRow(sink);
          return;
        }
      }
      ctx_.db->GetTable(plan.table_name()).ForEachRow(sink);
      return;
    }
    case PlanKind::kRelationRef: {
      // Reserved names produced by the minimizer: statically-empty results
      // (Fig. 8: ∆− ⋈_Ī R → ∅).
      if (plan.ref_name().rfind("__empty", 0) == 0) return;
      const Relation* rel = nullptr;
      if (n.slot >= 0) {
        if (static_cast<size_t>(n.slot) < ctx_.slots.size()) {
          rel = ctx_.slots[n.slot];
        }
      } else {
        const auto it = ctx_.transient.find(plan.ref_name());
        if (it != ctx_.transient.end()) rel = it->second;
      }
      IDIVM_CHECK(rel != nullptr,
                  StrCat("unbound relation ref: ", plan.ref_name()));
      IDIVM_CHECK(SameColumnNames(rel->schema(), plan.ref_schema()),
                  StrCat("relation ref schema mismatch for ",
                         plan.ref_name()));
      // Transient: reads are free.
      for (const Row& row : rel->rows()) sink(row);
      return;
    }
    case PlanKind::kSelect:
      Stream(*n.children[0], [&](const Row& row) {
        if (n.pred->Holds(row)) sink(row);
      });
      return;
    case PlanKind::kProject: {
      Row projected;
      Stream(*n.children[0], [&](const Row& row) {
        projected.resize(n.exprs.size());
        for (size_t i = 0; i < n.exprs.size(); ++i) {
          projected[i] = n.exprs[i].Eval(row);
        }
        sink(projected);
      });
      return;
    }
    case PlanKind::kJoin:
      StreamJoin(n, sink);
      return;
    case PlanKind::kSemiJoin:
    case PlanKind::kAntiSemiJoin:
      StreamSemi(n, sink);
      return;
    case PlanKind::kUnionAll: {
      Row extended;
      for (int64_t branch = 0; branch < 2; ++branch) {
        Stream(*n.children[branch], [&](const Row& row) {
          extended.assign(row.begin(), row.end());
          extended.push_back(Value(branch));
          sink(extended);
        });
      }
      return;
    }
    case PlanKind::kAggregate:
      StreamAggregate(n, sink);
      return;
    case PlanKind::kMaterialize:
      Stream(*n.children[0], sink);
      return;
    case PlanKind::kCoalesceProbe:
      // As a full relation the node means its base-truth fallback.
      Stream(*n.children[1], sink);
      return;
  }
  IDIVM_UNREACHABLE("bad PlanKind");
}

}  // namespace

PreparedPlan::PreparedPlan(std::unique_ptr<const Node> root)
    : root_(std::move(root)) {}
PreparedPlan::PreparedPlan(PreparedPlan&&) noexcept = default;
PreparedPlan& PreparedPlan::operator=(PreparedPlan&&) noexcept = default;
PreparedPlan::~PreparedPlan() = default;

const Schema& PreparedPlan::schema() const { return root_->schema; }

Relation PreparedPlan::Run(const EvalContext& ctx) const {
  IDIVM_CHECK(ctx.db != nullptr, "EvalContext requires a database");
  return Runner(ctx).Materialize(*root_);
}

PreparedPlan Prepare(const PlanPtr& plan, const Database& db,
                     const RefResolver& resolve_ref) {
  return PreparedPlan(PrepareNode(plan, db, resolve_ref));
}

Relation Evaluate(const PlanPtr& plan, const EvalContext& ctx) {
  IDIVM_CHECK(ctx.db != nullptr, "EvalContext requires a database");
  const RefResolver by_name = [&ctx](const std::string& name) {
    const auto it = ctx.transient.find(name);
    return RefBinding{
        it == ctx.transient.end() ? nullptr : &it->second->schema(), -1};
  };
  return Prepare(plan, *ctx.db, by_name).Run(ctx);
}

}  // namespace idivm
