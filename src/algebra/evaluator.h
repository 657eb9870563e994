// Plan evaluation with the paper's cost discipline.
//
// The Section 6 analysis assumes the DBMS executes ∆/D-script queries with a
// *diff-driven loop plan*: for each diff tuple, index-probe the stored
// relations it joins with (1 index lookup + p tuple reads per probe). This
// evaluator reproduces that: whenever a join/semijoin pairs a transient
// (diff-only) input with a stored access path (a Scan, possibly under
// selections/renamings), it runs an index nested-loop probing the stored
// side, charging exactly the paper's accesses. Probes with the same key are
// charged once ("retrieved once and reused" — Section 6.1's a<1 case).
// Everything else falls back to hash/nested-loop joins, whose Scan leaves
// charge one read per stored tuple.
//
// Evaluation is a push-based pipeline: each operator pushes its rows into
// its consumer, and only pipeline breakers materialize — a hash join's
// build side (its right input), a nested loop's inner side, a semijoin's
// build side, a transient-only side (an empty diff short-circuits the
// operator before any stored side is read; the diff-driven probe paths loop
// over it), an aggregate's group table, and the final result. A left-deep
// join chain therefore streams its left spine through every level's probe
// and never stores an intermediate join result. Rows come out in the order
// a level-at-a-time evaluation would produce them, and accesses are the
// same: only where the charges fall in time differs.

#ifndef IDIVM_ALGEBRA_EVALUATOR_H_
#define IDIVM_ALGEBRA_EVALUATOR_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "src/algebra/plan.h"
#include "src/storage/database.h"
#include "src/types/relation.h"

namespace idivm {

// A materialized relation with on-demand hash indexes that charges the same
// costs as a stored Table. Used for reconstructed pre-state tables, which
// are local to one maintenance epoch and read by that epoch's one thread.
class IndexedRelation {
 public:
  IndexedRelation(Relation data, AccessStats* stats);

  const Schema& schema() const { return data_.schema(); }
  size_t size() const { return data_.size(); }

  // Full scan; charges one tuple read per row.
  Relation ScanCounted() const;

  // Full scan streamed to `fn` without copying; charges one tuple read per
  // row.
  void ForEachRow(const std::function<void(const Row&)>& fn) const;

  // Rows whose `columns` equal `key`; charges 1 index lookup + 1 read per
  // returned row.
  std::vector<Row> Probe(const std::vector<size_t>& columns,
                         const Row& key) const;

  const Relation& data_uncounted() const { return data_; }

 private:
  using LazyIndex = std::unordered_map<size_t, std::vector<size_t>>;
  // Finds or builds the index on `columns`; a built index is kept for the
  // relation's lifetime (the relation never changes).
  const LazyIndex& GetOrBuildIndex(const std::vector<size_t>& columns) const;

  Relation data_;
  AccessStats* stats_;
  mutable std::map<std::vector<size_t>, LazyIndex> indexes_;
};

// Everything a plan may reference during evaluation.
struct EvalContext {
  // Stored tables in post-state; never null.
  Database* db = nullptr;
  // Reconstructed pre-state for modified tables; tables not present here are
  // identical in pre- and post-state. May be null (no pre-state scans).
  const std::map<std::string, IndexedRelation>* pre_state = nullptr;
  // Transient named relations (i-diff / t-diff instances). Reads are free.
  std::map<std::string, const Relation*> transient;
  // Tables that received updates/deletes this round: CoalesceProbe nodes
  // avoiding one of these must take the fallback path (the cache/view copy
  // of their attributes may be stale mid-script). May be null.
  const std::set<std::string>* assist_unsafe_tables = nullptr;
};

// Evaluates `plan` to a materialized relation.
Relation Evaluate(const PlanPtr& plan, EvalContext& ctx);

// ---- Probe planning --------------------------------------------------------
//
// The static half of the diff-driven loop plan: whether a subtree can serve
// keyed lookups, and how a join decomposes into chained probes. Exposed so
// the ∆-script compiler (src/exec) makes byte-for-byte the same decisions at
// compile time that the evaluator makes per evaluation — the decisions
// depend only on plan structure and stored-table schemas, never on data.

// Decomposes a join for probing from `columns` (all of which must come from
// one side). On success fills: which side is probed first, the equi keys
// linking to the other side, and the residual predicate.
struct JoinProbePlan {
  size_t first = 0;  // child index probed with the incoming key
  std::vector<std::string> first_link_cols;   // equi cols on `first` side
  std::vector<std::string> second_link_cols;  // matching cols on other side
  ExprPtr residual;
};

bool PlanJoinProbe(const PlanNode& join, const Schema& left_schema,
                   const Schema& right_schema,
                   const std::vector<std::string>& columns,
                   JoinProbePlan* out);

// True when keyed lookups on `columns` can be served by stored hash indexes
// at the subtree's Scan leaves (selections, renaming projections and chained
// joins applied on the way out).
bool CheckProbeable(const PlanPtr& plan,
                    const std::vector<std::string>& columns,
                    const Database& db);

// Finds a subset of the equi-key positions on which `target` can serve
// keyed probes, preferring the largest subset (fewest residual checks).
// Returns an empty vector when no non-empty subset works.
std::vector<size_t> FindProbeableKeySubset(
    const PlanPtr& target, const std::vector<std::string>& target_cols,
    const Database& db);

}  // namespace idivm

#endif  // IDIVM_ALGEBRA_EVALUATOR_H_
