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
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

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
  // Reconstructed pre-state for modified tables, each with its table's
  // schema; tables not present here are identical in pre- and post-state.
  // May be null (no pre-state scans).
  const std::map<std::string, IndexedRelation>* pre_state = nullptr;
  // Transient named relations (i-diff / t-diff instances). Reads are free.
  std::map<std::string, const Relation*> transient;
  // Transient relations by slot, read by the RelationRefs a prepared plan
  // resolved to a slot (RefBinding::slot); a null entry is unbound. The
  // ∆-script VM binds its registers here, so a step reads them by index.
  std::vector<const Relation*> slots;
  // Tables that received updates/deletes this round: CoalesceProbe nodes
  // avoiding one of these must take the fallback path (the cache/view copy
  // of their attributes may be stale mid-script). May be null.
  const std::set<std::string>* assist_unsafe_tables = nullptr;
};

// Evaluates `plan` to a materialized relation: Prepare, then one Run.
Relation Evaluate(const PlanPtr& plan, const EvalContext& ctx);

// ---- Prepare and run -------------------------------------------------------
//
// Evaluation has two halves. Preparing a plan makes every decision that
// depends only on plan structure and stored-table schemas: node schemas,
// bound predicate / projection / aggregate expressions, each join's and
// semijoin's strategy, probe-key subsets and the keyed-probe paths. Running
// the prepared plan makes only the decisions that depend on data: the
// empty-diff short-circuit, whether a pre-state copy of a table is present,
// the assist-unsafe fallback of view-assisted probes, and the per-run probe
// cache. The ∆-script compiler (src/exec) prepares each compute step's plan
// once per program; one-shot callers use Evaluate.

// How Prepare resolves a RelationRef. `schema` is the schema of the
// relation bound to it at run time, or null when the caller does not know it
// (the node keeps its declared schema; a run still checks the bound
// relation's column names). A run reads the ref from EvalContext::slots at
// `slot`, or by name from EvalContext::transient when `slot` is -1.
struct RefBinding {
  const Schema* schema = nullptr;
  int slot = -1;
};
using RefResolver = std::function<RefBinding(const std::string& name)>;

// A plan prepared for repeated runs (see above); built by Prepare.
class PreparedPlan {
 public:
  struct Node;  // defined in evaluator.cc

  explicit PreparedPlan(std::unique_ptr<const Node> root);
  PreparedPlan(PreparedPlan&&) noexcept;
  PreparedPlan& operator=(PreparedPlan&&) noexcept;
  ~PreparedPlan();

  // The schema of Run's result.
  const Schema& schema() const;

  // Evaluates the plan against `ctx`. A prepared plan is immutable: runs
  // from several threads at once are safe, each with its own context.
  Relation Run(const EvalContext& ctx) const;

 private:
  std::unique_ptr<const Node> root_;
};

// Prepares `plan` against the stored-table schemas of `db`. Every Scan must
// name a table of `db`. A plan prepared against one database runs against
// any database whose tables have the same schemas.
PreparedPlan Prepare(const PlanPtr& plan, const Database& db,
                     const RefResolver& resolve_ref = nullptr);

}  // namespace idivm

#endif  // IDIVM_ALGEBRA_EVALUATOR_H_
