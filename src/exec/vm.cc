#include "src/exec/vm.h"

#include <chrono>
#include <deque>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/aggregate_exec.h"
#include "src/diff/apply.h"
#include "src/obs/metrics.h"

namespace idivm {
namespace exec {
namespace {

bool RowKeyHasNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) < 0;
  }
};

// Same in-memory hash side as the evaluator's fallback joins (no charges:
// both inputs are already materialized).
struct HashedSide {
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  const Relation* rel = nullptr;
  std::vector<size_t> key_cols;

  void Build(const Relation& rel_in, const std::vector<size_t>& cols) {
    rel = &rel_in;
    key_cols = cols;
    for (size_t i = 0; i < rel_in.rows().size(); ++i) {
      const Row& row = rel_in.rows()[i];
      if (RowKeyHasNull(ProjectRow(row, cols))) continue;
      buckets[HashRowKey(row, cols)].push_back(i);
    }
  }

  std::vector<size_t> Matches(const Row& key) const {
    std::vector<size_t> out;
    size_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : key) {
      h ^= v.Hash();
      h *= 0x100000001b3ULL;
    }
    const auto it = buckets.find(h);
    if (it == buckets.end()) return out;
    for (size_t idx : it->second) {
      const Row& row = rel->rows()[idx];
      bool match = true;
      for (size_t i = 0; i < key_cols.size(); ++i) {
        if (row[key_cols[i]].Compare(key[i]) != 0) {
          match = false;
          break;
        }
      }
      if (match) out.push_back(idx);
    }
    return out;
  }
};

// Equi-key positions not covered by the probe subset (checked row-by-row on
// fetched rows, exactly like the evaluator's key_equality_holds).
std::vector<size_t> UnusedKeyPositions(const PlanOp& op) {
  const std::set<size_t> used(op.subset.begin(), op.subset.end());
  std::vector<size_t> unused;
  for (size_t i = 0; i < op.lk_all.size(); ++i) {
    if (used.count(i) == 0) unused.push_back(i);
  }
  return unused;
}

// Mutable state of one program execution.
struct ExecState {
  const ExecEnv* env = nullptr;
  const CompiledProgram* p = nullptr;
  std::vector<Table*> tables;     // resolved once; null = table missing
  std::vector<Relation> regs;     // slot registers
  std::vector<char> written;      // slot has been published this epoch

  Table* ResolveTable(int table_id) {
    Table* t = tables[table_id];
    // Missing table: resolve through the database so its CHECK fires with
    // the identical message.
    if (t == nullptr) t = &env->db->GetTable(p->tables[table_id]);
    return t;
  }

  void Publish(int slot, Relation rel) {
    regs[slot] = std::move(rel);
    written[slot] = 1;
  }

  // An evaluator context over the published registers, as they stand now.
  EvalContext SnapshotContext() const {
    EvalContext ctx;
    ctx.db = env->db;
    ctx.pre_state = env->pre_state;
    ctx.assist_unsafe_tables = env->assist_unsafe;
    for (size_t i = 0; i < regs.size(); ++i) {
      if (written[i] != 0) ctx.transient[p->slots[i].name] = &regs[i];
    }
    return ctx;
  }
};

// Per-micro-op evaluation frame: owns intermediate relations so plan ops
// can hand out references (slot reads borrow the register directly — the
// evaluator's RelationRef copy carries no charge, so eliding it is one of
// the compiled program's wins).
struct Frame {
  ExecState* st = nullptr;
  EvalContext* fallback_ctx = nullptr;  // built only when the plan needs it
  std::deque<Relation> scratch;

  const Relation& Own(Relation rel) {
    scratch.push_back(std::move(rel));
    return scratch.back();
  }
};

const Relation& EvalOp(int idx, Frame& f);

// ---- Probe execution (mirrors DoProbe) -------------------------------------

std::vector<Row> DoProbeOp(int idx, const Row& key, Frame& f) {
  ExecState& st = *f.st;
  const ProbeOp& op = st.p->probe_ops[idx];
  switch (op.kind) {
    case ProbeOp::Kind::kScan: {
      const std::string& name = st.p->tables[op.table_id];
      if (op.pre_state && st.env->pre_state != nullptr) {
        const auto it = st.env->pre_state->find(name);
        if (it != st.env->pre_state->end()) {
          return it->second.Probe(op.key_cols, key);
        }
      }
      return st.ResolveTable(op.table_id)->LookupWhereEquals(op.key_cols,
                                                             key);
    }
    case ProbeOp::Kind::kSelect: {
      std::vector<Row> rows = DoProbeOp(op.child0, key, f);
      std::vector<Row> out;
      out.reserve(rows.size());
      for (Row& row : rows) {
        if (op.pred->Holds(row)) out.push_back(std::move(row));
      }
      return out;
    }
    case ProbeOp::Kind::kProject: {
      std::vector<Row> rows = DoProbeOp(op.child0, key, f);
      std::vector<Row> out;
      out.reserve(rows.size());
      for (const Row& row : rows) {
        Row projected;
        projected.reserve(op.exprs.size());
        for (const BoundExpr& e : op.exprs) projected.push_back(e.Eval(row));
        out.push_back(std::move(projected));
      }
      return out;
    }
    case ProbeOp::Kind::kCoalesce: {
      const bool unsafe =
          op.static_unsafe ||
          (st.env->assist_unsafe != nullptr &&
           st.env->assist_unsafe->count(st.p->tables[op.table_id]) > 0);
      if (!unsafe) {
        std::vector<Row> rows = DoProbeOp(op.child0, key, f);
        if (!rows.empty()) {
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
      return DoProbeOp(op.child1, key, f);
    }
    case ProbeOp::Kind::kJoin: {
      std::vector<Row> first_rows = DoProbeOp(op.child0, key, f);
      std::vector<Row> out;
      for (const Row& frow : first_rows) {
        const Row link_key = ProjectRow(frow, op.link_cols);
        if (RowKeyHasNull(link_key)) continue;
        for (const Row& srow : DoProbeOp(op.child1, link_key, f)) {
          Row combined = op.first_is_left ? ConcatRows(frow, srow)
                                          : ConcatRows(srow, frow);
          if (op.residual->Holds(combined)) out.push_back(std::move(combined));
        }
      }
      return out;
    }
  }
  IDIVM_UNREACHABLE("bad ProbeOp kind");
}

// Per-join-execution probe memoization (the evaluator's ProbeCache: probes
// with the same key are charged once).
class ProbeMemo {
 public:
  ProbeMemo(int root, Frame* f) : root_(root), f_(f) {}

  const std::vector<Row>& Lookup(const Row& key) {
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    return cache_.emplace(key, DoProbeOp(root_, key, *f_)).first->second;
  }

 private:
  int root_;
  Frame* f_;
  std::map<Row, std::vector<Row>, RowLess> cache_;
};

// ---- Plan execution (mirrors EvaluateImpl and friends) ---------------------

Relation EvalJoinProbe(const PlanOp& op, Frame& f) {
  const Relation& driver = EvalOp(op.child0, f);
  Relation out(op.out_schema);
  const std::vector<size_t> unused = UnusedKeyPositions(op);
  ProbeMemo memo(op.probe_root, &f);
  const bool left_drives = op.transient_first == 0;
  for (const Row& drow : driver.rows()) {
    const Row key = ProjectRow(drow, op.probe_key_cols);
    if (RowKeyHasNull(key)) continue;
    for (const Row& srow : memo.Lookup(key)) {
      Row combined =
          left_drives ? ConcatRows(drow, srow) : ConcatRows(srow, drow);
      bool keys_ok = true;
      for (size_t i : unused) {
        if (!combined[op.lk_all[i]].SqlEquals(
                combined[op.left_ncols + op.rk_all[i]])) {
          keys_ok = false;
          break;
        }
      }
      if (keys_ok && op.residual->Holds(combined)) {
        out.Append(std::move(combined));
      }
    }
  }
  return out;
}

Relation EvalJoinHash(const PlanOp& op, Frame& f) {
  Relation out(op.out_schema);
  const Relation* left_rel = nullptr;
  const Relation* right_rel = nullptr;
  if (op.transient_first == 0) {
    left_rel = &EvalOp(op.child0, f);
    if (left_rel->empty()) return out;
    right_rel = &EvalOp(op.child1, f);
  } else if (op.transient_first == 1) {
    right_rel = &EvalOp(op.child1, f);
    if (right_rel->empty()) return out;
    left_rel = &EvalOp(op.child0, f);
  } else {
    left_rel = &EvalOp(op.child0, f);
    right_rel = &EvalOp(op.child1, f);
  }
  HashedSide hashed;
  hashed.Build(*right_rel, op.rk_all);
  for (const Row& lrow : left_rel->rows()) {
    const Row key = ProjectRow(lrow, op.lk_all);
    if (RowKeyHasNull(key)) continue;
    for (size_t ridx : hashed.Matches(key)) {
      Row combined = ConcatRows(lrow, right_rel->rows()[ridx]);
      if (op.residual->Holds(combined)) out.Append(std::move(combined));
    }
  }
  return out;
}

Relation EvalJoinNl(const PlanOp& op, Frame& f) {
  Relation out(op.out_schema);
  const Relation* left_rel = nullptr;
  const Relation* right_rel = nullptr;
  if (op.transient_first == 0) {
    left_rel = &EvalOp(op.child0, f);
    if (left_rel->empty()) return out;
    right_rel = &EvalOp(op.child1, f);
  } else if (op.transient_first == 1) {
    right_rel = &EvalOp(op.child1, f);
    if (right_rel->empty()) return out;
    left_rel = &EvalOp(op.child0, f);
  } else {
    left_rel = &EvalOp(op.child0, f);
    right_rel = &EvalOp(op.child1, f);
  }
  for (const Row& lrow : left_rel->rows()) {
    for (const Row& rrow : right_rel->rows()) {
      Row combined = ConcatRows(lrow, rrow);
      if (op.pred->Holds(combined)) out.Append(std::move(combined));
    }
  }
  return out;
}

Relation EvalSemiProbeLeft(const PlanOp& op, Frame& f) {
  const Relation& left_rel = EvalOp(op.child0, f);
  Relation out(op.out_schema);
  const std::vector<size_t> unused = UnusedKeyPositions(op);
  auto keys_match = [&](const Row& lrow, const Row& rrow) {
    for (size_t i : unused) {
      if (!lrow[op.lk_all[i]].SqlEquals(rrow[op.rk_all[i]])) return false;
    }
    return true;
  };
  ProbeMemo memo(op.probe_root, &f);
  for (const Row& lrow : left_rel.rows()) {
    const Row key = ProjectRow(lrow, op.probe_key_cols);
    if (RowKeyHasNull(key)) {
      if (op.anti) out.Append(lrow);
      continue;
    }
    bool matched = false;
    for (const Row& rrow : memo.Lookup(key)) {
      if (keys_match(lrow, rrow) &&
          op.residual->Holds(ConcatRows(lrow, rrow))) {
        matched = true;
        break;
      }
    }
    if (matched != op.anti) out.Append(lrow);
  }
  return out;
}

Relation EvalSemiProbeRight(const PlanOp& op, Frame& f) {
  const Relation& right_rel = EvalOp(op.child0, f);
  Relation out(op.out_schema);
  const std::vector<size_t> unused = UnusedKeyPositions(op);
  auto keys_match = [&](const Row& lrow, const Row& rrow) {
    for (size_t i : unused) {
      if (!lrow[op.lk_all[i]].SqlEquals(rrow[op.rk_all[i]])) return false;
    }
    return true;
  };
  std::set<Row, RowLess> emitted;
  std::map<Row, std::vector<const Row*>, RowLess> by_key;
  for (const Row& rrow : right_rel.rows()) {
    Row key = ProjectRow(rrow, op.probe_key_cols);
    if (RowKeyHasNull(key)) continue;
    by_key[std::move(key)].push_back(&rrow);
  }
  ProbeMemo memo(op.probe_root, &f);
  for (const auto& [key, rrows] : by_key) {
    for (const Row& lrow : memo.Lookup(key)) {
      for (const Row* rrow : rrows) {
        if (keys_match(lrow, *rrow) &&
            op.residual->Holds(ConcatRows(lrow, *rrow))) {
          if (!op.partial || emitted.insert(lrow).second) {
            out.Append(lrow);
          }
          break;
        }
      }
    }
  }
  return out;
}

Relation EvalSemiFallback(const PlanOp& op, Frame& f) {
  Relation out(op.out_schema);
  const Relation* left_rel = nullptr;
  const Relation* right_rel = nullptr;
  if (op.transient_first == 0) {
    left_rel = &EvalOp(op.child0, f);
    if (left_rel->empty()) return out;
    right_rel = &EvalOp(op.child1, f);
  } else if (op.transient_first == 1) {
    right_rel = &EvalOp(op.child1, f);
    if (right_rel->empty() && !op.anti) return out;
    left_rel = &EvalOp(op.child0, f);
  } else {
    left_rel = &EvalOp(op.child0, f);
    right_rel = &EvalOp(op.child1, f);
  }
  if (op.kind == PlanOp::Kind::kSemiHash) {
    HashedSide hashed;
    hashed.Build(*right_rel, op.rk_all);
    for (const Row& lrow : left_rel->rows()) {
      const Row key = ProjectRow(lrow, op.lk_all);
      bool matched = false;
      if (!RowKeyHasNull(key)) {
        for (size_t ridx : hashed.Matches(key)) {
          if (op.residual->Holds(
                  ConcatRows(lrow, right_rel->rows()[ridx]))) {
            matched = true;
            break;
          }
        }
      }
      if (matched != op.anti) out.Append(lrow);
    }
    return out;
  }
  for (const Row& lrow : left_rel->rows()) {
    bool matched = false;
    for (const Row& rrow : right_rel->rows()) {
      if (op.pred->Holds(ConcatRows(lrow, rrow))) {
        matched = true;
        break;
      }
    }
    if (matched != op.anti) out.Append(lrow);
  }
  return out;
}

struct AggState {
  int64_t row_count = 0;
  int64_t nonnull_count = 0;
  double sum_double = 0;
  int64_t sum_int = 0;
  bool all_int = true;
  Value min;
  Value max;
};

Relation EvalAggregateOp(const PlanOp& op, Frame& f) {
  const Relation& input = EvalOp(op.child0, f);
  const std::vector<AggSpec>& specs = op.plan->aggregates();

  std::map<Row, std::vector<AggState>, RowLess> groups;
  for (const Row& row : input.rows()) {
    Row key = ProjectRow(row, op.group_cols);
    auto [it, inserted] =
        groups.try_emplace(std::move(key), std::vector<AggState>(specs.size()));
    std::vector<AggState>& states = it->second;
    for (size_t i = 0; i < specs.size(); ++i) {
      AggState& st = states[i];
      ++st.row_count;
      if (!op.agg_args[i].has_value()) continue;  // COUNT(*)
      const Value v = op.agg_args[i]->Eval(row);
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
  }

  Relation out(op.out_schema);
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

  if (groups.empty() && op.plan->group_by().empty()) {
    Row row;
    const std::vector<AggState> empty_states(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      row.push_back(finalize(specs[i], empty_states[i]));
    }
    out.Append(std::move(row));
    return out;
  }
  for (const auto& [key, states] : groups) {
    Row row = key;
    for (size_t i = 0; i < specs.size(); ++i) {
      row.push_back(finalize(specs[i], states[i]));
    }
    out.Append(std::move(row));
  }
  return out;
}

const Relation& EvalOp(int idx, Frame& f) {
  ExecState& st = *f.st;
  const PlanOp& op = st.p->plan_ops[idx];
  switch (op.kind) {
    case PlanOp::Kind::kScan: {
      const std::string& name = st.p->tables[op.table_id];
      if (op.pre_state && st.env->pre_state != nullptr) {
        const auto it = st.env->pre_state->find(name);
        if (it != st.env->pre_state->end()) {
          return f.Own(it->second.ScanCounted());
        }
      }
      return f.Own(st.ResolveTable(op.table_id)->ScanAll());
    }
    case PlanOp::Kind::kSlotRef:
      return st.regs[op.slot];  // borrow: transient reads are free
    case PlanOp::Kind::kEmptyRef:
      return f.Own(Relation(op.out_schema));
    case PlanOp::Kind::kSelect: {
      const Relation& input = EvalOp(op.child0, f);
      Relation out(input.schema());
      for (const Row& row : input.rows()) {
        if (op.pred->Holds(row)) out.Append(row);
      }
      return f.Own(std::move(out));
    }
    case PlanOp::Kind::kProject: {
      const Relation& input = EvalOp(op.child0, f);
      Relation out(op.out_schema);
      for (const Row& row : input.rows()) {
        Row projected;
        projected.reserve(op.exprs.size());
        for (const BoundExpr& e : op.exprs) projected.push_back(e.Eval(row));
        out.Append(std::move(projected));
      }
      return f.Own(std::move(out));
    }
    case PlanOp::Kind::kFilterProject: {
      // The fused SPJ kernel: one pass, no intermediate relation.
      const Relation& input = EvalOp(op.child0, f);
      Relation out(op.out_schema);
      for (const Row& row : input.rows()) {
        if (!op.pred->Holds(row)) continue;
        Row projected;
        projected.reserve(op.exprs.size());
        for (const BoundExpr& e : op.exprs) projected.push_back(e.Eval(row));
        out.Append(std::move(projected));
      }
      return f.Own(std::move(out));
    }
    case PlanOp::Kind::kUnionAll: {
      const Relation& left = EvalOp(op.child0, f);
      const Relation& right = EvalOp(op.child1, f);
      Relation out(op.out_schema);
      for (const Row& row : left.rows()) {
        Row extended = row;
        extended.push_back(Value(int64_t{0}));
        out.Append(std::move(extended));
      }
      for (const Row& row : right.rows()) {
        Row extended = row;
        extended.push_back(Value(int64_t{1}));
        out.Append(std::move(extended));
      }
      return f.Own(std::move(out));
    }
    case PlanOp::Kind::kJoinProbe:
      return f.Own(EvalJoinProbe(op, f));
    case PlanOp::Kind::kJoinHash:
      return f.Own(EvalJoinHash(op, f));
    case PlanOp::Kind::kJoinNl:
      return f.Own(EvalJoinNl(op, f));
    case PlanOp::Kind::kSemiProbeLeft:
      return f.Own(EvalSemiProbeLeft(op, f));
    case PlanOp::Kind::kSemiProbeRight:
      return f.Own(EvalSemiProbeRight(op, f));
    case PlanOp::Kind::kSemiHash:
    case PlanOp::Kind::kSemiNl:
      return f.Own(EvalSemiFallback(op, f));
    case PlanOp::Kind::kAggregate:
      return f.Own(EvalAggregateOp(op, f));
    case PlanOp::Kind::kFallback: {
      IDIVM_CHECK(f.fallback_ctx != nullptr,
                  "fallback op without an EvalContext");
      return f.Own(Evaluate(op.plan, *f.fallback_ctx));
    }
  }
  IDIVM_UNREACHABLE("bad PlanOp kind");
}

// Root evaluation yielding an owned relation: borrows are copied (the
// evaluator's RelationRef evaluation also copies), owned results move.
Relation EvalOwnedOp(int idx, Frame& f) {
  const Relation& rel = EvalOp(idx, f);
  if (f.st->p->plan_ops[idx].kind == PlanOp::Kind::kSlotRef) {
    return rel;  // copy out of the register
  }
  return std::move(f.scratch.back());
}

// ---- γ bridge --------------------------------------------------------------

// TransientAccess over the register file.
class SlotTransientAccess : public TransientAccess {
 public:
  explicit SlotTransientAccess(ExecState* st) : st_(st) {}

  const Relation* Find(const std::string& name) override {
    const auto it = st_->p->slot_index.find(name);
    if (it == st_->p->slot_index.end()) return nullptr;
    if (st_->written[it->second] == 0) return nullptr;
    return &st_->regs[it->second];
  }

  void Publish(const std::string& name, Relation rel) override {
    const auto it = st_->p->slot_index.find(name);
    IDIVM_CHECK(it != st_->p->slot_index.end(),
                StrCat("γ publish to unknown slot: ", name));
    st_->regs[it->second] = std::move(rel);
    st_->written[it->second] = 1;
  }

  Relation EvaluateScoped(const PlanPtr& plan, const std::string& scratch_name,
                          const Relation& scratch) override {
    EvalContext ctx = st_->SnapshotContext();
    ctx.transient[scratch_name] = &scratch;
    return Evaluate(plan, ctx);
  }

 private:
  ExecState* st_;
};

// ---- Micro-op / instruction execution --------------------------------------

Status RunMicroOp(ExecState& st, const MicroOp& op,
                  std::optional<DiffInstance>* piped, StepRun& run,
                  EvalContext* fallback_ctx) {
  const ExecEnv& env = *st.env;
  if (env.fault != nullptr) {
    IDIVM_RETURN_IF_ERROR(env.fault->Check(StrCat("step:", op.label)));
  }
  if (env.deadline != nullptr) {
    IDIVM_RETURN_IF_ERROR(env.deadline->Check(StrCat("step:", op.label)));
  }
  switch (op.kind) {
    case MicroOp::Kind::kCompute: {
      Frame f;
      f.st = &st;
      f.fallback_ctx = fallback_ctx;
      Relation rel = EvalOwnedOp(op.plan_root, f);
      if (!op.raw) {
        if (op.unregistered_out) {
          return CorruptScriptError(
              StrCat("compute of unregistered diff ", op.name));
        }
        DiffInstance inst(*op.out_diff, std::move(rel));
        inst.DeduplicateByIds();
        if (op.fuse_to_next) {
          if (op.publish_output) st.Publish(op.out_slot, inst.data());
          piped->emplace(std::move(inst));
        } else {
          st.Publish(op.out_slot, inst.data());
        }
      } else {
        st.Publish(op.out_slot, std::move(rel));
      }
      break;
    }
    case MicroOp::Kind::kApply: {
      // Resolve the main diff and every compose-time-merged extra before
      // any mutation, main diff first, then the extras in order.
      if (op.apply_unregistered) {
        return CorruptScriptError(
            StrCat("apply of unregistered diff ", op.name));
      }
      const DiffSchema* schema = nullptr;
      const Relation* data = nullptr;
      if (op.piped_input) {
        schema = &(*piped)->schema();
        data = &(*piped)->data();
      } else {
        if (op.apply_unbound) {
          return CorruptScriptError(StrCat("apply of unbound diff ", op.name));
        }
        schema = op.diff_schema;
        data = &st.regs[op.in_slot];
      }
      for (const ExtraApply& ex : op.extras) {
        if (ex.unregistered) {
          return CorruptScriptError(
              StrCat("apply of unregistered diff ", ex.name));
        }
        if (ex.unbound) {
          return CorruptScriptError(StrCat("apply of unbound diff ", ex.name));
        }
      }
      Table& target = *st.ResolveTable(op.table_id);
      if (env.apply_observer != nullptr && *env.apply_observer) {
        (*env.apply_observer)(st.p->tables[op.table_id],
                              DiffInstance(*schema, *data));
        for (const ExtraApply& ex : op.extras) {
          (*env.apply_observer)(st.p->tables[op.table_id],
                                DiffInstance(*ex.schema, st.regs[ex.in_slot]));
        }
      }
      if (env.fault != nullptr) {
        IDIVM_RETURN_IF_ERROR(
            env.fault->Check(StrCat("apply:", st.p->tables[op.table_id])));
      }
      if (env.deadline != nullptr) {
        IDIVM_RETURN_IF_ERROR(env.deadline->Check(
            StrCat("apply:", st.p->tables[op.table_id])));
      }
      ReturningImages images(target.schema());
      AccessStats apply_before;
      if (env.trace != nullptr) {
        apply_before = run.arena.Sum(&env.db->stats());
        run.apply_start_us = env.trace->NowMicros();
      }
      IDIVM_RETURN_IF_ERROR(TryApplyDiff(*schema, *data, target, &run.applied,
                                         op.capture ? &images : nullptr,
                                         env.undo, env.fault));
      for (const ExtraApply& ex : op.extras) {
        IDIVM_RETURN_IF_ERROR(TryApplyDiff(
            *ex.schema, st.regs[ex.in_slot], target, &run.applied,
            op.capture ? &images : nullptr, env.undo, env.fault));
      }
      if (env.trace != nullptr) {
        run.apply_end_us = env.trace->NowMicros();
        run.apply_accesses = run.arena.Sum(&env.db->stats()) - apply_before;
        run.has_apply = true;
      }
      if (op.capture) {
        st.Publish(op.pre_slot, std::move(images.pre_images));
        st.Publish(op.post_slot, std::move(images.post_images));
      }
      break;
    }
    case MicroOp::Kind::kAggregate: {
      SlotTransientAccess transients(&st);
      AggregateExecutor exec(env.db, *op.agg, &transients);
      exec.set_script(&st.p->script);
      exec.set_undo(env.undo);
      if (op.has_bindings) exec.set_bindings(&op.bindings);
      if (op.kernel != nullptr) {
        exec.set_accumulator(op.kernel.get());
        obs::GlobalCounter("idivm_agg_kernel_hits_total").Increment(1);
      } else {
        obs::GlobalCounter("idivm_agg_kernel_misses_total").Increment(1);
      }
      IDIVM_RETURN_IF_ERROR(exec.Run());
      break;
    }
  }
  if (env.max_epoch_ops > 0 &&
      static_cast<int64_t>(env.undo->size()) > env.max_epoch_ops) {
    return ResourceExhaustedError(
        StrCat("epoch op budget exceeded: ", env.undo->size(),
               " stored-table mutations > --max-epoch-ops=",
               env.max_epoch_ops));
  }
  return OkStatus();
}

Status RunInstruction(ExecState& st, const Instruction& inst) {
  const ExecEnv& env = *st.env;
  std::optional<DiffInstance> piped;
  for (const MicroOp& op : inst.ops) {
    // Fallback subtrees get an evaluator EvalContext over the slot
    // registers, snapshotted at the micro-op boundary (step entry).
    EvalContext fctx;
    EvalContext* fctx_ptr = nullptr;
    if (op.kind == MicroOp::Kind::kCompute && op.has_fallback) {
      fctx = st.SnapshotContext();
      fctx_ptr = &fctx;
    }
    StepRun& run = (*env.runs)[op.step];
    ScopedStatsArena scope(&run.arena);
    if (env.trace != nullptr) {
      run.start_us = env.trace->NowMicros();
      run.tid = obs::TraceRecorder::CurrentThreadId();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = RunMicroOp(st, op, &piped, run, fctx_ptr);
    const auto t1 = std::chrono::steady_clock::now();
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (env.trace != nullptr) run.end_us = env.trace->NowMicros();
    if (!status.ok()) return status;
  }
  return OkStatus();
}

}  // namespace

Status Execute(const ExecEnv& env) {
  const CompiledProgram& p = *env.program;
  ExecState st;
  st.env = &env;
  st.p = &p;

  st.tables.assign(p.tables.size(), nullptr);
  for (size_t i = 0; i < p.tables.size(); ++i) {
    if (env.db->HasTable(p.tables[i])) {
      st.tables[i] = &env.db->GetTable(p.tables[i]);
    }
  }

  st.regs.reserve(p.slots.size());
  for (const CompiledProgram::SlotDef& slot : p.slots) {
    st.regs.emplace_back(slot.schema);
  }
  st.written.assign(p.slots.size(), 0);
  for (const auto& [name, inst] : *env.instances) {
    const auto it = p.slot_index.find(name);
    if (it == p.slot_index.end()) continue;
    st.regs[it->second] = inst.data();
    st.written[it->second] = 1;
  }

  for (const Instruction& inst : p.instructions) {
    IDIVM_RETURN_IF_ERROR(RunInstruction(st, inst));
  }
  return OkStatus();
}

}  // namespace exec
}  // namespace idivm
