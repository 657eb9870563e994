#include "src/core/aggregate_exec.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/expr/analysis.h"

namespace idivm {

namespace {

// Casts a double aggregate value to the declared output column type.
Value CastNumeric(DataType type, double v) {
  if (type == DataType::kInt64) {
    return Value(static_cast<int64_t>(std::llround(v)));
  }
  return Value(v);
}

// The group-key columns of the step's input.
Schema GroupKeySchema(const AggregateStep& step) {
  std::vector<ColumnDef> cols;
  for (const std::string& g : step.group_by) {
    cols.push_back(
        {g, step.input_schema.column(step.input_schema.ColumnIndex(g)).type});
  }
  return Schema(cols);
}

}  // namespace

Status BindAggregateStep(const AggregateStep& step, const DeltaScript& script,
                         const Database& db, AggregateBindings* out) {
  out->group_cols = step.input_schema.ColumnIndices(step.group_by);
  for (const AggSpec& spec : step.aggs) {
    if (spec.arg != nullptr) {
      out->args.emplace_back(BoundExpr(spec.arg, step.input_schema));
    } else {
      out->args.emplace_back(std::nullopt);
    }
  }
  out->update = script.FindDiffSchema(step.out_update);
  out->insert = script.FindDiffSchema(step.out_insert);
  out->del = script.FindDiffSchema(step.out_delete);
  if (out->update == nullptr || out->insert == nullptr ||
      out->del == nullptr) {
    return CorruptScriptError(StrCat("γ-maintain ", step.node_name,
                                     ": aggregate output diffs not "
                                     "registered"));
  }
  if (step.mode == AggregateStep::Mode::kIncremental &&
      !step.opcache_table.empty() && db.HasTable(step.opcache_table)) {
    const Schema& cache_schema = db.GetTable(step.opcache_table).schema();
    out->opcache_key_cols = cache_schema.ColumnIndices(step.group_by);
    for (const AggSpec& spec : step.aggs) {
      out->opcache_sum_cols.push_back(
          cache_schema.ColumnIndex(StrCat("__sum_", spec.name)));
      out->opcache_cnt_cols.push_back(
          cache_schema.ColumnIndex(StrCat("__cnt_", spec.name)));
    }
    out->opcache_count_col = cache_schema.ColumnIndex("__count");
    out->has_opcache = true;
  }
  return OkStatus();
}

PlanPtr RecomputeProbePlan(const AggregateStep& step) {
  std::vector<ExprPtr> eqs;
  std::vector<ProjectItem> rename;
  for (const std::string& g : step.group_by) {
    rename.push_back({Col(g), StrCat("__k_", g)});
    eqs.push_back(Eq(Col(g), Col(StrCat("__k_", g))));
  }
  return PlanNode::SemiJoin(
      step.input_post_plan,
      PlanNode::Project(
          PlanNode::RelationRef(kGroupKeysRef, GroupKeySchema(step)), rename),
      ConjoinAll(eqs));
}

Status AggregateExecutor::Run(AggregateOutputs* out) {
  IDIVM_RETURN_IF_ERROR(BindSpecs());
  IDIVM_RETURN_IF_ERROR(AccumulateDeltas());
  if (step_.mode == AggregateStep::Mode::kIncremental) {
    if (!step_.opcache_table.empty()) {
      IDIVM_RETURN_IF_ERROR(RunIncrementalWithOpcache());
    } else {
      RunIncrementalDirect();
    }
  } else {
    RunRecompute();
  }
  out->update = update_->data();
  out->insert = insert_->data();
  out->del = delete_->data();
  return OkStatus();
}

Status AggregateExecutor::Rows(const std::string& name,
                               const Relation** out) {
  const auto it = ctx_->transient.find(name);
  if (it == ctx_->transient.end()) {
    return CorruptScriptError(StrCat("γ input rows missing: ", name));
  }
  *out = it->second;
  return OkStatus();
}

Status AggregateExecutor::BindSpecs() {
  if (prebound_ != nullptr) {
    bindings_ = prebound_;
  } else {
    runtime_bindings_.group_cols =
        step_.input_schema.ColumnIndices(step_.group_by);
    for (const AggSpec& spec : step_.aggs) {
      if (spec.arg != nullptr) {
        runtime_bindings_.args.emplace_back(
            BoundExpr(spec.arg, step_.input_schema));
      } else {
        runtime_bindings_.args.emplace_back(std::nullopt);
      }
    }
    if (script_schema_lookup_ != nullptr) {
      runtime_bindings_.update =
          script_schema_lookup_->FindDiffSchema(step_.out_update);
      runtime_bindings_.insert =
          script_schema_lookup_->FindDiffSchema(step_.out_insert);
      runtime_bindings_.del =
          script_schema_lookup_->FindDiffSchema(step_.out_delete);
    }
    bindings_ = &runtime_bindings_;
  }
  // Output diff skeletons.
  if (bindings_->update == nullptr || bindings_->insert == nullptr ||
      bindings_->del == nullptr) {
    return CorruptScriptError(StrCat("γ-maintain ", step_.node_name,
                                     ": aggregate output diffs not "
                                     "registered"));
  }
  update_ = std::make_unique<DiffInstance>(*bindings_->update);
  insert_ = std::make_unique<DiffInstance>(*bindings_->insert);
  delete_ = std::make_unique<DiffInstance>(*bindings_->del);
  return OkStatus();
}

void AggregateExecutor::Contribute(const Row& row, double sign) {
  Row key = ProjectRow(row, bindings_->group_cols);
  GroupDelta& delta = deltas_[key];
  if (delta.sum_delta.empty()) {
    delta.sum_delta.resize(step_.aggs.size(), 0);
    delta.nonnull_delta.resize(step_.aggs.size(), 0);
  }
  delta.row_delta += sign > 0 ? 1 : -1;
  for (size_t k = 0; k < step_.aggs.size(); ++k) {
    if (!bindings_->args[k].has_value()) {
      delta.nonnull_delta[k] += sign > 0 ? 1 : -1;  // COUNT(*)
      continue;
    }
    const Value v = bindings_->args[k]->Eval(row);
    if (v.is_null()) continue;
    delta.nonnull_delta[k] += sign > 0 ? 1 : -1;
    if (v.is_numeric()) delta.sum_delta[k] += sign * v.NumericAsDouble();
  }
}

void AggregateExecutor::Fold(const Relation& rel, double sign) {
  if (accumulator_ != nullptr) {
    accumulator_->Accumulate(rel, sign, &deltas_);
    return;
  }
  for (const Row& row : rel.rows()) Contribute(row, sign);
}

Status AggregateExecutor::AccumulateDeltas() {
  for (const AggregateInput& input : step_.inputs) {
    const Relation* pre = nullptr;
    const Relation* post = nullptr;
    switch (input.type) {
      case DiffType::kInsert:
        IDIVM_RETURN_IF_ERROR(Rows(input.post_rows, &post));
        Fold(*post, +1);
        break;
      case DiffType::kDelete:
        IDIVM_RETURN_IF_ERROR(Rows(input.pre_rows, &pre));
        Fold(*pre, -1);
        break;
      case DiffType::kUpdate: {
        // Sum deltas do not require row alignment: subtract all pre
        // images, add all post images.
        IDIVM_RETURN_IF_ERROR(Rows(input.pre_rows, &pre));
        IDIVM_RETURN_IF_ERROR(Rows(input.post_rows, &post));
        Fold(*pre, -1);
        Fold(*post, +1);
        break;
      }
    }
  }
  return OkStatus();
}

bool AggregateExecutor::DeltaIsZero(const GroupDelta& d) const {
  if (d.row_delta != 0) return false;
  for (int64_t n : d.nonnull_delta) {
    if (n != 0) return false;
  }
  for (double s : d.sum_delta) {
    if (s != 0) return false;
  }
  return true;
}

Value AggregateExecutor::Finalize(size_t k, double sum, int64_t nonnull,
                                  int64_t rows) {
  const AggSpec& spec = step_.aggs[k];
  const DataType type =
      step_.output_schema
          .column(step_.output_schema.ColumnIndex(spec.name)).type;
  switch (spec.func) {
    case AggFunc::kCount:
      return Value(spec.arg == nullptr ? rows : nonnull);
    case AggFunc::kSum:
      if (nonnull == 0) return Value::Null();
      return CastNumeric(type, sum);
    case AggFunc::kAvg:
      if (nonnull == 0) return Value::Null();
      return Value(sum / static_cast<double>(nonnull));
    case AggFunc::kMin:
    case AggFunc::kMax:
      IDIVM_UNREACHABLE("min/max require recompute mode");
  }
  IDIVM_UNREACHABLE("bad AggFunc");
}

// ---- incremental, view updated additively (root γ, sum/count) ----
void AggregateExecutor::RunIncrementalDirect() {
  std::vector<Row> need_recompute;
  for (const auto& [key, delta] : deltas_) {
    if (DeltaIsZero(delta)) continue;
    if (delta.row_delta == 0) {
      // Pure value change: additive update diff (Tables 9/11).
      Row row = key;
      for (size_t k = 0; k < step_.aggs.size(); ++k) {
        const AggSpec& spec = step_.aggs[k];
        const DataType type =
            step_.output_schema
                .column(step_.output_schema.ColumnIndex(spec.name)).type;
        if (spec.func == AggFunc::kCount) {
          row.push_back(Value(spec.arg == nullptr
                                  ? int64_t{0}
                                  : delta.nonnull_delta[k]));
        } else {  // SUM
          row.push_back(CastNumeric(type, delta.sum_delta[k]));
        }
      }
      update_->Append(std::move(row));
    } else {
      need_recompute.push_back(key);
    }
  }
  RecomputeGroups(need_recompute, EmitMode::kClassifiedDeleteInsert);
}

// ---- incremental with the SUM+COUNT operator cache (Table 12) ----
Status AggregateExecutor::RunIncrementalWithOpcache() {
  Table& opcache = db_->GetTable(step_.opcache_table);
  const Schema& cache_schema = opcache.schema();
  std::vector<size_t> key_cols;
  std::vector<size_t> sum_cols;
  std::vector<size_t> cnt_cols;
  size_t count_col = 0;
  if (bindings_->has_opcache) {
    key_cols = bindings_->opcache_key_cols;
    sum_cols = bindings_->opcache_sum_cols;
    cnt_cols = bindings_->opcache_cnt_cols;
    count_col = bindings_->opcache_count_col;
  } else {
    key_cols = cache_schema.ColumnIndices(step_.group_by);
    for (const AggSpec& spec : step_.aggs) {
      sum_cols.push_back(cache_schema.ColumnIndex(StrCat("__sum_", spec.name)));
      cnt_cols.push_back(cache_schema.ColumnIndex(StrCat("__cnt_", spec.name)));
    }
    count_col = cache_schema.ColumnIndex("__count");
  }
  // Index-maintenance hint: the mutator below writes only the sum/cnt/count
  // columns, never the group-key columns.
  std::vector<size_t> mutated_cols = sum_cols;
  mutated_cols.insert(mutated_cols.end(), cnt_cols.begin(), cnt_cols.end());
  mutated_cols.push_back(count_col);

  // One before-image region for the whole γ step; flushed on every exit
  // path (including the non-effective-diff error below) so the applied
  // prefix stays rollback-able.
  EpochUndoBatch undo(undo_, &opcache);
  std::vector<Row> pre_images;
  std::vector<Row> post_images;
  for (const auto& [key, delta] : deltas_) {
    if (DeltaIsZero(delta)) continue;
    Row post_image;
    pre_images.clear();
    post_images.clear();
    const bool capture = undo.active();
    const size_t touched = opcache.UpdateRowsWhereEquals(
        key_cols, key,
        [&](Row& row) {
          for (size_t k = 0; k < step_.aggs.size(); ++k) {
            row[sum_cols[k]] =
                Value(row[sum_cols[k]].NumericAsDouble() +
                      delta.sum_delta[k]);
            row[cnt_cols[k]] =
                Value(row[cnt_cols[k]].AsInt64() + delta.nonnull_delta[k]);
          }
          row[count_col] = Value(row[count_col].AsInt64() + delta.row_delta);
          post_image = row;
        },
        capture ? &pre_images : nullptr, capture ? &post_images : nullptr,
        /*mutated_columns=*/&mutated_cols);
    if (undo.active()) {
      for (size_t j = 0; j < pre_images.size(); ++j) {
        undo.Add(Modification{DiffType::kUpdate, pre_images[j],
                              post_images[j]});
      }
    }
    int64_t count_post;
    if (touched == 0) {
      if (delta.row_delta <= 0) {
        // A vanished group the opcache has never seen: the input diffs
        // violate the Section 2 effectiveness conditions.
        return ApplyConflictError(
            "negative delta for an unknown group — non-effective "
            "input diffs");
      }
      // New group: insert the opcache row.
      Row row = key;
      for (size_t k = 0; k < step_.aggs.size(); ++k) {
        row.push_back(Value(delta.sum_delta[k]));
        row.push_back(Value(delta.nonnull_delta[k]));
      }
      // Column order: group cols, then (sum, cnt) pairs, then __count —
      // matches the compose-time schema.
      row.push_back(Value(delta.row_delta));
      opcache.Insert(row);
      if (undo.active()) {
        undo.Add(Modification{DiffType::kInsert, Row(), row});
      }
      post_image = row;
      count_post = delta.row_delta;
    } else {
      count_post = post_image[count_col].AsInt64();
    }
    const int64_t count_pre = count_post - delta.row_delta;
    if (count_post == 0) {
      opcache.DeleteByKey(key);
      if (undo.active()) {
        undo.Add(Modification{DiffType::kDelete, post_image, Row()});
      }
      if (count_pre > 0) delete_->Append(key);
      continue;
    }
    // Final absolute values from the opcache row.
    Row values;
    for (size_t k = 0; k < step_.aggs.size(); ++k) {
      values.push_back(Finalize(k, post_image[sum_cols[k]].NumericAsDouble(),
                                post_image[cnt_cols[k]].AsInt64(),
                                count_post));
    }
    Row row = key;
    row.insert(row.end(), values.begin(), values.end());
    if (count_pre == 0) {
      insert_->Append(std::move(row));
    } else {
      update_->Append(std::move(row));
    }
  }
  return OkStatus();
}

// ---- general recompute rule (Table 7) ----
void AggregateExecutor::RunRecompute() {
  // Affected groups: every group key touched by any input image. The set
  // may overestimate (keys whose net change cancels); recomputing them is
  // harmless.
  std::vector<Row> affected;
  for (const auto& [key, delta] : deltas_) {
    (void)delta;
    affected.push_back(key);
  }
  RecomputeGroups(affected, EmitMode::kUpdateAndInsert);
}

// Recomputes `keys` from the input's post state. Groups with no remaining
// rows become deletes; surviving groups are emitted per `mode`.
void AggregateExecutor::RecomputeGroups(const std::vector<Row>& keys,
                                        EmitMode mode) {
  if (keys.empty()) return;
  // Probe the input's post state per group key.
  Relation key_rel(GroupKeySchema(step_));
  for (const Row& key : keys) key_rel.Append(key);
  ctx_->transient[kGroupKeysRef] = &key_rel;
  const Relation rows = recompute_probe_ != nullptr
                            ? recompute_probe_->Run(*ctx_)
                            : Evaluate(RecomputeProbePlan(step_), *ctx_);
  ctx_->transient.erase(kGroupKeysRef);

  // Group + recompute exactly (count rows, non-null counts, sums, min/max).
  struct Recomputed {
    int64_t rows = 0;
    std::vector<int64_t> nonnull;
    std::vector<double> sums;
    std::vector<Value> mins;
    std::vector<Value> maxs;
  };
  std::map<Row, Recomputed, GroupKeyLess> groups;
  for (const Row& row : rows.rows()) {
    Row key = ProjectRow(row, bindings_->group_cols);
    Recomputed& g = groups[key];
    if (g.nonnull.empty()) {
      g.nonnull.resize(step_.aggs.size(), 0);
      g.sums.resize(step_.aggs.size(), 0);
      g.mins.resize(step_.aggs.size());
      g.maxs.resize(step_.aggs.size());
    }
    ++g.rows;
    for (size_t k = 0; k < step_.aggs.size(); ++k) {
      if (!bindings_->args[k].has_value()) {
        ++g.nonnull[k];
        continue;
      }
      const Value v = bindings_->args[k]->Eval(row);
      if (v.is_null()) continue;
      ++g.nonnull[k];
      if (v.is_numeric()) g.sums[k] += v.NumericAsDouble();
      if (g.mins[k].is_null() || v.Compare(g.mins[k]) < 0) g.mins[k] = v;
      if (g.maxs[k].is_null() || v.Compare(g.maxs[k]) > 0) g.maxs[k] = v;
    }
  }

  for (const Row& key : keys) {
    const auto it = groups.find(key);
    if (it == groups.end()) {
      // No remaining rows: the group disappears (delete is overestimated
      // for groups that never existed; harmless).
      delete_->Append(key);
      continue;
    }
    const Recomputed& g = it->second;
    Row values;
    for (size_t k = 0; k < step_.aggs.size(); ++k) {
      const AggSpec& spec = step_.aggs[k];
      const DataType type =
          step_.output_schema
              .column(step_.output_schema.ColumnIndex(spec.name)).type;
      switch (spec.func) {
        case AggFunc::kCount:
          values.push_back(
              Value(spec.arg == nullptr ? g.rows : g.nonnull[k]));
          break;
        case AggFunc::kSum:
          values.push_back(g.nonnull[k] == 0
                               ? Value::Null()
                               : CastNumeric(type, g.sums[k]));
          break;
        case AggFunc::kAvg:
          values.push_back(g.nonnull[k] == 0
                               ? Value::Null()
                               : Value(g.sums[k] /
                                       static_cast<double>(g.nonnull[k])));
          break;
        case AggFunc::kMin:
          values.push_back(g.mins[k]);
          break;
        case AggFunc::kMax:
          values.push_back(g.maxs[k]);
          break;
      }
    }
    Row row = key;
    row.insert(row.end(), values.begin(), values.end());
    if (mode == EmitMode::kUpdateAndInsert) {
      update_->Append(row);
      insert_->Append(std::move(row));
      continue;
    }
    const GroupDelta& delta = deltas_.at(key);
    const int64_t count_pre = g.rows - delta.row_delta;
    if (count_pre <= 0) {
      insert_->Append(std::move(row));
    } else {
      // The additive out_update schema cannot carry absolute values:
      // express the update as delete + re-insert (keys disjoint from the
      // purely-additive groups).
      delete_->Append(key);
      insert_->Append(std::move(row));
    }
  }
}

}  // namespace idivm
