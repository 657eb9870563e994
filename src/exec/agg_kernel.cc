#include "src/exec/agg_kernel.h"

#include <utility>

#include "src/expr/expr.h"

namespace idivm {
namespace exec {

AggKernel::AggKernel(std::vector<size_t> group_cols,
                     std::vector<AggKernelSpec> specs)
    : group_cols_(std::move(group_cols)), specs_(std::move(specs)) {
  all_numeric_ = true;
  for (const AggKernelSpec& spec : specs_) {
    if (spec.has_arg && !spec.statically_numeric) all_numeric_ = false;
  }
}

template <size_t Arity>
void AggKernel::FoldImpl(const Relation& rel, double sign,
                         GroupDeltaMap* deltas) {
  const int64_t unit = sign > 0 ? 1 : -1;
  const size_t n_aggs = specs_.size();
  const size_t arity = Arity == 0 ? group_cols_.size() : Arity;
  Row key(arity);
  for (const Row& row : rel.rows()) {
    if constexpr (Arity == 1) {
      key[0] = row[group_cols_[0]];
    } else if constexpr (Arity == 2) {
      key[0] = row[group_cols_[0]];
      key[1] = row[group_cols_[1]];
    } else {
      for (size_t i = 0; i < arity; ++i) key[i] = row[group_cols_[i]];
    }
    auto it = deltas->find(key);
    if (it == deltas->end()) {
      it = deltas->emplace(key, GroupDelta{}).first;
      it->second.sum_delta.resize(n_aggs, 0);
      it->second.nonnull_delta.resize(n_aggs, 0);
    }
    GroupDelta& delta = it->second;
    delta.row_delta += unit;
    for (size_t k = 0; k < n_aggs; ++k) {
      const AggKernelSpec& spec = specs_[k];
      if (!spec.has_arg) {
        delta.nonnull_delta[k] += unit;  // COUNT(*)
        continue;
      }
      const Value& v = row[spec.arg_col];
      if (v.is_null()) continue;
      delta.nonnull_delta[k] += unit;
      if (spec.statically_numeric || v.is_numeric()) {
        delta.sum_delta[k] += sign * v.NumericAsDouble();
      }
    }
  }
}

void AggKernel::Accumulate(const Relation& rel, double sign,
                           GroupDeltaMap* deltas) {
  switch (group_cols_.size()) {
    case 1:
      FoldImpl<1>(rel, sign, deltas);
      break;
    case 2:
      FoldImpl<2>(rel, sign, deltas);
      break;
    default:
      FoldImpl<0>(rel, sign, deltas);
      break;
  }
}

std::unique_ptr<AggKernel> BuildAggKernel(const AggregateStep& step,
                                          const AggregateBindings& bindings) {
  std::vector<AggKernelSpec> specs;
  for (const AggSpec& agg : step.aggs) {
    AggKernelSpec spec;
    if (agg.arg != nullptr) {
      // Only plain column references qualify: anything else needs the
      // generic BoundExpr evaluation the fallback loop provides.
      if (agg.arg->kind() != ExprKind::kColumn) return nullptr;
      std::optional<size_t> col =
          step.input_schema.FindColumn(agg.arg->column_name());
      if (!col.has_value()) return nullptr;
      spec.has_arg = true;
      spec.arg_col = *col;
      const DataType type = step.input_schema.column(*col).type;
      spec.statically_numeric =
          type == DataType::kInt64 || type == DataType::kDouble;
    }
    specs.push_back(spec);
  }
  return std::make_unique<AggKernel>(bindings.group_cols, std::move(specs));
}

}  // namespace exec
}  // namespace idivm
