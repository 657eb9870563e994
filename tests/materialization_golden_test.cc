// View materialization against a golden file: the rows every view and
// operator-cache table holds after DefineView, in table slot order, and the
// exact AccessStats a charged rematerialization (RecomputeAllViews) costs.
// Slot order is the order the plan evaluator emitted the rows in, so the
// file pins the evaluator's output order as well as its contents and its
// accesses; γ sums over doubles depend on that order bit for bit. The
// recorded outcomes are in tests/golden/materialization.golden (format:
// tests/golden_file.h).

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/str_util.h"
#include "src/core/view_manager.h"
#include "src/workload/bsma.h"
#include "tests/golden_file.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

// Exact bytes of a value: a type tag, then the int64 / double bit pattern
// or the string bytes.
void AppendValueBytes(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kInt64: {
      const int64_t i = v.AsInt64();
      out->append(reinterpret_cast<const char*>(&i), sizeof(i));
      break;
    }
    case DataType::kDouble: {
      const double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      out->append(reinterpret_cast<const char*>(&bits), sizeof(bits));
      break;
    }
    case DataType::kString:
      out->append(v.AsString());
      out->push_back('\0');
      break;
  }
}

// "<table> rows=<n> fnv64=<hash of the rows in slot order>".
std::string SlotOrderFingerprint(const Table& table) {
  std::string bytes;
  table.ForEachRowUncounted([&](const Row& row) {
    for (const Value& v : row) AppendValueBytes(v, &bytes);
    bytes.push_back('\n');
  });
  return StrCat(table.name(), " rows=", table.size(), " fnv64=",
                testing::Hex(testing::Fnv64(bytes)), "\n");
}

// Every view of `vm` and each of its cache tables, in definition order.
std::string ViewFingerprints(Database* db, ViewManager* vm) {
  std::string out;
  for (const std::string& view : vm->ViewNames()) {
    out += SlotOrderFingerprint(db->GetTable(view));
    for (const std::string& cache : vm->GetView(view).view().cache_tables) {
      out += SlotOrderFingerprint(db->GetTable(cache));
    }
  }
  return out;
}

// The definition-time contents, then a charged rematerialization: its
// accesses and the contents it rebuilt.
void ExpectMaterialization(Database* db, ViewManager* vm,
                           const std::string& name, testing::Golden* golden) {
  golden->Expect(StrCat(name, " define"), ViewFingerprints(db, vm), name);
  db->stats().Reset();
  vm->RecomputeAllViews();
  const std::string stats = StrCat("stats: ", db->stats().ToString(), "\n");
  golden->Expect(StrCat(name, " recompute"), stats + ViewFingerprints(db, vm),
                 name);
}

TEST(MaterializationGoldenTest, RunningExampleAndBsmaViews) {
  testing::Golden golden("materialization.golden");
  {
    Database db;
    testing::LoadRunningExample(&db);
    ViewManager vm(&db);
    vm.DefineView("v_spj", testing::RunningExampleSpjPlan(db));
    vm.DefineView("v_agg", testing::RunningExampleAggPlan(db));
    ExpectMaterialization(&db, &vm, "running_example", &golden);
  }
  BsmaConfig config;
  config.users = 300;
  for (const std::string& view : BsmaWorkload::ViewNames()) {
    Database db;
    BsmaWorkload workload(&db, config);
    ViewManager vm(&db);
    vm.DefineView(view, workload.ViewPlan(view));
    ExpectMaterialization(&db, &vm, StrCat("bsma_", view), &golden);
  }
}

}  // namespace
}  // namespace idivm
