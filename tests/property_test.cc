// Property tests: for random databases, random modification batches and a
// catalogue of view shapes covering every Q_SPJADU operator, the maintained
// view must equal recomputation — across all compiler option combinations
// (minimization on/off, caches on/off, specialized γ rules on/off,
// diff-only rule branches on/off). A materialized view must also hold its
// plan's evaluation row for row in slot order.

#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/view_manager.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

// Small value domains force joins, group collisions and condition flips.
constexpr int64_t kJoinDomain = 8;

void LoadRandomDatabase(Database* db, Rng* rng, int64_t rows_per_table) {
  Table& r = db->CreateTable("r",
                             Schema({{"rid", DataType::kInt64},
                                     {"rb", DataType::kInt64},
                                     {"rc", DataType::kDouble},
                                     {"rs", DataType::kString}}),
                             {"rid"});
  Relation r_data(r.schema());
  for (int64_t i = 0; i < rows_per_table; ++i) {
    r_data.Append({Value(i), Value(rng->UniformInt(0, kJoinDomain - 1)),
                   Value(static_cast<double>(rng->UniformInt(0, 50))),
                   Value(rng->Bernoulli(0.5) ? "x" : "y")});
  }
  r.BulkLoadUncounted(r_data);

  Table& s = db->CreateTable("s",
                             Schema({{"sid", DataType::kInt64},
                                     {"sd", DataType::kInt64},
                                     {"se", DataType::kDouble}}),
                             {"sid"});
  Relation s_data(s.schema());
  for (int64_t i = 0; i < kJoinDomain; ++i) {
    s_data.Append({Value(i), Value(rng->UniformInt(0, 3)),
                   Value(static_cast<double>(rng->UniformInt(0, 20)))});
  }
  s.BulkLoadUncounted(s_data);

  Table& t = db->CreateTable("t",
                             Schema({{"tid", DataType::kInt64},
                                     {"tb", DataType::kInt64},
                                     {"tw", DataType::kDouble}}),
                             {"tid"});
  Relation t_data(t.schema());
  for (int64_t i = 0; i < rows_per_table / 2; ++i) {
    t_data.Append({Value(i), Value(rng->UniformInt(0, kJoinDomain - 1)),
                   Value(static_cast<double>(rng->UniformInt(0, 30)))});
  }
  t.BulkLoadUncounted(t_data);
}

PlanPtr MakeViewPlan(const std::string& shape, const Database& db) {
  (void)db;
  const PlanPtr r = PlanNode::Scan("r");
  const PlanPtr s = PlanNode::Scan("s");
  const PlanPtr t = PlanNode::Scan("t");
  if (shape == "select") {
    return PlanNode::Select(r, Gt(Col("rc"), Lit(Value(20.0))));
  }
  if (shape == "project_fn") {
    return PlanNode::Project(
        r, {{Col("rid"), "rid"},
            {Add(Col("rc"), Mul(Col("rb"), Lit(Value(int64_t{2})))), "score"},
            {Col("rs"), "tag"}});
  }
  if (shape == "join") {
    return PlanNode::Join(r, s, Eq(Col("rb"), Col("sid")));
  }
  if (shape == "join_select_project") {
    PlanPtr joined = PlanNode::Join(r, s, Eq(Col("rb"), Col("sid")));
    joined = PlanNode::Select(joined, Gt(Col("se"), Lit(Value(5.0))));
    return PlanNode::Project(joined, {{Col("rid"), "rid"},
                                      {Col("sid"), "sid"},
                                      {Add(Col("rc"), Col("se")), "total"}});
  }
  if (shape == "theta_join") {
    // Non-equi condition plus an equi conjunct.
    return PlanNode::Join(
        r, s, And(Eq(Col("rb"), Col("sid")), Lt(Col("rc"), Col("se"))));
  }
  if (shape == "three_way_join") {
    PlanPtr joined = PlanNode::Join(r, s, Eq(Col("rb"), Col("sid")));
    return PlanNode::Join(std::move(joined), t, Eq(Col("sd"), Col("tb")));
  }
  if (shape == "agg_sum_count") {
    return PlanNode::Aggregate(r, {"rb"},
                               {{AggFunc::kSum, Col("rc"), "total"},
                                {AggFunc::kCount, nullptr, "n"}});
  }
  if (shape == "agg_avg") {
    return PlanNode::Aggregate(r, {"rs"},
                               {{AggFunc::kAvg, Col("rc"), "avg_c"},
                                {AggFunc::kSum, Col("rc"), "sum_c"}});
  }
  if (shape == "agg_min_max") {
    return PlanNode::Aggregate(r, {"rb"},
                               {{AggFunc::kMin, Col("rc"), "lo"},
                                {AggFunc::kMax, Col("rc"), "hi"}});
  }
  if (shape == "agg_over_join") {
    PlanPtr joined = PlanNode::Join(r, s, Eq(Col("rb"), Col("sid")));
    return PlanNode::Aggregate(std::move(joined), {"sd"},
                               {{AggFunc::kSum, Col("rc"), "total"},
                                {AggFunc::kCount, nullptr, "n"}});
  }
  if (shape == "select_above_agg") {
    PlanPtr agg = PlanNode::Aggregate(
        PlanNode::Join(r, s, Eq(Col("rb"), Col("sid"))), {"sd"},
        {{AggFunc::kSum, Col("rc"), "total"}});
    return PlanNode::Select(std::move(agg),
                            Gt(Col("total"), Lit(Value(30.0))));
  }
  if (shape == "union_all") {
    PlanPtr left = PlanNode::Project(
        r, {{Col("rid"), "k"}, {Col("rc"), "v"}});
    PlanPtr right = PlanNode::Project(
        t, {{Col("tid"), "k"}, {Col("tw"), "v"}});
    return PlanNode::UnionAll(std::move(left), std::move(right), "b");
  }
  if (shape == "semijoin") {
    // r rows with at least one heavy t partner (existential filter).
    return PlanNode::SemiJoin(
        r, t, And(Eq(Col("rb"), Col("tb")), Gt(Col("tw"), Lit(Value(15.0)))));
  }
  if (shape == "agg_above_semijoin") {
    PlanPtr semi = PlanNode::SemiJoin(
        r, t, And(Eq(Col("rb"), Col("tb")), Gt(Col("tw"), Lit(Value(15.0)))));
    return PlanNode::Aggregate(std::move(semi), {"rs"},
                               {{AggFunc::kSum, Col("rc"), "total"},
                                {AggFunc::kCount, nullptr, "n"}});
  }
  if (shape == "antisemijoin") {
    // r rows whose rb has no matching t row with tw above a threshold.
    return PlanNode::AntiSemiJoin(
        r, t, And(Eq(Col("rb"), Col("tb")), Gt(Col("tw"), Lit(Value(15.0)))));
  }
  if (shape == "agg_above_antisemijoin") {
    PlanPtr anti = PlanNode::AntiSemiJoin(
        r, t, And(Eq(Col("rb"), Col("tb")), Gt(Col("tw"), Lit(Value(15.0)))));
    return PlanNode::Aggregate(std::move(anti), {"rs"},
                               {{AggFunc::kSum, Col("rc"), "total"}});
  }
  if (shape == "nested_aggregates") {
    // γ over π over γ: per-rb totals, then distribution of totals.
    PlanPtr inner = PlanNode::Aggregate(
        r, {"rb"}, {{AggFunc::kSum, Col("rc"), "total"},
                    {AggFunc::kCount, nullptr, "n"}});
    PlanPtr bucketed = PlanNode::Project(
        inner, {{Col("rb"), "rb"},
                {Mod(Col("n"), Lit(Value(int64_t{3}))), "bucket"},
                {Col("total"), "total"}});
    return PlanNode::Aggregate(std::move(bucketed), {"bucket"},
                               {{AggFunc::kSum, Col("total"), "grand"},
                                {AggFunc::kCount, nullptr, "groups"}});
  }
  if (shape == "join_above_agg") {
    // γ output joined with a base table (operators above blocking rules).
    PlanPtr agg = PlanNode::Aggregate(
        r, {"rb"}, {{AggFunc::kSum, Col("rc"), "total"}});
    return PlanNode::Join(std::move(agg), s, Eq(Col("rb"), Col("sid")));
  }
  if (shape == "antisemijoin_over_join") {
    // (r ⋈ s) ⋉̄ t: negation above a join.
    PlanPtr joined = PlanNode::Join(r, s, Eq(Col("rb"), Col("sid")));
    return PlanNode::AntiSemiJoin(
        std::move(joined), t,
        And(Eq(Col("sd"), Col("tb")), Gt(Col("tw"), Lit(Value(20.0)))));
  }
  if (shape == "union_of_joins") {
    PlanPtr left = PlanNode::Project(
        PlanNode::Join(r, s, Eq(Col("rb"), Col("sid"))),
        {{Col("rid"), "id"}, {Add(Col("rc"), Col("se")), "val"}});
    PlanPtr right = PlanNode::Project(
        t, {{Col("tid"), "id"}, {Col("tw"), "val"}});
    return PlanNode::UnionAll(std::move(left), std::move(right), "b");
  }
  if (shape == "select_project_select") {
    // Stacked σ/π/σ: repeated retargeting of conditions through functions.
    PlanPtr inner = PlanNode::Select(r, Gt(Col("rc"), Lit(Value(5.0))));
    PlanPtr projected = PlanNode::Project(
        inner, {{Col("rid"), "rid"},
                {Sub(Col("rc"), Lit(Value(5.0))), "margin"},
                {Col("rs"), "rs"}});
    return PlanNode::Select(std::move(projected),
                            Lt(Col("margin"), Lit(Value(30.0))));
  }
  IDIVM_UNREACHABLE("unknown shape " + shape);
}

// One random batch of modifications across all three tables.
void ApplyRandomBatch(Database* db, ModificationLogger* logger, Rng* rng,
                      int64_t* next_rid, int64_t* next_tid) {
  (void)db;
  const int ops = static_cast<int>(rng->UniformInt(3, 10));
  for (int i = 0; i < ops; ++i) {
    const int choice = static_cast<int>(rng->UniformInt(0, 9));
    switch (choice) {
      case 0:  // insert into r
        (void)logger->Insert("r", {Value((*next_rid)++),
                             Value(rng->UniformInt(0, kJoinDomain - 1)),
                             Value(static_cast<double>(
                                 rng->UniformInt(0, 50))),
                             Value(rng->Bernoulli(0.5) ? "x" : "y")});
        break;
      case 1: {  // delete from r (may miss)
        (void)logger->Delete("r", {Value(rng->UniformInt(0, *next_rid - 1))});
        break;
      }
      case 2:
      case 3: {  // update r non-conditional value
        (void)logger->Update("r", {Value(rng->UniformInt(0, *next_rid - 1))},
                       {"rc"},
                       {Value(static_cast<double>(rng->UniformInt(0, 50)))});
        break;
      }
      case 4: {  // update r join attribute (condition flip)
        (void)logger->Update("r", {Value(rng->UniformInt(0, *next_rid - 1))},
                       {"rb"}, {Value(rng->UniformInt(0, kJoinDomain - 1))});
        break;
      }
      case 5: {  // update r grouping string
        (void)logger->Update("r", {Value(rng->UniformInt(0, *next_rid - 1))},
                       {"rs"}, {Value(rng->Bernoulli(0.5) ? "x" : "y")});
        break;
      }
      case 6: {  // update s
        (void)logger->Update("s", {Value(rng->UniformInt(0, kJoinDomain - 1))},
                       {"se"},
                       {Value(static_cast<double>(rng->UniformInt(0, 20)))});
        break;
      }
      case 7: {  // insert into t
        (void)logger->Insert("t", {Value((*next_tid)++),
                             Value(rng->UniformInt(0, kJoinDomain - 1)),
                             Value(static_cast<double>(
                                 rng->UniformInt(0, 30)))});
        break;
      }
      case 8: {  // delete from t
        (void)logger->Delete("t", {Value(rng->UniformInt(0, *next_tid - 1))});
        break;
      }
      case 9: {  // update t condition attribute
        (void)logger->Update("t", {Value(rng->UniformInt(0, *next_tid - 1))},
                       {"tw"},
                       {Value(static_cast<double>(rng->UniformInt(0, 30)))});
        break;
      }
    }
  }
}

struct PropertyCase {
  std::string shape;
  CompilerOptions options;
  uint64_t seed;
  std::string name;
};

std::vector<PropertyCase> MakeCases() {
  const std::vector<std::string> shapes = {
      "select",          "project_fn",      "join",
      "join_select_project", "theta_join",  "three_way_join",
      "agg_sum_count",   "agg_avg",         "agg_min_max",
      "agg_over_join",   "select_above_agg", "union_all",
      "antisemijoin",    "agg_above_antisemijoin",
      "nested_aggregates", "join_above_agg", "antisemijoin_over_join",
      "union_of_joins",  "select_project_select",
      "semijoin",        "agg_above_semijoin"};

  std::vector<std::pair<std::string, CompilerOptions>> option_sets;
  {
    CompilerOptions defaults;
    option_sets.emplace_back("default", defaults);
    CompilerOptions no_min = defaults;
    no_min.minimize = false;
    option_sets.emplace_back("nomin", no_min);
    CompilerOptions no_cache = defaults;
    no_cache.use_caches = false;
    option_sets.emplace_back("nocache", no_cache);
    CompilerOptions general_agg = defaults;
    general_agg.specialized_aggregate_rules = false;
    option_sets.emplace_back("generalagg", general_agg);
    CompilerOptions general_rules = defaults;
    general_rules.rules.prefer_diff_only_branches = false;
    option_sets.emplace_back("generalrules", general_rules);
    CompilerOptions assist = defaults;
    assist.view_assisted_inserts = true;
    option_sets.emplace_back("assist", assist);
  }

  std::vector<PropertyCase> cases;
  for (const std::string& shape : shapes) {
    for (const auto& [opt_name, options] : option_sets) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        PropertyCase c;
        c.shape = shape;
        c.options = options;
        c.seed = seed;
        c.name = shape + "_" + opt_name + "_s" + std::to_string(seed);
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

class IvmPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(IvmPropertyTest, MaintainedViewEqualsRecompute) {
  const PropertyCase& param = GetParam();
  Database db;
  Rng rng(param.seed * 7919 + 13);
  LoadRandomDatabase(&db, &rng, /*rows_per_table=*/40);
  int64_t next_rid = 40;
  int64_t next_tid = 20;

  const PlanPtr plan = MakeViewPlan(param.shape, db);
  Maintainer maintainer(&db, CompileView("v", plan, db, param.options));
  testing::ExpectViewMatchesRecompute(&db, maintainer.view().plan, "v",
                                      "initial materialization");

  ModificationLogger logger(&db);
  for (int round = 0; round < 6; ++round) {
    ApplyRandomBatch(&db, &logger, &rng, &next_rid, &next_tid);
    maintainer.Maintain(logger.NetChanges());
    logger.Clear();
    testing::ExpectViewMatchesRecompute(
        &db, maintainer.view().plan, "v",
        "round " + std::to_string(round) + " of " + param.name);
    if (::testing::Test::HasFailure()) break;
  }
}

// Asserts the `view` table holds exactly the rows of evaluating `plan`, row
// for row in slot order.
void ExpectViewIsEvaluationInSlotOrder(Database* db, const PlanPtr& plan,
                                       const std::string& view,
                                       const std::string& context) {
  const Relation expected = testing::Recompute(db, plan);
  const Relation actual = db->GetTable(view).SnapshotUncounted();
  EXPECT_EQ(actual.schema().ColumnNames(), expected.schema().ColumnNames())
      << context;
  EXPECT_TRUE(actual.rows() == expected.rows())
      << context << "\nexpected (evaluated):\n"
      << expected.ToString() << "\nactual (materialized):\n"
      << actual.ToString();
}

// A view is materialized over the caches its compilation fills, not by
// evaluating its plan again: the result must still be the plan's rows in the
// plan's own order, at definition and after a rematerialization of
// maintained state (RecomputeAllViews, the degradation ladder's recompute
// rung and recovery's fallback all compile the same way).
TEST_P(IvmPropertyTest, MaterializedViewIsPlanEvaluationInSlotOrder) {
  const PropertyCase& param = GetParam();
  Database db;
  Rng rng(param.seed * 7919 + 13);
  LoadRandomDatabase(&db, &rng, /*rows_per_table=*/40);
  int64_t next_rid = 40;
  int64_t next_tid = 20;

  ViewManager manager(&db);
  const PlanPtr plan =
      manager.DefineView("v", MakeViewPlan(param.shape, db), param.options)
          .view()
          .plan;
  ExpectViewIsEvaluationInSlotOrder(&db, plan, "v", "after DefineView");

  // Change the base tables behind the manager's back (leaving free slots
  // and reused slots in them), then rematerialize.
  ModificationLogger logger(&db);
  for (int round = 0; round < 2; ++round) {
    ApplyRandomBatch(&db, &logger, &rng, &next_rid, &next_tid);
  }
  manager.RecomputeAllViews();
  ExpectViewIsEvaluationInSlotOrder(&db, plan, "v",
                                    "after RecomputeAllViews");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IvmPropertyTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace idivm
