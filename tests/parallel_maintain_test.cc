// Parallel refresh (RefreshOptions::threads > 1: one view per worker) must
// be observationally identical to a sequential refresh: same view contents
// and byte-identical AccessStats — per view and phase, and database-wide —
// for every thread count. These tests assert that across the eight BSMA
// views, the running-example views under mixed changes, and repeated
// refresh rounds (stats must never go backwards or double-count). Each
// view's ∆-script itself always runs sequentially; what runs concurrently
// is whole views, whose charges go through per-view StatsArenas published
// in definition order.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/view_manager.h"
#include "src/workload/bsma.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

void ExpectStatsEq(const AccessStats& expected, const AccessStats& actual,
                   const std::string& label) {
  EXPECT_EQ(expected.index_lookups, actual.index_lookups) << label;
  EXPECT_EQ(expected.tuple_reads, actual.tuple_reads) << label;
  EXPECT_EQ(expected.tuple_writes, actual.tuple_writes) << label;
}

// Everything observable about one refresh (except wall time).
struct RefreshObservation {
  std::map<std::string, std::string> view_contents;
  std::map<std::string, MaintainResult> results;
  AccessStats database_wide;
};

RefreshObservation Observe(Database* db, ViewManager* manager,
                           std::map<std::string, MaintainResult> results) {
  RefreshObservation obs;
  for (const std::string& view : manager->ViewNames()) {
    obs.view_contents[view] =
        db->GetTable(view).SnapshotUncounted().Sorted().ToString();
  }
  obs.results = std::move(results);
  obs.database_wide = db->stats();
  return obs;
}

void ExpectObservationEq(const RefreshObservation& expected,
                         const RefreshObservation& actual,
                         const std::string& label) {
  EXPECT_EQ(expected.view_contents, actual.view_contents) << label;
  ASSERT_EQ(expected.results.size(), actual.results.size()) << label;
  for (const auto& [view, want] : expected.results) {
    const std::string view_label = label + " " + view;
    ASSERT_EQ(actual.results.count(view), 1u) << view_label;
    const MaintainResult& got = actual.results.at(view);
    ExpectStatsEq(want.diff_computation.accesses,
                  got.diff_computation.accesses,
                  view_label + " [diff computation]");
    ExpectStatsEq(want.cache_update.accesses, got.cache_update.accesses,
                  view_label + " [cache update]");
    ExpectStatsEq(want.view_update.accesses, got.view_update.accesses,
                  view_label + " [view update]");
    EXPECT_EQ(want.diff_tuples_applied, got.diff_tuples_applied)
        << view_label;
    EXPECT_EQ(want.rows_touched, got.rows_touched) << view_label;
    EXPECT_EQ(want.dummy_tuples, got.dummy_tuples) << view_label;
  }
  ExpectStatsEq(expected.database_wide, actual.database_wide,
                label + " [database-wide]");
}

// All eight BSMA views in one manager, refreshed at every thread count:
// identical contents and stats. The config seed is fixed, so each fresh
// workload replays the exact same data and update diffs.
TEST(ParallelMaintainTest, BsmaViewsDeterministicAcrossThreadCounts) {
  BsmaConfig config;
  config.users = 400;  // small scale: 8 views × 4 thread counts
  const int64_t kUpdates = 40;
  RefreshObservation baseline;
  for (const int threads : {1, 2, 4, 8}) {
    const std::string label = "threads=" + std::to_string(threads);
    Database db;
    BsmaWorkload workload(&db, config);
    ViewManager manager(&db);
    for (const std::string& view : BsmaWorkload::ViewNames()) {
      manager.DefineView(view, workload.ViewPlan(view));
    }
    workload.ApplyUserUpdates(&manager.logger(), kUpdates);
    db.stats().Reset();
    const RefreshObservation obs =
        Observe(&db, &manager,
                manager.Refresh(RefreshOptions{.threads = threads}));
    for (const std::string& view : BsmaWorkload::ViewNames()) {
      testing::ExpectViewMatchesRecompute(&db, workload.ViewPlan(view), view,
                                          label + " " + view);
    }
    if (threads == 1) {
      baseline = obs;
      continue;
    }
    ExpectObservationEq(baseline, obs, label);
  }
}

// The running-example aggregate view (a γ step) next to the SPJ view,
// under a mixed insert/delete/update batch.
TEST(ParallelMaintainTest, AggregateViewDeterministicUnderMixedChanges) {
  auto run = [](int threads) -> RefreshObservation {
    const std::string label = "threads=" + std::to_string(threads);
    Database db;
    testing::LoadRunningExample(&db);
    const PlanPtr agg = testing::RunningExampleAggPlan(db);
    const PlanPtr spj = testing::RunningExampleSpjPlan(db);
    ViewManager manager(&db);
    manager.DefineView("vagg", agg);
    manager.DefineView("vspj", spj);
    ModificationLogger& logger = manager.logger();
    EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(35.0)}));
    EXPECT_TRUE(logger.Insert("devices", {Value("D4"), Value("phone")}));
    EXPECT_TRUE(logger.Insert("devices_parts", {Value("D4"), Value("P4")}));
    EXPECT_TRUE(logger.Insert("devices_parts", {Value("D2"), Value("P2")}));
    EXPECT_TRUE(
        logger.Update("parts", {Value("P1")}, {"price"}, {Value(12.0)}));
    EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P2")}));
    db.stats().Reset();
    RefreshObservation obs = Observe(
        &db, &manager, manager.Refresh(RefreshOptions{.threads = threads}));
    testing::ExpectViewMatchesRecompute(&db, agg, "vagg", label);
    testing::ExpectViewMatchesRecompute(&db, spj, "vspj", label);
    return obs;
  };
  const RefreshObservation baseline = run(1);
  for (const int threads : {2, 4, 8}) {
    ExpectObservationEq(baseline, run(threads),
                        "threads=" + std::to_string(threads));
  }
}

// Regression for the shared-counter race the per-view arenas exist to
// prevent: across repeated refresh rounds the database-wide counters must
// be monotonically non-decreasing (a racy read-modify-write can lose
// updates, making totals go "backwards" relative to the work done) and
// must equal a sequential twin's counters after every round (no
// double-counting when arenas are published).
TEST(ParallelMaintainTest, StatsNeverRegressOrDoubleCountAcrossRounds) {
  BsmaConfig config;
  config.users = 300;

  Database par_db;
  BsmaWorkload par_workload(&par_db, config);
  ViewManager par_manager(&par_db);

  Database seq_db;
  BsmaWorkload seq_workload(&seq_db, config);
  ViewManager seq_manager(&seq_db);

  for (const std::string& view : BsmaWorkload::ViewNames()) {
    par_manager.DefineView(view, par_workload.ViewPlan(view));
    seq_manager.DefineView(view, seq_workload.ViewPlan(view));
  }

  par_db.stats().Reset();
  seq_db.stats().Reset();
  AccessStats previous;  // zero
  for (int round = 0; round < 5; ++round) {
    const std::string label = "round " + std::to_string(round);
    par_workload.ApplyUserUpdates(&par_manager.logger(), 20);
    par_manager.Refresh(RefreshOptions{.threads = 4});
    seq_workload.ApplyUserUpdates(&seq_manager.logger(), 20);
    seq_manager.Refresh(RefreshOptions{.threads = 1});
    const AccessStats& current = par_db.stats();
    EXPECT_GE(current.index_lookups, previous.index_lookups) << label;
    EXPECT_GE(current.tuple_reads, previous.tuple_reads) << label;
    EXPECT_GE(current.tuple_writes, previous.tuple_writes) << label;
    EXPECT_GT(current.TotalAccesses(), previous.TotalAccesses()) << label;
    ExpectStatsEq(seq_db.stats(), current, label + " vs sequential twin");
    previous = current;
  }
}

}  // namespace
}  // namespace idivm
