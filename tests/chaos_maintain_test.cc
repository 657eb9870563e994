// Chaos tests for the fault-isolated maintenance epochs (src/robust): a
// fault injected at *any* site of a ∆-script must roll the epoch back to
// byte-identical pre-epoch state with no stats published, and the
// ViewManager's degradation ladder must absorb failures rung by rung,
// always leaving every serviceable view byte-equal to recompute.

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/view_manager.h"
#include "src/obs/metrics.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

// Random-rate refresh rounds per test; CI raises this to 200.
int ChaosSeeds() {
  const char* env = std::getenv("IDIVM_CHAOS_SEEDS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 25;
}

// Snapshot of every table in the database, for byte-level comparison.
std::map<std::string, std::string> SnapshotAll(Database* db) {
  std::map<std::string, std::string> out;
  for (const std::string& name : db->TableNames()) {
    out[name] = db->GetTable(name).SnapshotUncounted().Sorted().ToString();
  }
  return out;
}

void ExpectTablesEqual(Database* db,
                       const std::map<std::string, std::string>& expected,
                       const std::string& context) {
  const std::map<std::string, std::string> actual = SnapshotAll(db);
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (const auto& [name, contents] : expected) {
    EXPECT_EQ(actual.at(name), contents) << context << ": table " << name;
  }
}

// The running-example change batch used by every maintainer-level test:
// touches all three base tables so both the SPJ chain and the γ step run.
std::map<std::string, std::vector<Modification>> MakeNetChanges(
    Database* db) {
  ModificationLogger logger(db);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"},
                            {Value(11.0)}));
  EXPECT_TRUE(logger.Insert("parts", {Value("P5"), Value(50.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D1"), Value("P5")}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D2"), Value("P1")}));
  EXPECT_TRUE(logger.Update("devices", {Value("D3")}, {"category"},
                            {Value("phone")}));
  const auto net = logger.NetChanges();
  // The logger already applied the changes to the base tables; the net
  // modifications are what a deferred Refresh would hand each view.
  return net;
}

class ChaosMaintainTest : public ::testing::TestWithParam<const char*> {};

// Every fault site of the ∆-script, one at a time: the epoch must fail,
// roll every table back byte-identically, publish no stats, and a clean
// re-run must land exactly on the recompute result.
TEST_P(ChaosMaintainTest, EveryFaultSiteRollsBackExactly) {
  const std::string shape = GetParam();
  // Count the fault surface with an injector that never fires.
  uint64_t total_sites = 0;
  {
    Database db;
    testing::LoadRunningExample(&db);
    const PlanPtr plan = shape == "agg"
                             ? testing::RunningExampleAggPlan(db)
                             : testing::RunningExampleSpjPlan(db);
    Maintainer m(&db, CompileView("v", plan, db));
    const auto net = MakeNetChanges(&db);
    FaultInjector probe;
    MaintainResult result;
    MaintainOptions options;
    options.fault = &probe;
    ASSERT_TRUE(m.TryMaintain(net, options, &result).ok());
    total_sites = probe.sites_visited();
  }
  ASSERT_GT(total_sites, 0u);

  for (uint64_t site = 0; site < total_sites; ++site) {
    Database db;
    testing::LoadRunningExample(&db);
    const PlanPtr plan = shape == "agg"
                             ? testing::RunningExampleAggPlan(db)
                             : testing::RunningExampleSpjPlan(db);
    Maintainer m(&db, CompileView("v", plan, db));
    const auto net = MakeNetChanges(&db);

    const std::map<std::string, std::string> before = SnapshotAll(&db);
    const std::string stats_before = db.stats().ToString();

    FaultPlan fault;
    fault.fire_at_site = site;
    FaultInjector injector(fault);
    MaintainOptions options;
    options.fault = &injector;
    MaintainResult result;
    const Status status = m.TryMaintain(net, options, &result);
    const std::string context = shape + " site " + std::to_string(site);
    ASSERT_FALSE(status.ok()) << context;
    EXPECT_EQ(status.code(), StatusCode::kInjectedFault) << context;
    EXPECT_EQ(injector.faults_fired(), 1) << context;

    // Rollback: every table byte-identical, stats exactly pre-epoch.
    ExpectTablesEqual(&db, before, context);
    EXPECT_EQ(db.stats().ToString(), stats_before) << context;

    // The failure is transient: a clean run converges on recompute.
    m.Maintain(net);
    testing::ExpectViewMatchesRecompute(&db, plan, "v", context);
  }
}

// Batched undo capture (one before-image region per APPLY instead of one
// per tuple): the flush boundary "apply-flush:<table>" is on the fault
// surface, and a fault fired there — after the whole batch reached the
// epoch undo — must still roll every table back byte-identically from the
// batched entries.
TEST_P(ChaosMaintainTest, ApplyFlushFaultRollsBackBatchedCapture) {
  const std::string shape = GetParam();
  uint64_t total_sites = 0;
  {
    Database db;
    testing::LoadRunningExample(&db);
    const PlanPtr plan = shape == "agg"
                             ? testing::RunningExampleAggPlan(db)
                             : testing::RunningExampleSpjPlan(db);
    Maintainer m(&db, CompileView("v", plan, db));
    const auto net = MakeNetChanges(&db);
    FaultInjector probe;
    MaintainResult result;
    MaintainOptions options;
    options.fault = &probe;
    const int64_t batches_before =
        obs::MetricsRegistry::Global().CounterValue(
            "idivm_undo_batches_total");
    ASSERT_TRUE(m.TryMaintain(net, options, &result).ok());
    // The clean epoch captured whole-APPLY undo batches (contract v5).
    EXPECT_GT(obs::MetricsRegistry::Global().CounterValue(
                  "idivm_undo_batches_total"),
              batches_before);
    total_sites = probe.sites_visited();
  }
  ASSERT_GT(total_sites, 0u);

  int flush_sites = 0;
  for (uint64_t site = 0; site < total_sites; ++site) {
    Database db;
    testing::LoadRunningExample(&db);
    const PlanPtr plan = shape == "agg"
                             ? testing::RunningExampleAggPlan(db)
                             : testing::RunningExampleSpjPlan(db);
    Maintainer m(&db, CompileView("v", plan, db));
    const auto net = MakeNetChanges(&db);
    const std::map<std::string, std::string> before = SnapshotAll(&db);

    FaultPlan fault;
    fault.fire_at_site = site;
    FaultInjector injector(fault);
    MaintainOptions options;
    options.fault = &injector;
    MaintainResult result;
    const Status status = m.TryMaintain(net, options, &result);
    ASSERT_FALSE(status.ok()) << shape << " site " << site;
    if (status.ToString().find("apply-flush:") == std::string::npos) {
      continue;
    }
    ++flush_sites;
    const std::string context =
        shape + " flush site " + std::to_string(site);
    ExpectTablesEqual(&db, before, context);
    m.Maintain(net);
    testing::ExpectViewMatchesRecompute(&db, plan, "v", context);
  }
  // Every shape has at least one APPLY, hence at least one flush site.
  EXPECT_GT(flush_sites, 0) << shape;
}

TEST_P(ChaosMaintainTest, EpochOpBudgetRollsBack) {
  Database db;
  testing::LoadRunningExample(&db);
  const std::string shape = GetParam();
  const PlanPtr plan = shape == "agg" ? testing::RunningExampleAggPlan(db)
                                      : testing::RunningExampleSpjPlan(db);
  Maintainer m(&db, CompileView("v", plan, db));
  const auto net = MakeNetChanges(&db);
  const std::map<std::string, std::string> before = SnapshotAll(&db);

  MaintainOptions options;
  options.max_epoch_ops = 1;  // the batch mutates far more than one row
  MaintainResult result;
  const Status status = m.TryMaintain(net, options, &result);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  ExpectTablesEqual(&db, before, "op budget");

  // An adequate budget succeeds.
  options.max_epoch_ops = 1 << 20;
  ASSERT_TRUE(m.TryMaintain(net, options, &result).ok());
  testing::ExpectViewMatchesRecompute(&db, plan, "v", "after budget raise");
}

INSTANTIATE_TEST_SUITE_P(Shapes, ChaosMaintainTest,
                         ::testing::Values("spj", "agg"));

// ---- ViewManager degradation ladder -----------------------------------

// Records quarantine journal calls without a real WAL.
class RecordingJournal : public ModificationJournal {
 public:
  uint64_t JournalModification(const std::string&,
                               const Modification&) override {
    return ++lsn_;
  }
  uint64_t JournalCommit() override { return ++lsn_; }
  uint64_t JournalQuarantine(const std::string& view,
                             const std::string& reason) override {
    quarantines.emplace_back(view, reason);
    return ++lsn_;
  }
  std::vector<std::pair<std::string, std::string>> quarantines;

 private:
  uint64_t lsn_ = 0;
};

class LadderTest : public ::testing::Test {
 protected:
  LadderTest() {
    testing::LoadRunningExample(&db_);
    vm_ = std::make_unique<ViewManager>(&db_);
    vm_->DefineView("v_spj", testing::RunningExampleSpjPlan(db_));
    vm_->DefineView("v_agg", testing::RunningExampleAggPlan(db_));
  }

  void ApplyChanges() {
    EXPECT_TRUE(vm_->Update("parts", {Value("P1")}, {"price"},
                            {Value(11.0)}));
    EXPECT_TRUE(vm_->Insert("parts", {Value("P6"), Value(60.0)}));
    EXPECT_TRUE(vm_->Insert("devices_parts", {Value("D2"), Value("P6")}));
    EXPECT_TRUE(vm_->Delete("devices_parts", {Value("D1"), Value("P2")}));
  }

  void ExpectViewsMatchRecompute(const std::string& context) {
    testing::ExpectViewMatchesRecompute(
        &db_, vm_->GetView("v_spj").view().plan, "v_spj", context);
    testing::ExpectViewMatchesRecompute(
        &db_, vm_->GetView("v_agg").view().plan, "v_agg", context);
  }

  Database db_;
  std::unique_ptr<ViewManager> vm_;
};

// With fire_at_site = 0 and a sequential refresh, max_fires selects the
// deepest rung reached: 1 → the retry succeeds, 2 → the retry fails too
// and recompute lands it, 3 → recompute fails as well and the view is
// quarantined.
TEST_F(LadderTest, RungOneRetryRecovers) {
  ApplyChanges();
  FaultPlan plan;
  plan.fire_at_site = 0;
  plan.max_fires = 1;
  FaultInjector injector(plan);
  RefreshOptions options;
  options.fault = &injector;
  RefreshReport report;
  ASSERT_TRUE(vm_->TryRefresh(options, &report).ok());

  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].view, "v_spj");  // first in definition order
  EXPECT_EQ(report.incidents[0].rung, 1);
  EXPECT_TRUE(report.incidents[0].recovered);
  EXPECT_EQ(report.results.size(), 2u);
  EXPECT_EQ(db_.stats().epoch_rollbacks, 1);
  EXPECT_EQ(db_.stats().degraded_retries, 1);
  EXPECT_EQ(db_.stats().recompute_fallbacks, 0);
  EXPECT_EQ(db_.stats().quarantines, 0);
  ExpectViewsMatchRecompute("rung 1");
}

TEST_F(LadderTest, RungTwoRecomputeRecovers) {
  ApplyChanges();
  FaultPlan plan;
  plan.fire_at_site = 0;
  plan.max_fires = 2;
  FaultInjector injector(plan);
  RefreshOptions options;
  options.fault = &injector;
  RefreshReport report;
  ASSERT_TRUE(vm_->TryRefresh(options, &report).ok());

  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].rung, 2);
  EXPECT_TRUE(report.incidents[0].recovered);
  EXPECT_EQ(db_.stats().epoch_rollbacks, 2);  // first attempt + failed retry
  EXPECT_EQ(db_.stats().degraded_retries, 1);
  EXPECT_EQ(db_.stats().recompute_fallbacks, 1);
  EXPECT_EQ(db_.stats().quarantines, 0);
  ExpectViewsMatchRecompute("rung 2");
}

TEST_F(LadderTest, RungThreeQuarantinesAndJournals) {
  RecordingJournal journal;
  vm_->set_journal(&journal);
  ApplyChanges();
  FaultPlan plan;
  plan.fire_at_site = 0;
  plan.max_fires = 1000;  // every attempt, retry and recompute fails
  FaultInjector injector(plan);
  RefreshOptions options;
  options.fault = &injector;
  RefreshReport report;
  ASSERT_TRUE(vm_->TryRefresh(options, &report).ok());

  ASSERT_EQ(report.incidents.size(), 2u);
  for (const ViewIncident& incident : report.incidents) {
    EXPECT_EQ(incident.rung, 3) << incident.view;
    EXPECT_FALSE(incident.recovered) << incident.view;
  }
  EXPECT_TRUE(vm_->IsQuarantined("v_spj"));
  EXPECT_TRUE(vm_->IsQuarantined("v_agg"));
  EXPECT_EQ(vm_->QuarantinedViews(),
            (std::vector<std::string>{"v_agg", "v_spj"}));
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(db_.stats().quarantines, 2);
  EXPECT_EQ(db_.stats().degraded_retries, 2);
  EXPECT_EQ(db_.stats().recompute_fallbacks, 2);
  ASSERT_EQ(journal.quarantines.size(), 2u);

  // Quarantined views are skipped by the next refresh and come back via
  // RepairView.
  EXPECT_TRUE(vm_->Update("parts", {Value("P2")}, {"price"},
                          {Value(21.0)}));
  RefreshReport next;
  ASSERT_TRUE(vm_->TryRefresh({}, &next).ok());
  EXPECT_TRUE(next.results.empty());
  vm_->RepairView("v_spj");
  vm_->RepairView("v_agg");
  EXPECT_FALSE(vm_->IsQuarantined("v_spj"));
  EXPECT_FALSE(vm_->IsQuarantined("v_agg"));
  ExpectViewsMatchRecompute("after repair");
}

TEST_F(LadderTest, FailFastSurfacesTheError) {
  ApplyChanges();
  const std::map<std::string, std::string> view_before = {
      {"v_spj",
       db_.GetTable("v_spj").SnapshotUncounted().Sorted().ToString()},
      {"v_agg",
       db_.GetTable("v_agg").SnapshotUncounted().Sorted().ToString()}};
  FaultPlan plan;
  plan.fire_at_site = 0;
  plan.max_fires = 1000;  // keep failing: no rung may absorb it
  FaultInjector injector(plan);
  RefreshOptions options;
  options.degrade = DegradePolicy::kFailFast;
  options.fault = &injector;
  RefreshReport report;
  const Status status = vm_->TryRefresh(options, &report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInjectedFault);
  // Both views rolled back to their pre-refresh (now stale) contents.
  for (const auto& [name, contents] : view_before) {
    EXPECT_EQ(db_.GetTable(name).SnapshotUncounted().Sorted().ToString(),
              contents)
        << name;
  }
  EXPECT_EQ(db_.stats().degraded_retries, 0);
  EXPECT_EQ(db_.stats().recompute_fallbacks, 0);

  // The log was consumed, so the stale views are NOT healed by another
  // refresh — that's the documented fail-fast contract. RepairView is the
  // recovery path.
  RefreshReport next;
  ASSERT_TRUE(vm_->TryRefresh({}, &next).ok());
  vm_->RepairView("v_spj");
  vm_->RepairView("v_agg");
  ExpectViewsMatchRecompute("after transient fail-fast");
}

TEST_F(LadderTest, ParseAndNameRoundTrip) {
  for (const DegradePolicy policy :
       {DegradePolicy::kFailFast, DegradePolicy::kRetry,
        DegradePolicy::kRecompute, DegradePolicy::kQuarantine}) {
    const auto parsed = ParseDegradePolicy(DegradePolicyName(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseDegradePolicy("never").has_value());
}

// Random fault storms: refresh under a probabilistic plan must always end
// with every serviceable view byte-equal to recompute, and quarantined
// views repairable — for every seed.
TEST_F(LadderTest, RandomRateStormsAlwaysConverge) {
  const int seeds = ChaosSeeds();
  for (int seed = 0; seed < seeds; ++seed) {
    Database db;
    testing::LoadRunningExample(&db);
    ViewManager vm(&db);
    vm.DefineView("v_spj", testing::RunningExampleSpjPlan(db));
    vm.DefineView("v_agg", testing::RunningExampleAggPlan(db));
    EXPECT_TRUE(vm.Update("parts", {Value("P1")}, {"price"},
                          {Value(10.0 + seed)}));
    EXPECT_TRUE(vm.Insert("parts", {Value("P7"), Value(70.0)}));
    EXPECT_TRUE(vm.Insert("devices_parts", {Value("D1"), Value("P7")}));

    FaultPlan plan;
    plan.rate = 0.3;
    plan.seed = static_cast<uint64_t>(seed);
    plan.max_fires = (seed % 4);  // 0 faults .. deep ladder walks
    FaultInjector injector(plan);
    RefreshOptions options;
    options.fault = &injector;
    RefreshReport report;
    const std::string context = "seed " + std::to_string(seed);
    ASSERT_TRUE(vm.TryRefresh(options, &report).ok()) << context;

    for (const std::string name : {"v_spj", "v_agg"}) {
      if (vm.IsQuarantined(name)) {
        vm.RepairView(name);
      }
      testing::ExpectViewMatchesRecompute(
          &db, vm.GetView(name).view().plan, name, context);
    }
    // A follow-up fault-free refresh must succeed.
    EXPECT_TRUE(vm.Update("parts", {Value("P7")}, {"price"},
                          {Value(71.0)}));
    RefreshReport clean;
    ASSERT_TRUE(vm.TryRefresh({}, &clean).ok()) << context;
    EXPECT_EQ(clean.results.size(), 2u) << context;
  }
}

}  // namespace
}  // namespace idivm
