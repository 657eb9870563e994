// Executor parity against golden files: every observable surface of a
// maintenance epoch — table contents, AccessStats, MaintainResult phases,
// error messages, fault-site enumeration, rollback behaviour, ladder
// outcomes and the MVCC redo hand-off — is pinned in the committed files
// under tests/golden/exec_parity/, recorded from the per-step interpreter
// the compiled VM (src/exec) replaced. The VM is checked against them on
// every workload shape: the running example, the script_io fuzz corpus
// view, and all eight BSMA views. Any divergence is a compiler or VM bug,
// never an acceptable "optimization".
//
// A golden file holds one test case (format: tests/golden_file.h).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/str_util.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/script_io.h"
#include "src/core/view_manager.h"
#include "src/obs/metrics.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"
#include "src/workload/bsma.h"
#include "tests/golden_file.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

using testing::Fnv64;
using testing::Hex;

// A golden file of this suite, tests/golden/exec_parity/<name>.golden.
class Golden : public testing::Golden {
 public:
  explicit Golden(const std::string& name)
      : testing::Golden(StrCat("exec_parity/", name, ".golden")) {}
};

std::string JoinSnapshots(Database* db) {
  std::string out;
  for (const std::string& name : db->TableNames()) {
    out += "== " + name + " ==\n" +
           db->GetTable(name).SnapshotUncounted().Sorted().ToString();
  }
  return out;
}

// One "<table> rows=<n> fnv64=<hash of sorted contents>" line per table.
std::string TableFingerprints(Database* db) {
  std::string out;
  for (const std::string& name : db->TableNames()) {
    const Relation rel = db->GetTable(name).SnapshotUncounted().Sorted();
    out += StrCat(name, " rows=", rel.size(), " fnv64=",
                  Hex(Fnv64(rel.ToString())), "\n");
  }
  return out;
}

// The chaos-test change batch: touches all three running-example base
// tables so both the SPJ chain and the γ step run.
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
  return logger.NetChanges();
}

// Counter values parsed out of the global registry's text export; used to
// record per-epoch counter *deltas*. Labelled counter names contain
// spaces, so the value is the last space-separated token.
std::map<std::string, int64_t> CounterSnapshot() {
  std::map<std::string, int64_t> out;
  const std::string text = obs::MetricsRegistry::Global().ExportText();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("counter ", 0) != 0) continue;
    const size_t split = line.rfind(' ');
    out[line.substr(8, split - 8)] = std::stoll(line.substr(split + 1));
  }
  return out;
}

// Engine-specific metrics describe how the epoch was executed, not what it
// did, and are not recorded; every other counter (epochs, rollbacks, APPLY
// volume, undo batches, per-rule accesses) is.
bool IsEngineSpecificCounter(const std::string& name) {
  return name.find("program_cache") != std::string::npos ||
         name.find("fused_steps") != std::string::npos ||
         name.find("agg_kernel") != std::string::npos;
}

std::map<std::string, int64_t> CounterDelta(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after) {
  std::map<std::string, int64_t> delta;
  for (const auto& [name, value] : after) {
    if (IsEngineSpecificCounter(name)) continue;
    const auto it = before.find(name);
    const int64_t prior = it != before.end() ? it->second : 0;
    if (value != prior) delta[name] = value - prior;
  }
  return delta;
}

// Everything observable from one maintenance epoch of the running example.
struct EpochOutcome {
  std::string status;           // Status::ToString()
  std::string tables;           // all tables, sorted, concatenated
  std::string fingerprints;     // TableFingerprints()
  std::string stats;            // AccessStats::ToString()
  std::string result;           // MaintainResult::ToString() (empty on error)
  uint64_t sites_visited = 0;   // fault surface size
  int faults_fired = 0;
  std::map<std::string, int64_t> counters;  // engine-agnostic deltas

  std::string RenderCounters() const {
    std::string out;
    for (const auto& [name, delta] : counters) {
      out += StrCat("  ", name, " ", delta, "\n");
    }
    return out;
  }

  // The full block of a clean epoch: sorted contents of every table.
  std::string Render() const {
    return StrCat("status: ", status, "\nfaults_fired: ", faults_fired,
                  "\nstats: ", stats, "\nresult:\n", result,
                  "\ncounters:\n", RenderCounters(), "tables:\n", tables);
  }

  // The block of a failed epoch: tables as fingerprints.
  std::string RenderFailed() const {
    return StrCat("status: ", status, "\nfaults_fired: ", faults_fired,
                  "\nstats: ", stats, "\ncounters:\n", RenderCounters(),
                  "tables:\n", fingerprints);
  }
};

EpochOutcome RunEpoch(const std::string& shape,
                      std::optional<uint64_t> fire_at_site = std::nullopt,
                      int64_t max_epoch_ops = 0) {
  Database db;
  testing::LoadRunningExample(&db);
  const PlanPtr plan = shape == "agg" ? testing::RunningExampleAggPlan(db)
                                      : testing::RunningExampleSpjPlan(db);
  Maintainer m(&db, CompileView("v", plan, db));
  const auto net = MakeNetChanges(&db);

  FaultPlan fplan;
  if (fire_at_site.has_value()) fplan.fire_at_site = *fire_at_site;
  FaultInjector injector(fplan);

  MaintainOptions options;
  options.fault = &injector;
  options.max_epoch_ops = max_epoch_ops;

  const auto before = CounterSnapshot();
  EpochOutcome out;
  MaintainResult result;
  const Status status = m.TryMaintain(net, options, &result);
  out.status = status.ToString();
  out.tables = JoinSnapshots(&db);
  out.fingerprints = TableFingerprints(&db);
  out.stats = db.stats().ToString();
  if (status.ok()) out.result = result.ToString();
  out.sites_visited = injector.sites_visited();
  out.faults_fired = injector.faults_fired();
  out.counters = CounterDelta(before, CounterSnapshot());
  return out;
}

class ExecParityShapeTest : public ::testing::TestWithParam<const char*> {};

// A clean epoch matches the recorded outcome bit for bit. The name
// predates the removal of intra-view ∆-script threads; an epoch now has
// one thread count.
TEST_P(ExecParityShapeTest, CleanEpochMatchesAtEveryThreadCount) {
  const std::string shape = GetParam();
  Golden golden(StrCat("clean_", shape));
  const EpochOutcome outcome = RunEpoch(shape);
  EXPECT_EQ(outcome.status, OkStatus().ToString());
  golden.Expect("epoch", outcome.Render(), shape);
}

// The fault surface has the recorded size, and an injected fault at
// *every* site fails with the recorded error, fires exactly once, and
// rolls every table back to the recorded (pre-epoch) bytes.
TEST_P(ExecParityShapeTest, EveryFaultSiteDivergesNowhere) {
  const std::string shape = GetParam();
  Golden golden(StrCat("fault_sites_", shape));
  const EpochOutcome probe = RunEpoch(shape);
  ASSERT_GT(probe.sites_visited, 0u) << shape;
  golden.Expect("sites", StrCat(probe.sites_visited, "\n"), shape);
  for (uint64_t site = 0; site < probe.sites_visited; ++site) {
    const std::string context = StrCat(shape, " site ", site);
    const EpochOutcome outcome = RunEpoch(shape, site);
    EXPECT_NE(outcome.status, OkStatus().ToString()) << context;
    golden.Expect(StrCat("site ", site), outcome.RenderFailed(), context);
  }
}

// Batched undo capture: the per-APPLY flush boundary ("apply-flush:<t>")
// is a real fault site. A fault fired there lands *after* the APPLY's
// whole before-image batch reached the epoch undo, so the faulted run must
// still show the contract-v5 batch counters — and roll back from those
// batched entries to the recorded state (the byte-identity against
// pre-epoch state is pinned by chaos_maintain_test's all-site sweep).
TEST_P(ExecParityShapeTest, ApplyFlushFaultRollsBackBatchedUndo) {
  const std::string shape = GetParam();
  Golden golden(StrCat("apply_flush_", shape));
  const EpochOutcome probe = RunEpoch(shape);
  ASSERT_EQ(probe.status, OkStatus().ToString());
  // A clean epoch records whole-APPLY undo batches.
  ASSERT_GT(probe.counters.count("idivm_undo_batches_total"), 0u) << shape;
  ASSERT_GT(probe.counters.at("idivm_undo_batches_total"), 0) << shape;

  int flush_sites = 0;
  int flush_sites_with_batches = 0;
  for (uint64_t site = 0; site < probe.sites_visited; ++site) {
    const EpochOutcome outcome = RunEpoch(shape, site);
    if (outcome.status.find("apply-flush:") == std::string::npos) continue;
    ++flush_sites;
    golden.Expect(StrCat("site ", site), outcome.RenderFailed(),
                  StrCat(shape, " flush site ", site));
    // The batch flushed before the site fired: a faulted epoch whose
    // applies modified anything recorded batched before-images, then
    // rolled them back. (An APPLY of a no-op diff flushes an empty batch,
    // which is counterless by design — so assert over the whole sweep.)
    const auto batches = outcome.counters.find("idivm_undo_batches_total");
    if (batches != outcome.counters.end() && batches->second > 0) {
      ++flush_sites_with_batches;
    }
  }
  EXPECT_GT(flush_sites, 0) << shape;
  EXPECT_GT(flush_sites_with_batches, 0) << shape;
}

// The specialized γ kernel engages on the agg shape; the eligible
// running-example γ step must always hit, never fall back to the generic
// Contribute loop.
TEST(ExecParityTest, CompiledAggEngagesKernel) {
  const auto counter = [](const char* name) {
    return obs::MetricsRegistry::Global().CounterValue(name);
  };
  const int64_t hits0 = counter("idivm_agg_kernel_hits_total");
  const int64_t misses0 = counter("idivm_agg_kernel_misses_total");
  const EpochOutcome compiled = RunEpoch("agg");
  ASSERT_EQ(compiled.status, OkStatus().ToString());
  EXPECT_GT(counter("idivm_agg_kernel_hits_total"), hits0);
  EXPECT_EQ(counter("idivm_agg_kernel_misses_total"), misses0);
}

// The epoch op budget trips at the recorded point with the recorded
// message, and the rollback restores the recorded state.
TEST_P(ExecParityShapeTest, OpBudgetTripsIdentically) {
  const std::string shape = GetParam();
  Golden golden(StrCat("op_budget_", shape));
  for (const int64_t budget : {1, 3}) {
    const std::string context = StrCat(shape, " budget=", budget);
    const EpochOutcome outcome = RunEpoch(shape, std::nullopt, budget);
    EXPECT_NE(outcome.status, OkStatus().ToString()) << context;
    golden.Expect(StrCat("budget ", budget), outcome.RenderFailed(), context);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ExecParityShapeTest,
                         ::testing::Values("spj", "agg"));

// ---- BSMA workloads (all eight Fig. 9b views) ---------------------------

BsmaConfig SmallConfig() {
  BsmaConfig config;
  config.users = 60;
  config.friends_per_user = 4;
  config.num_cities = 5;
  config.num_topics = 8;
  return config;
}

// Tables as fingerprints, AccessStats and MaintainResult exactly.
std::string RenderBsma(Database* db, const MaintainResult& result) {
  return StrCat("stats: ", db->stats().ToString(), "\nresult:\n",
                result.ToString(), "\ntables:\n", TableFingerprints(db));
}

std::string RunBsma(const std::string& view) {
  Database db;
  BsmaWorkload workload(&db, SmallConfig());
  Maintainer m(&db, CompileView("v", workload.ViewPlan(view), db));
  ModificationLogger logger(&db);
  workload.ApplyUserUpdates(&logger, 40);

  MaintainResult result;
  const Status status = m.TryMaintain(logger.NetChanges(), {}, &result);
  EXPECT_TRUE(status.ok()) << view << ": " << status.ToString();
  testing::ExpectViewMatchesRecompute(&db, m.view().plan, "v",
                                      view + " engine parity run");
  return RenderBsma(&db, result);
}

class ExecParityBsmaTest : public ::testing::TestWithParam<std::string> {};

// The name predates the interpreter's removal; the golden files are its
// recorded outputs.
TEST_P(ExecParityBsmaTest, CompiledMatchesInterpreter) {
  const std::string view = GetParam();
  Golden golden(StrCat("bsma_", view));
  golden.Expect("epoch", RunBsma(view), view);
}

INSTANTIATE_TEST_SUITE_P(AllViews, ExecParityBsmaTest,
                         ::testing::ValuesIn(BsmaWorkload::ViewNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// ---- The script_io fuzz corpus view, loaded then executed ---------------

// Programs compiled from a *loaded* repository view (the fuzz corpus
// serialization round trip) behave identically too: loading must not
// produce a script that compiles differently from the one it serialized.
TEST(ExecParityTest, LoadedCorpusViewMatches) {
  Golden golden("loaded_corpus_qs1");
  Database db;
  BsmaWorkload workload(&db, SmallConfig());
  const CompiledView compiled = CompileView("v", workload.ViewPlan("qs1"), db);
  const std::string corpus = SerializeCompiledView(compiled);
  const LoadResult loaded = LoadCompiledView(corpus, db);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  Maintainer m(&db, loaded.view);
  ModificationLogger logger(&db);
  workload.ApplyUserUpdates(&logger, 40);
  MaintainResult result;
  const Status status = m.TryMaintain(logger.NetChanges(), {}, &result);
  EXPECT_TRUE(status.ok()) << status.ToString();
  golden.Expect("epoch", RenderBsma(&db, result), "qs1");
}

// ---- ViewManager: ladder, MVCC hand-off, program cache ------------------

// Fault storms through the full degradation ladder: the recorded incidents
// (view, rung, recovered), quarantine set and final tables — for every
// seed — then recovery.
TEST(ExecParityTest, LadderStormsMatch) {
  auto run = [](int seed) {
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
    plan.max_fires = (seed % 4);
    FaultInjector injector(plan);
    RefreshOptions options;
    options.fault = &injector;
    RefreshReport report;
    EXPECT_TRUE(vm.TryRefresh(options, &report).ok());

    std::string out;
    for (const ViewIncident& incident : report.incidents) {
      out += StrCat(incident.view, " rung ", incident.rung,
                    incident.recovered ? " recovered" : " lost", "\n");
    }
    for (const std::string& name : vm.QuarantinedViews()) {
      out += "quarantined " + name + "\n";
      vm.RepairView(name);
    }
    for (const std::string name : {"v_spj", "v_agg"}) {
      testing::ExpectViewMatchesRecompute(
          &db, vm.GetView(name).view().plan, name,
          "storm seed " + std::to_string(seed));
    }
    return out + "tables:\n" + TableFingerprints(&db);
  };
  Golden golden("ladder_storms");
  for (int seed = 0; seed < 12; ++seed) {
    golden.Expect(StrCat("seed ", seed), run(seed), StrCat("seed ", seed));
  }
}

// Refreshes in snapshot-read mode hand the recorded redo delta to MVCC:
// the published snapshot equals the live tables after the flip.
TEST(ExecParityTest, MvccRedoHandOffMatches) {
  Golden golden("mvcc_redo_hand_off");
  Database db;
  testing::LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.EnableSnapshotReads();
  vm.DefineView("v_spj", testing::RunningExampleSpjPlan(db));
  vm.DefineView("v_agg", testing::RunningExampleAggPlan(db));
  EXPECT_TRUE(vm.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  EXPECT_TRUE(vm.Insert("parts", {Value("P5"), Value(50.0)}));
  EXPECT_TRUE(vm.Insert("devices_parts", {Value("D1"), Value("P5")}));
  RefreshReport report;
  EXPECT_TRUE(vm.TryRefresh({}, &report).ok());
  const mvcc::Snapshot snapshot = vm.OpenSnapshot();
  std::string out;
  for (const std::string name : {"v_spj", "v_agg"}) {
    const Relation live = db.GetTable(name).SnapshotUncounted();
    const Relation versioned = snapshot.Read(name).Scan();
    EXPECT_TRUE(versioned.BagEquals(live)) << name;
    out += "== " + name + " ==\n" + versioned.Sorted().ToString();
  }
  golden.Expect("snapshot", out, "mvcc");
}

// The manager's program cache: second refresh hits, catalog changes
// invalidate.
TEST(ExecParityTest, ProgramCacheHitsAndInvalidation) {
  Database db;
  testing::LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v_spj", testing::RunningExampleSpjPlan(db));

  const auto counter = [](const char* name) {
    return obs::MetricsRegistry::Global().CounterValue(name);
  };
  const int64_t hits0 = counter("idivm_program_cache_hits_total");
  const int64_t misses0 = counter("idivm_program_cache_misses_total");

  RefreshOptions options;
  RefreshReport report;
  EXPECT_TRUE(vm.Update("parts", {Value("P1")}, {"price"}, {Value(12.0)}));
  ASSERT_TRUE(vm.TryRefresh(options, &report).ok());
  EXPECT_EQ(counter("idivm_program_cache_misses_total"), misses0 + 1);
  EXPECT_EQ(counter("idivm_program_cache_hits_total"), hits0);

  EXPECT_TRUE(vm.Update("parts", {Value("P1")}, {"price"}, {Value(13.0)}));
  ASSERT_TRUE(vm.TryRefresh(options, &report).ok());
  EXPECT_EQ(counter("idivm_program_cache_misses_total"), misses0 + 1);
  EXPECT_EQ(counter("idivm_program_cache_hits_total"), hits0 + 1);

  // DefineView invalidates: the next refresh recompiles both.
  vm.DefineView("v_agg", testing::RunningExampleAggPlan(db));
  EXPECT_TRUE(vm.Update("parts", {Value("P1")}, {"price"}, {Value(14.0)}));
  ASSERT_TRUE(vm.TryRefresh(options, &report).ok());
  EXPECT_EQ(counter("idivm_program_cache_misses_total"), misses0 + 3);
  EXPECT_EQ(counter("idivm_program_cache_hits_total"), hits0 + 1);
}

// Compilation fuses diff→apply chains on the running example's SPJ script
// and says so in the contract-v3 counter.
TEST(ExecParityTest, CompilationFusesSteps) {
  const int64_t fused0 = obs::MetricsRegistry::Global().CounterValue(
      "idivm_fused_steps_total");
  const EpochOutcome compiled = RunEpoch("spj");
  ASSERT_EQ(compiled.status, OkStatus().ToString());
  EXPECT_GT(obs::MetricsRegistry::Global().CounterValue(
                "idivm_fused_steps_total"),
            fused0);
}

}  // namespace
}  // namespace idivm
