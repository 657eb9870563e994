// Crash-recovery fault sweep (the durability acceptance test): builds a
// 1000-modification BSMA WAL behind a snapshot, then injects a crash at
// EVERY record boundary — plus torn-tail and bit-flip variants — and checks
// that recovery lands exactly on the last valid COMMIT with every recovered
// view identical to a from-scratch recompute over the recovered base tables.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/view_manager.h"
#include "src/persist/fault.h"
#include "src/persist/recovery.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal.h"
#include "src/workload/bsma.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

using persist::FaultFile;
using persist::ReadWal;
using persist::Recover;
using persist::RecoverResult;
using persist::WalOptions;
using persist::WalReadResult;
using persist::WalRecord;
using persist::WalRecordType;
using persist::WalSyncPolicy;
using persist::WalWriter;
using persist::WriteSnapshot;

constexpr uint64_t kWalHeaderBytes = 8;  // magic + version
constexpr int kModifications = 1000;
constexpr int kCommitEvery = 50;

// The golden pre-crash run, built once for the whole suite: a scaled-down
// BSMA instance with two views (a join chain and an aggregate), snapshotted
// at LSN 0, then 1000 user-update modifications journaled in 20
// COMMIT-delimited refresh batches.
struct Golden {
  std::string snapshot_path;
  std::string wal_path;
  std::vector<std::string> views;
  WalReadResult wal;  // pristine read: records + end offsets
};

const Golden& GoldenRun();

void RemoveGoldenFiles() {
  std::remove(GoldenRun().snapshot_path.c_str());
  std::remove(GoldenRun().wal_path.c_str());
}

const Golden& GoldenRun() {
  static const Golden* golden = [] {
    auto* g = new Golden;
    // Per-process files: ctest runs this suite's tests, shards included, as
    // concurrent processes, and each builds its own golden run.
    const std::string stem =
        StrCat(::testing::TempDir(), "idivm_fault_golden_", getpid());
    g->snapshot_path = stem + ".snap";
    g->wal_path = stem + ".wal";
    g->views = {"q7", "qs1"};

    Database db;
    BsmaConfig config;
    config.users = 50;
    config.friends_per_user = 5;
    BsmaWorkload workload(&db, config);
    ViewManager manager(&db);
    for (const std::string& view : g->views) {
      manager.DefineView(view, workload.ViewPlan(view));
    }
    auto wal = WalWriter::Open(g->wal_path,
                               WalOptions{.sync = WalSyncPolicy::kNone});
    IDIVM_CHECK(wal != nullptr);
    IDIVM_CHECK(WriteSnapshot(db, manager.SerializeRepository(), 0,
                              g->snapshot_path)
                    .empty());
    manager.set_journal(wal.get());
    for (int done = 0; done < kModifications; done += kCommitEvery) {
      workload.ApplyUserUpdates(&manager.logger(), kCommitEvery);
      manager.Refresh();
    }
    wal->Flush();
    wal.reset();

    g->wal = ReadWal(g->wal_path);
    IDIVM_CHECK(g->wal.ok, g->wal.error);
    IDIVM_CHECK(!g->wal.truncated);
    IDIVM_CHECK(static_cast<int>(g->wal.records.size()) ==
                kModifications + kModifications / kCommitEvery);
    std::atexit(RemoveGoldenFiles);
    return g;
  }();
  return *golden;
}

// What recovery must reconstruct for a WAL cut to `prefix_bytes`: the LSN of
// the last COMMIT wholly inside the prefix, and how many valid modification
// records follow it (they must be discarded).
struct ExpectedAtCut {
  uint64_t commit_lsn = 0;
  uint64_t discarded = 0;
};

ExpectedAtCut ExpectationFor(const Golden& g, uint64_t prefix_bytes) {
  ExpectedAtCut expected;
  for (size_t i = 0; i < g.wal.records.size(); ++i) {
    if (g.wal.record_end_offsets[i] > prefix_bytes) break;
    if (g.wal.records[i].type == WalRecordType::kCommit) {
      expected.commit_lsn = g.wal.records[i].lsn;
      expected.discarded = 0;
    } else {
      ++expected.discarded;
    }
  }
  return expected;
}

// Recovers from the golden snapshot plus `wal_path`, then asserts the
// recovered state is exactly the last valid COMMIT: LSN bookkeeping matches
// `expected`, and every view equals recomputing its plan from the recovered
// base tables.
void ExpectRecoversTo(const std::string& wal_path,
                      const ExpectedAtCut& expected,
                      const std::string& context) {
  const Golden& g = GoldenRun();
  Database db;
  ViewManager manager(&db);
  const RecoverResult result =
      Recover(&db, &manager, g.snapshot_path, wal_path);
  ASSERT_TRUE(result.ok) << context << ": " << result.error;
  EXPECT_EQ(result.last_applied_lsn,
            expected.commit_lsn == 0 ? result.snapshot_lsn
                                     : expected.commit_lsn)
      << context;
  EXPECT_EQ(result.records_discarded, expected.discarded) << context;
  for (const std::string& view : g.views) {
    ASSERT_TRUE(manager.HasView(view)) << context;
    testing::ExpectViewMatchesRecompute(
        &db, manager.GetView(view).view().plan, view, context);
  }
}

// The exhaustive crash sweep runs as shards: shard i checks the record
// boundaries congruent to i modulo kBoundaryShards, so the shards together
// check every boundary exactly once.
constexpr int kBoundaryShards = 8;

class RecoveryFaultBoundaryTest : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryFaultBoundaryTest, CrashAtEveryRecordBoundary) {
  const Golden& g = GoldenRun();
  FaultFile fault(g.wal_path,
                  ::testing::TempDir() +
                      StrCat("idivm_fault_boundary_", GetParam(), ".wal"));
  // Boundary 0 is "crashed before any record made it out" (header only);
  // boundary i > 0 is "crashed right after record i-1 hit the disk".
  for (size_t i = GetParam(); i <= g.wal.records.size();
       i += kBoundaryShards) {
    const uint64_t cut =
        (i == 0) ? kWalHeaderBytes : g.wal.record_end_offsets[i - 1];
    SCOPED_TRACE(StrCat("boundary ", i, " (", cut, " bytes)"));
    ExpectRecoversTo(fault.TruncatedAt(cut), ExpectationFor(g, cut),
                     StrCat("crash after record ", i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, RecoveryFaultBoundaryTest,
                         ::testing::Range(0, kBoundaryShards));

TEST(RecoveryFaultTest, TornRecordInTail) {
  const Golden& g = GoldenRun();
  FaultFile fault(g.wal_path, ::testing::TempDir() + "idivm_fault_torn.wal");
  // Cut mid-record — a few bytes past a sample of boundaries — so the final
  // record is torn. Recovery must truncate it away and land on the last
  // COMMIT before the tear.
  for (size_t i = 0; i < g.wal.records.size(); i += 111) {
    const uint64_t boundary = g.wal.record_end_offsets[i];
    if (boundary + 3 >= g.wal.valid_bytes) break;
    for (const uint64_t delta : {uint64_t{1}, uint64_t{3}, uint64_t{9}}) {
      const uint64_t cut = boundary + delta;
      SCOPED_TRACE(StrCat("tear at ", cut));
      const std::string& path = fault.TruncatedAt(cut);
      const WalReadResult read = ReadWal(path);
      ASSERT_TRUE(read.ok) << read.error;
      EXPECT_TRUE(read.truncated);
      EXPECT_EQ(read.valid_bytes, boundary);
      ExpectRecoversTo(path, ExpectationFor(g, boundary),
                       StrCat("tear at byte ", cut));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(RecoveryFaultTest, BitFlipInBody) {
  const Golden& g = GoldenRun();
  FaultFile fault(g.wal_path, ::testing::TempDir() + "idivm_fault_flip.wal");
  // Flip one bit at several depths of the file. Everything from the damaged
  // record on is untrusted; recovery must stop at the last COMMIT before it.
  for (const double depth : {0.1, 0.33, 0.5, 0.75, 0.97}) {
    const auto offset =
        static_cast<uint64_t>(depth * static_cast<double>(g.wal.valid_bytes));
    ASSERT_GT(offset, kWalHeaderBytes);
    // The record containing `offset` is the first whose end lies past it.
    uint64_t record_start = kWalHeaderBytes;
    for (size_t i = 0; i < g.wal.records.size(); ++i) {
      if (g.wal.record_end_offsets[i] > offset) break;
      record_start = g.wal.record_end_offsets[i];
    }
    SCOPED_TRACE(StrCat("bit flip at ", offset));
    const std::string& path = fault.WithBitFlip(offset, 6);
    const WalReadResult read = ReadWal(path);
    ASSERT_TRUE(read.ok) << read.error;
    EXPECT_TRUE(read.truncated);
    EXPECT_LE(read.valid_bytes, record_start);
    ExpectRecoversTo(path, ExpectationFor(g, read.valid_bytes),
                     StrCat("bit flip at byte ", offset));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RecoveryFaultTest, CorruptSnapshotFailsGracefully) {
  const Golden& g = GoldenRun();
  FaultFile fault(g.snapshot_path,
                  ::testing::TempDir() + "idivm_fault_snap.snap");
  Database db;
  ViewManager manager(&db);
  const RecoverResult result =
      Recover(&db, &manager,
              fault.WithBitFlip(fault.source_size() / 2, 2), g.wal_path);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(RecoveryFaultTest, PristineWalRecoversFullState) {
  const Golden& g = GoldenRun();
  const ExpectedAtCut expected = ExpectationFor(g, g.wal.valid_bytes);
  EXPECT_EQ(expected.discarded, 0u);
  ExpectRecoversTo(g.wal_path, expected, "pristine");
}

}  // namespace
}  // namespace idivm
