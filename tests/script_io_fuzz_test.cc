// Fuzzing the ∆-script repository parser (src/core/script_io): a loaded
// script is external input, so every truncation and byte-level mutation of
// a valid serialization must come back as a parse error — never a crash,
// abort, or exception — and a script that parses but cannot run must be
// rejected at load rather than abort at its first epoch. The corpus is a
// real serialized BSMA view (the richest script shape: joins, aggregates,
// caches, diff registries).

#include <string>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/script_io.h"
#include "src/core/view_manager.h"
#include "src/workload/bsma.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

class ScriptIoFuzzTest : public ::testing::Test {
 protected:
  ScriptIoFuzzTest() {
    BsmaConfig config;
    config.users = 60;
    config.friends_per_user = 4;
    config.num_cities = 5;
    config.num_topics = 8;
    workload_ = std::make_unique<BsmaWorkload>(&db_, config);
    // qs1 is an aggregate over a join: exercises plans, γ steps, caches
    // and the full diff registry in one serialization.
    view_ = std::make_unique<CompiledView>(
        CompileView("v", workload_->ViewPlan("qs1"), db_));
    corpus_ = SerializeCompiledView(*view_);
  }

  Database db_;
  std::unique_ptr<BsmaWorkload> workload_;
  std::unique_ptr<CompiledView> view_;
  std::string corpus_;
};

TEST_F(ScriptIoFuzzTest, CorpusRoundTrips) {
  const LoadResult result = LoadCompiledView(corpus_, db_);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(SerializeCompiledView(result.view), corpus_);
}

// Seeded random byte mutations: flip 1-8 bytes to arbitrary values. The
// result either parses (a benign mutation, e.g. inside a string literal or
// a number that stays in range) or fails with an error — but never aborts.
TEST_F(ScriptIoFuzzTest, RandomByteMutationsNeverCrash) {
  Rng rng(20260805);
  const int rounds = 4000;
  int parsed = 0;
  for (int round = 0; round < rounds; ++round) {
    std::string mutated = corpus_;
    const int flips = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    const LoadResult result = LoadCompiledView(mutated, db_);
    if (result.ok) {
      ++parsed;
    } else {
      EXPECT_FALSE(result.error.empty()) << "round " << round;
    }
  }
  // Sanity: the fuzz is actually reaching the parser's error paths.
  EXPECT_LT(parsed, rounds);
}

// Structured mutations: splice random digit strings over numeric tokens to
// hit the enum-tag and out-of-range integer validation specifically.
TEST_F(ScriptIoFuzzTest, NumericSplicesAreRejectedNotFatal) {
  Rng rng(42);
  const char* splices[] = {"9",      "99",       "-1",
                           "999999", "12345678", "99999999999999999999"};
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = corpus_;
    // Find a random digit position and overwrite with a splice.
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    while (pos < mutated.size() &&
           (mutated[pos] < '0' || mutated[pos] > '9')) {
      ++pos;
    }
    if (pos >= mutated.size()) continue;
    const char* splice =
        splices[rng.UniformInt(0, std::size(splices) - 1)];
    mutated = mutated.substr(0, pos) + splice + mutated.substr(pos + 1);
    const LoadResult result = LoadCompiledView(mutated, db_);
    if (!result.ok) {
      EXPECT_FALSE(result.error.empty()) << "round " << round;
    }
  }
}

// The exhaustive truncation sweeps run as shards: shard i checks the prefix
// lengths congruent to i modulo kTruncationShards, so the shards together
// check every prefix exactly once.
constexpr int kTruncationShards = 8;

class ScriptIoTruncationTest : public ScriptIoFuzzTest,
                               public ::testing::WithParamInterface<int> {};

// Every prefix of the corpus is a truncated dump: load must either fail
// with a message or — when only trailing whitespace was cut — still
// round-trip to the full corpus. Never a crash.
TEST_P(ScriptIoTruncationTest, EveryTruncationIsAParseError) {
  for (size_t len = GetParam(); len < corpus_.size();
       len += kTruncationShards) {
    const LoadResult result = LoadCompiledView(corpus_.substr(0, len), db_);
    if (result.ok) {
      EXPECT_EQ(SerializeCompiledView(result.view), corpus_)
          << "truncation at " << len << " parsed to a different view";
    } else {
      EXPECT_FALSE(result.error.empty()) << "truncation at " << len;
    }
  }
}

// The repository wrapper (header + per-view sections) is hardened too.
TEST_P(ScriptIoTruncationTest, RepositoryTruncationsAreErrors) {
  Database db;
  testing::LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v_spj", testing::RunningExampleSpjPlan(db));
  vm.DefineView("v_agg", testing::RunningExampleAggPlan(db));
  const std::string repo = vm.SerializeRepository();

  Database replica;
  testing::LoadRunningExample(&replica);
  ViewManager target(&replica);
  // Loading needs the view/cache tables to exist; mirror them.
  for (const std::string& name : db.TableNames()) {
    if (!replica.HasTable(name)) {
      const Table& table = db.GetTable(name);
      replica.CreateTable(name, table.schema(), table.key_columns());
    }
  }
  for (size_t len = GetParam(); len < repo.size(); len += kTruncationShards) {
    ViewManager fresh(&replica);
    const std::string error = fresh.LoadRepository(repo.substr(0, len));
    if (error.empty()) {
      // Only trailer bytes were cut: both views must have loaded whole.
      EXPECT_EQ(fresh.ViewNames().size(), 2u)
          << "repository truncation at " << len << " half-loaded";
    }
  }
  ViewManager full(&replica);
  EXPECT_EQ(full.LoadRepository(repo), "");
}

INSTANTIATE_TEST_SUITE_P(Shards, ScriptIoTruncationTest,
                         ::testing::Range(0, kTruncationShards));

// A script whose steps cannot resolve parses, but executing it would abort
// the process at its first epoch: load must reject it instead. Mutates one
// string literal in the steps of the running-example SPJ view's
// serialization; when the mutated view loads anyway, a price update on
// parts is maintained through it (which must then not abort).
void ExpectUnresolvableStepRejected(const std::string& from,
                                    const std::string& to,
                                    const std::string& error_part) {
  Database db;
  testing::LoadRunningExample(&db);
  const CompiledView view =
      CompileView("v", testing::RunningExampleSpjPlan(db), db);
  std::string text = SerializeCompiledView(view);
  const size_t pos = text.find(from, text.find("(steps"));
  ASSERT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);

  const LoadResult loaded = LoadCompiledView(text, db);
  if (loaded.ok) {
    Maintainer m(&db, loaded.view);
    ModificationLogger logger(&db);
    ASSERT_TRUE(
        logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
    MaintainResult result;
    (void)m.TryMaintain(logger.NetChanges(), MaintainOptions(), &result);
  }
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find(error_part), std::string::npos) << loaded.error;
}

TEST_F(ScriptIoFuzzTest, UnboundRelationRefIsRejectedAtLoad) {
  ExpectUnresolvableStepRejected("(ref \"in_u_parts_2\"",
                                 "(ref \"in_u_parts_9\"",
                                 "unbound relation ref 'in_u_parts_9'");
}

TEST_F(ScriptIoFuzzTest, ScanOfUnknownTableIsRejectedAtLoad) {
  ExpectUnresolvableStepRejected("(scan \"devices\")", "(scan \"devicez\")",
                                 "scan of unknown table 'devicez'");
}

TEST_F(ScriptIoFuzzTest, UnknownColumnIsRejectedAtLoad) {
  ExpectUnresolvableStepRejected("(col \"category\") (lit",
                                 "(col \"categorx\") (lit",
                                 "unknown column 'categorx'");
}

TEST_F(ScriptIoFuzzTest, DuplicateProjectionNameIsRejectedAtLoad) {
  ExpectUnresolvableStepRejected(
      "(item (col \"pid\") \"__rhs_pid\")) (ref",
      "(item (col \"pid\") \"did\")) (ref",
      "projection yields duplicate column 'did'");
}

// The same unknown-column mutation through a whole repository dump: LoadRepository
// reports it and registers no view, so no epoch ever runs the step.
TEST_F(ScriptIoFuzzTest, UnknownColumnIsRejectedByLoadRepository) {
  Database db;
  testing::LoadRunningExample(&db);
  std::string repo;
  {
    ViewManager manager(&db);
    manager.DefineView("v", testing::RunningExampleSpjPlan(db));
    repo = manager.SerializeRepository();
  }
  const std::string from = "(col \"category\") (lit";
  const size_t pos = repo.find(from, repo.find("(steps"));
  ASSERT_NE(pos, std::string::npos);
  repo.replace(pos, from.size(), "(col \"categorx\") (lit");

  ViewManager fresh(&db);
  const std::string error = fresh.LoadRepository(repo);
  EXPECT_NE(error.find("selection references unknown column 'categorx'"),
            std::string::npos)
      << error;
  EXPECT_FALSE(fresh.HasView("v"));
}

}  // namespace
}  // namespace idivm
