// Concurrent-workload bench: snapshot-isolated reads during maintenance
// (src/mvcc) — the first traffic-shaped number in this repo.
//
// One writer thread runs refresh rounds over the BSMA views (update diffs
// on user, then Refresh) while N reader threads hammer OpenSnapshot(),
// scanning views and the tracked user base table. Reports reader p50/p99
// latency and refresh throughput side by side.
//
// It is also a torn-read smoke check, so CI can gate on it: after every
// refresh the writer fingerprints each table's *live* contents (an
// independent source — the stored tables, not the version store) keyed by
// the table's published version epoch; every reader records the
// (table, epoch, fingerprint) of everything it saw. After the run, any
// observation whose fingerprint differs from the live state at that epoch
// — i.e. a reader saw a partially applied ∆-script — fails the bench with
// a non-zero exit, as does a degenerate latency report (p99 of 0).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/core/view_manager.h"
#include "src/mvcc/snapshot.h"
#include "src/workload/bsma.h"

namespace {

using namespace idivm;

// Order-insensitive content fingerprint (sorted rows, pretty-printed —
// collisions are no concern at bench scale).
size_t Fingerprint(const Relation& relation) {
  return std::hash<std::string>()(relation.Sorted().ToString());
}

struct Observation {
  size_t table;  // index into the table-name list
  uint64_t epoch;
  size_t fingerprint;
};

struct ReaderResult {
  std::vector<double> micros;  // one OpenSnapshot + scan latency per op
  std::vector<Observation> seen;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace idivm::bench;

  int rounds = 12;
  int mods = 50;
  int users = 150;
  BenchFlags flags(/*with_readers=*/true);
  for (int i = 1; i < argc; ++i) {
    if (flags.Match(argc, argv, &i)) {
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      rounds = ParsePositiveIntFlag("--rounds",
                                    FlagValue("--rounds", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--mods") == 0) {
      mods = ParsePositiveIntFlag("--mods",
                                  FlagValue("--mods", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--users") == 0) {
      users = ParsePositiveIntFlag("--users",
                                   FlagValue("--users", argc, argv, &i));
    } else {
      FlagError(argv[i],
                "is not recognized (supported: --readers N, --rounds N, "
                "--mods N, --users N, --threads N, --trace-out PATH, "
                "--metrics-out PATH)");
    }
  }
  flags.Install();

  Database db;
  BsmaConfig config;
  config.users = users;
  BsmaWorkload workload(&db, config);
  ViewManager vm(&db);
  for (const std::string& view : BsmaWorkload::ViewNames()) {
    vm.DefineView(view, workload.ViewPlan(view));
  }
  vm.EnableSnapshotReads();
  // The update diffs hit user; tracking it makes snapshots cover base
  // reads too, at refresh granularity.
  vm.TrackTableForSnapshots("user");

  std::vector<std::string> tables = BsmaWorkload::ViewNames();
  tables.push_back("user");

  // expected[table][version epoch] = fingerprint of the live stored table
  // right after the publish that installed that version. Written only by
  // the writer thread between refreshes; read only after the readers join.
  std::map<std::string, std::map<uint64_t, size_t>> expected;
  auto record_expected = [&] {
    const mvcc::Snapshot snap = vm.OpenSnapshot();
    for (const std::string& table : tables) {
      expected[table][snap.Read(table).epoch()] =
          Fingerprint(db.GetTable(table).SnapshotUncounted());
    }
  };
  record_expected();  // the pre-refresh state (tracking-time versions)

  std::printf("\nConcurrent snapshot reads during maintenance (BSMA)\n");
  std::printf("users=%d, %zu tables (8 views + user), readers=%d, "
              "rounds=%d x %d update diffs, refresh threads=%d (of %d "
              "hardware)\n",
              users, tables.size(), flags.readers, rounds, mods,
              flags.threads, ThreadPool::HardwareThreads());

  std::atomic<bool> done{false};
  std::vector<ReaderResult> results(flags.readers);
  std::vector<std::thread> readers;
  readers.reserve(flags.readers);
  for (int r = 0; r < flags.readers; ++r) {
    readers.emplace_back([&, r] {
      ReaderResult& out = results[r];
      // Hold a few snapshots open so version GC runs against live readers,
      // not only at the end of the run.
      std::deque<mvcc::Snapshot> held;
      size_t iter = 0;
      // Keep hammering until the writer finishes, with a floor so every
      // reader overlaps some refresh even on a fast machine.
      while (!done.load(std::memory_order_acquire) || iter < 64) {
        const auto start = std::chrono::steady_clock::now();
        mvcc::Snapshot snap = vm.OpenSnapshot();
        const std::string& table = tables[(iter + r) % tables.size()];
        const mvcc::TableVersion& version = snap.Read(table);
        const size_t fingerprint = Fingerprint(version.Scan());
        const double micros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
        out.micros.push_back(micros);
        out.seen.push_back(Observation{(iter + r) % tables.size(),
                                       version.epoch(), fingerprint});
        held.push_back(std::move(snap));
        if (held.size() > 4) held.pop_front();
        ++iter;
      }
    });
  }

  const auto refresh_start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    workload.ApplyUserUpdates(&vm.logger(), mods);
    vm.Refresh(RefreshOptions{.threads = flags.threads});
    record_expected();
  }
  const double refresh_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    refresh_start)
          .count();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // ---- Deferred validation: every observation must match the live state
  //      at its epoch; anything else is a torn read. ----
  int64_t reads = 0;
  int64_t torn = 0;
  std::vector<double> micros;
  for (const ReaderResult& result : results) {
    micros.insert(micros.end(), result.micros.begin(), result.micros.end());
    for (const Observation& obs : result.seen) {
      ++reads;
      const auto& per_table = expected[tables[obs.table]];
      const auto it = per_table.find(obs.epoch);
      if (it == per_table.end() || it->second != obs.fingerprint) {
        if (torn < 5) {
          std::fprintf(stderr,
                       "TORN: table %s at epoch %llu %s\n",
                       tables[obs.table].c_str(),
                       static_cast<unsigned long long>(obs.epoch),
                       it == per_table.end() ? "was never published"
                                             : "differs from live state");
        }
        ++torn;
      }
    }
  }
  std::sort(micros.begin(), micros.end());
  const double p50 = micros.empty() ? 0 : micros[micros.size() / 2];
  const double p99 =
      micros.empty()
          ? 0
          : micros[std::min(micros.size() - 1, micros.size() * 99 / 100)];

  std::printf("\nreader ops     %lld (torn: %lld)\n",
              static_cast<long long>(reads), static_cast<long long>(torn));
  std::printf("reader latency p50 %.1f us, p99 %.1f us\n", p50, p99);
  std::printf("refresh        %d rounds in %.2f ms: %.1f rounds/s, "
              "%.0f diffs/s\n",
              rounds, refresh_seconds * 1000.0,
              rounds / refresh_seconds, rounds * mods / refresh_seconds);
  std::printf("epochs committed: %llu\n",
              static_cast<unsigned long long>(vm.snapshot_epoch()));
  flags.WriteOutputs();

  if (torn > 0) {
    std::fprintf(stderr, "\nFAIL: %lld torn snapshot reads\n",
                 static_cast<long long>(torn));
    return 1;
  }
  if (!(p50 > 0) || !(p99 > 0)) {
    std::fprintf(stderr, "\nFAIL: degenerate latency report (p50 %.3f, "
                         "p99 %.3f)\n",
                 p50, p99);
    return 1;
  }
  std::printf("\nAll %lld snapshot reads consistent with committed "
              "epochs.\n",
              static_cast<long long>(reads));
  return 0;
}
