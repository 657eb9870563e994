// Sustained-ingest streaming bench: drives the MaintenanceService with a
// paced stream of BSMA user updates and reports what the paper's batch
// benches cannot — staleness percentiles (submit -> visible in the views),
// shed/coalesce rates under a bounded queue, WAL disk bounds under
// rotation + truncation, and survival of a mid-run crash/recover cycle.
//
// Exit status is the smoke contract CI relies on: non-zero when the final
// views diverge from recompute ("torn views"), when the live WAL exceeds
// its configured bound, or when recovery after the mid-run crash fails.
//
//   bench_streaming --duration-s 60 --rate 2000 --policy coalesce \
//     --inject-fault-rate 0.02 --crash-at-s 20 --metrics-out metrics.txt

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/persist/recovery.h"
#include "src/serve/service.h"
#include "src/workload/bsma.h"

namespace idivm::bench {
namespace {

using serve::BackpressurePolicy;
using serve::MaintenanceService;
using serve::ServiceOptions;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t index = std::min(
      samples.size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples.size())));
  return samples[index];
}

// Copies every view's contents, recomputes all views from base tables and
// compares. Returns false (printing the offender) on divergence.
bool ViewsMatchRecompute(Database* db, ViewManager* vm) {
  std::vector<std::pair<std::string, Relation>> before;
  for (const std::string& view : vm->ViewNames()) {
    before.emplace_back(view, db->GetTable(view).SnapshotUncounted());
  }
  vm->RecomputeAllViews();
  for (const auto& [view, contents] : before) {
    if (!contents.BagEquals(db->GetTable(view).SnapshotUncounted())) {
      std::fprintf(stderr, "error: view %s diverges from recompute\n",
                   view.c_str());
      return false;
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  BenchFlags flags(/*with_readers=*/false, /*with_streaming=*/true);
  int users = 300;
  int crash_at_s = 0;
  int queue_capacity = 1024;
  int refresh_interval_ms = 20;
  int refresh_pending = 256;
  int deadline_ms = 0;
  double fault_rate = 0.0;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  std::string views_csv = "q7,qs1";
  std::string prom_out;

  for (int i = 1; i < argc; ++i) {
    std::string text;
    if (flags.Match(argc, argv, &i)) continue;
    if (std::strcmp(argv[i], "--users") == 0) {
      users = ParsePositiveIntFlag("--users",
                                   FlagValue("--users", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--crash-at-s") == 0) {
      crash_at_s = ParsePositiveIntFlag(
          "--crash-at-s", FlagValue("--crash-at-s", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--queue-capacity") == 0) {
      queue_capacity = ParsePositiveIntFlag(
          "--queue-capacity",
          FlagValue("--queue-capacity", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--refresh-interval-ms") == 0) {
      refresh_interval_ms = ParsePositiveIntFlag(
          "--refresh-interval-ms",
          FlagValue("--refresh-interval-ms", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--refresh-pending") == 0) {
      refresh_pending = ParsePositiveIntFlag(
          "--refresh-pending",
          FlagValue("--refresh-pending", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      deadline_ms = ParsePositiveIntFlag(
          "--deadline-ms", FlagValue("--deadline-ms", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--inject-fault-rate") == 0) {
      fault_rate = ParseRateFlag(
          "--inject-fault-rate",
          FlagValue("--inject-fault-rate", argc, argv, &i));
    } else if (MatchStringFlag("--policy", argc, argv, &i, &text)) {
      const auto parsed = serve::ParseBackpressurePolicy(text);
      if (!parsed.has_value()) {
        FlagError("--policy", "expects one of block, shed, coalesce");
      }
      policy = *parsed;
    } else if (MatchStringFlag("--views", argc, argv, &i, &text)) {
      views_csv = text;
    } else if (MatchStringFlag("--prom-out", argc, argv, &i, &text)) {
      prom_out = text;
    } else {
      FlagError(argv[i],
                "is not recognized (supported: --duration-s N, --rate N, "
                "--users N, --crash-at-s N, --queue-capacity N, "
                "--refresh-interval-ms N, --refresh-pending N, "
                "--deadline-ms N, --inject-fault-rate R, "
                "--policy {block,shed,coalesce}, --views CSV, "
                "--prom-out PATH, plus the shared bench flags)");
    }
  }
  flags.Install();

  ScratchDir scratch("streaming");

  // ---- Engine under service ----
  BsmaConfig config;
  config.users = users;
  auto db = std::make_unique<Database>();
  BsmaWorkload workload(db.get(), config);
  auto vm = std::make_unique<ViewManager>(db.get());
  std::vector<std::string> views;
  for (size_t start = 0; start < views_csv.size();) {
    size_t comma = views_csv.find(',', start);
    if (comma == std::string::npos) comma = views_csv.size();
    views.push_back(views_csv.substr(start, comma - start));
    start = comma + 1;
  }
  for (const std::string& view : views) {
    vm->DefineView(view, workload.ViewPlan(view));
  }

  FaultInjector fault;
  if (fault_rate > 0) {
    FaultPlan plan;
    plan.rate = fault_rate;
    plan.seed = 17;
    plan.max_fires = 1 << 30;
    fault.Reset(plan);
  }

  ServiceOptions sopts;
  sopts.queue.capacity = static_cast<size_t>(queue_capacity);
  sopts.queue.policy = policy;
  sopts.refresh_pending_threshold = static_cast<size_t>(refresh_pending);
  sopts.refresh_interval_seconds = refresh_interval_ms / 1000.0;
  sopts.threads = flags.threads;
  sopts.deadline_seconds = deadline_ms / 1000.0;
  sopts.fault = fault_rate > 0 ? &fault : nullptr;
  sopts.data_dir = scratch.path() + "/data";
  sopts.wal.rotate_bytes = 256 << 10;
  sopts.snapshot_every_records = 20000;
  sopts.snapshot_every_bytes = 2u << 20;
  sopts.export_path = prom_out;

  auto service = std::make_unique<MaintenanceService>(vm.get(), db.get(),
                                                      sopts);
  std::string error;
  if (!service->Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  // ---- Paced producer ----
  Rng rng(101);
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  uint64_t submitted = 0;
  uint64_t shed = 0;
  bool crashed = false;
  std::vector<double> staleness;

  while (elapsed() < flags.duration_s) {
    // Mid-run kill-and-resume cycle.
    if (crash_at_s > 0 && !crashed && elapsed() >= crash_at_s) {
      crashed = true;
      staleness = service->StalenessSamples();
      service->Crash();
      service.reset();
      // Tear the WAL tail like an interrupted write would.
      persist::SegmentedReadResult segs =
          persist::ReadSegmentedWal(sopts.data_dir + "/wal");
      if (!segs.segments.empty()) {
        const persist::WalSegmentInfo& last = segs.segments.back();
        if (last.bytes > 16) persist::TruncateFile(last.path, last.bytes - 7);
      }
      auto db2 = std::make_unique<Database>();
      auto vm2 = std::make_unique<ViewManager>(db2.get());
      const persist::RecoverResult recovered = persist::Recover(
          db2.get(), vm2.get(), sopts.data_dir + "/snapshot.bin",
          sopts.data_dir + "/wal");
      if (!recovered.ok) {
        std::fprintf(stderr, "error: mid-run recovery failed: %s\n",
                     recovered.error.c_str());
        return 1;
      }
      if (!ViewsMatchRecompute(db2.get(), vm2.get())) return 1;
      std::printf(
          "crash/recover: replayed %zu batches to LSN %" PRIu64
          ", views match recompute\n",
          recovered.batches_applied, recovered.last_applied_lsn);
      db = std::move(db2);
      vm = std::move(vm2);
      service = std::make_unique<MaintenanceService>(vm.get(), db.get(),
                                                     sopts);
      if (!service->Start(&error)) {
        std::fprintf(stderr, "error: restart failed: %s\n", error.c_str());
        return 1;
      }
    }

    const uint64_t due =
        static_cast<uint64_t>(elapsed() * static_cast<double>(flags.rate));
    if (submitted + shed >= due) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    const int64_t uid = rng.UniformInt(0, users - 1);
    const bool accepted = service->SubmitUpdate(
        "user", {Value(uid)}, {"tweetsnum", "favornum"},
        {Value(rng.UniformInt(0, 2000)), Value(rng.UniformInt(0, 5000))});
    if (accepted) {
      ++submitted;
    } else {
      ++shed;
    }
  }

  if (!service->WaitForQuiesce(30.0)) {
    std::fprintf(stderr, "error: service did not quiesce\n");
    return 1;
  }
  const serve::ServiceStats stats = service->stats();
  const serve::ServiceHealth health = service->health();
  {
    const std::vector<double> tail = service->StalenessSamples();
    staleness.insert(staleness.end(), tail.begin(), tail.end());
  }
  const uint64_t coalesced = service->queue().coalesced();
  service->Stop();
  service.reset();

  // ---- Final checks: torn views and WAL bound ----
  if (!ViewsMatchRecompute(db.get(), vm.get())) return 1;
  uint64_t wal_bytes = 0;
  for (const persist::WalSegmentInfo& seg :
       persist::ReadSegmentedWal(sopts.data_dir + "/wal").segments) {
    wal_bytes += seg.bytes;
  }
  const uint64_t wal_bound =
      sopts.snapshot_every_bytes + 2 * sopts.wal.rotate_bytes;
  if (wal_bytes > wal_bound) {
    std::fprintf(stderr,
                 "error: WAL unbounded: %" PRIu64 " bytes on disk > bound "
                 "%" PRIu64 "\n",
                 wal_bytes, wal_bound);
    return 1;
  }

  // ---- Report ----
  std::printf("\nStreaming ingest (BSMA user updates)\n");
  std::printf("====================================\n");
  std::printf("views: %s  policy: %s  rate: %d/s  duration: %ds\n",
              views_csv.c_str(), serve::BackpressurePolicyName(policy),
              flags.rate, flags.duration_s);
  std::printf("submitted %" PRIu64 "  shed %" PRIu64 "  coalesced %" PRIu64
              "  applied %" PRIu64 "  rejected %" PRIu64 "\n",
              submitted, shed, coalesced, stats.ops_applied,
              stats.ops_rejected);
  std::printf("refreshes %" PRIu64 "  incidents %" PRIu64 "  repairs %" PRIu64
              "  deadline-trips %" PRIu64 "  refresh-failures %" PRIu64 "\n",
              stats.refreshes, stats.incidents, stats.repairs,
              stats.deadline_trips, stats.refresh_failures);
  std::printf("staleness p50 %.2f ms  p99 %.2f ms  (%zu samples)\n",
              Percentile(staleness, 0.50) * 1000.0,
              Percentile(staleness, 0.99) * 1000.0, staleness.size());
  std::printf("snapshots %" PRIu64 "  snapshot-failures %" PRIu64
              "  wal-bytes %" PRIu64 " (bound %" PRIu64 ")\n",
              stats.snapshots, stats.snapshot_failures, wal_bytes,
              wal_bound);
  std::printf("health: %s\n", serve::ServiceHealthName(health));
  std::printf("result: views match recompute, WAL bounded\n");

  flags.WriteOutputs();
  return 0;
}

}  // namespace
}  // namespace idivm::bench

int main(int argc, char** argv) { return idivm::bench::Run(argc, argv); }
