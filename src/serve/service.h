// The maintenance service: the piece that turns the library engine into a
// long-running process (DESIGN.md "Service model & housekeeping"). One
// pump thread owns the engine and loops
//
//   drain ingest queue -> apply modifications (journaled to a segmented
//   WAL) -> refresh when stale -> pace repairs -> adaptive housekeeping
//
// while producers feed the bounded IngestQueue from any thread and an
// optional exporter thread publishes Prometheus text at an interval. The
// moving parts:
//
//   refresh scheduler   TryRefresh when pending modifications pass a
//                       threshold or the oldest pending op passes the
//                       interval; each refresh runs under a cooperative
//                       watchdog Deadline that trips the degradation
//                       ladder instead of hanging the pump.
//   repair pacing       views the ladder left unserviced (quarantined or
//                       rolled back) are rematerialized one per attempt,
//                       paced by robust::Backoff — transient faults get
//                       exponentially rarer retries instead of a hot loop.
//   housekeeping        when the WAL grows past a record- or byte-delta
//                       since the last snapshot, the pump snapshots the
//                       database, journals a CHECKPOINT, rotates the
//                       active segment and truncates segments the snapshot
//                       covers — bounding disk to roughly one rotation
//                       plus the delta. Snapshot failures retry on their
//                       own Backoff and never touch existing segments.
//   health              healthy / degraded (incidents pending repair) /
//                       quarantined (a view is out of service), exported
//                       as the idivm_service_health gauge.

#ifndef IDIVM_SERVE_SERVICE_H_
#define IDIVM_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/view_manager.h"
#include "src/persist/wal_set.h"
#include "src/robust/backoff.h"
#include "src/robust/deadline.h"
#include "src/serve/ingest_queue.h"

namespace idivm::serve {

enum class ServiceHealth { kHealthy = 0, kDegraded = 1, kQuarantined = 2 };

const char* ServiceHealthName(ServiceHealth health);

// Everything a MaintenanceService is configured with: ingest
// backpressure, refresh scheduling/execution, durability & housekeeping
// thresholds, and the Prometheus exporter. Field groups mirror DESIGN.md
// "Service model & housekeeping".
struct ServiceOptions {
  IngestQueueOptions queue;

  // ---- Refresh scheduling ----
  // Refresh once this many modifications are pending...
  size_t refresh_pending_threshold = 64;
  // ...or once any modification has been pending this long.
  double refresh_interval_seconds = 0.050;
  // Pump wakeup granularity when idle.
  double poll_seconds = 0.005;

  // ---- Refresh execution (RefreshOptions) ----
  int threads = 1;
  DegradePolicy degrade = DegradePolicy::kQuarantine;
  // Watchdog: a refresh older than this trips the ladder via
  // robust::Deadline (0 disables).
  double deadline_seconds = 0;
  // Fault-injection hook threaded into every refresh; nullptr disables.
  FaultInjector* fault = nullptr;
  // Pacing for repairing unserviced views (refresh retries).
  robust::BackoffOptions repair_backoff;

  // ---- Durability & housekeeping ----
  // Directory for the WAL segment directory (<data_dir>/wal) and the
  // snapshot (<data_dir>/snapshot.bin). Empty: run without durability —
  // no journal, no snapshots.
  std::string data_dir;
  persist::SegmentedWalOptions wal;
  // Snapshot once this many WAL records accumulated since the last one
  // (0 disables the record trigger)...
  int64_t snapshot_every_records = 4096;
  // ...or once live WAL bytes (all segments) pass this (0 disables).
  uint64_t snapshot_every_bytes = 4u << 20;
  robust::BackoffOptions snapshot_backoff;

  // ---- Metrics exporter ----
  // Prometheus text file rewritten every export_interval_seconds; empty
  // path or 0 interval disables the exporter thread.
  std::string export_path;
  double export_interval_seconds = 1.0;
};

// Monotonic lifetime totals, snapshotted by MaintenanceService::stats()
// under the service lock (a coherent point-in-time view, unlike the
// always-on global metrics they mirror).
struct ServiceStats {
  uint64_t ops_applied = 0;
  uint64_t ops_rejected = 0;  // duplicate key / absent row
  uint64_t refreshes = 0;
  uint64_t refresh_failures = 0;  // TryRefresh returned non-OK
  uint64_t incidents = 0;         // views that tripped the ladder
  uint64_t repairs = 0;           // RepairView calls (refresh retries)
  uint64_t deadline_trips = 0;
  uint64_t snapshots = 0;
  uint64_t snapshot_failures = 0;
  uint64_t last_commit_lsn = 0;
  uint64_t wal_bytes = 0;  // live on-disk WAL bytes (0 without a WAL)
};

// The long-running process wrapper. Not copyable; Stop() (or destruction)
// joins the threads. The ViewManager and Database must outlive the
// service and, between Start and Stop/Crash, must not be touched by any
// other thread — the pump owns them.
class MaintenanceService {
 public:
  MaintenanceService(ViewManager* vm, Database* db,
                     const ServiceOptions& options);
  ~MaintenanceService();
  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  // Opens (or resumes) the WAL directory, attaches it as the journal and
  // starts the pump (and exporter, when configured). To resume a prior
  // incarnation's state, run persist::Recover over the same data_dir
  // first — Start appends where the recovered WAL ends. Returns false
  // with `error` set when the data directory is unusable.
  bool Start(std::string* error);

  // Graceful shutdown: closes the queue, drains it, runs a final refresh
  // (and snapshot, when due), syncs and detaches the WAL, joins threads.
  // Idempotent.
  void Stop();

  // Chaos shutdown: abandons queued ops and skips the final refresh,
  // snapshot and sync, leaving the on-disk state as a kill signal would
  // (modulo OS buffers — tests tear the WAL tail with persist::FaultFile
  // on top). Idempotent with Stop.
  void Crash();

  // Producer side (any thread). False: shed, or service not running.
  bool SubmitInsert(const std::string& table, Row row);
  bool SubmitDelete(const std::string& table, Row key);
  bool SubmitUpdate(const std::string& table, Row key,
                    std::vector<std::string> set_columns, Row values);

  // Blocks until every op submitted so far is applied *and* refreshed
  // into the views (or the deadline passes). Test/bench synchronization.
  bool WaitForQuiesce(double timeout_seconds);

  ServiceHealth health() const;
  ServiceStats stats() const;
  // Staleness samples (seconds from Submit to the refresh that made the
  // op visible), a bounded reservoir of the most recent ~128k — the
  // bench's percentile source (the idivm_staleness_seconds histogram's
  // power-of-4 buckets are too coarse for sub-second p99s).
  std::vector<double> StalenessSamples() const;
  bool running() const;
  IngestQueue& queue() { return queue_; }
  persist::SegmentedWal* wal() { return wal_.get(); }

 private:
  void PumpLoop();
  void ExportLoop();
  // Applies drained ops to the engine. Caller holds engine_mutex_.
  void ApplyOps(std::vector<IngestOp>* ops);
  // One TryRefresh under the watchdog; harvests incidents into the repair
  // set and observes staleness. Caller holds engine_mutex_.
  void RunRefresh();
  // At most one RepairView per call, paced by repair_backoff_. Caller
  // holds engine_mutex_.
  void RunRepairs();
  // Snapshot + checkpoint + rotate + truncate when a trigger fired.
  // Caller holds engine_mutex_.
  void RunHousekeeping(bool force);
  void UpdateHealth();

  ViewManager* vm_;
  Database* db_;
  ServiceOptions options_;
  IngestQueue queue_;
  robust::Deadline deadline_;
  robust::Backoff repair_backoff_;
  robust::Backoff snapshot_backoff_;

  // Engine state: everything below is pump-owned while running; the
  // mutex lets Stop and the stats/health accessors read consistently.
  mutable std::mutex engine_mutex_;
  std::unique_ptr<persist::SegmentedWal> wal_;
  ServiceStats stats_;
  ServiceHealth health_ = ServiceHealth::kHealthy;
  std::set<std::string> needs_repair_;
  std::vector<std::chrono::steady_clock::time_point> pending_stamps_;
  std::vector<double> staleness_samples_;
  size_t staleness_ring_ = 0;
  std::chrono::steady_clock::time_point next_repair_;
  std::chrono::steady_clock::time_point next_snapshot_retry_;
  int64_t records_at_snapshot_ = 0;

  // Thread control.
  std::atomic<bool> stop_{false};
  std::atomic<bool> crash_{false};
  std::atomic<bool> running_{false};
  // Set by WaitForQuiesce: refresh on the next pump iteration regardless
  // of the staleness triggers.
  std::atomic<bool> force_refresh_{false};
  std::mutex export_mutex_;
  std::condition_variable export_cv_;
  std::thread pump_;
  std::thread exporter_;

  // Quiesce signalling.
  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  uint64_t refreshed_generation_ = 0;
};

}  // namespace idivm::serve

#endif  // IDIVM_SERVE_SERVICE_H_
