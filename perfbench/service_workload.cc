// The service workload: MaintenanceService with a WAL and snapshot reads,
// fed by an open-loop producer at a fixed nominal rate while two readers
// loop over OpenSnapshot -> Read -> Scan; then a saturation phase, a
// Crash() and a timed persist::Recover.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>

#include "perfbench/harness.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/persist/recovery.h"
#include "src/serve/service.h"

namespace idivm::perfbench {
namespace {

using serve::MaintenanceService;

// Nominal producer rate, about half the rate the service sustains at
// saturation with both readers and MVCC on (README.md "service").
constexpr double kNominalOpsPerSecond = 500;
constexpr int kReaders = 2;
// Shares of --seconds spent in each phase.
constexpr double kWarmupShare = 0.1;
constexpr double kNominalShare = 0.5;
constexpr double kSaturationShare = 0.4;
// The nominal phase sends at least this many ops, so its p99s have ten
// samples beyond them even in a short run, and goes on until the readers
// recorded enough reads for a p90 in each quarter.
constexpr int64_t kMinNominalOps = 1000;
constexpr int64_t kMinReads = 100 * kBlocks;
constexpr double kMaxExtraSeconds = 60;
// Traced runs alternate tracing on and off in windows of this length.
constexpr double kTraceWindowSeconds = 0.5;
// MaintenanceService keeps at most this many staleness samples.
constexpr size_t kStalenessRing = 1 << 17;
constexpr double kQuiesceTimeoutSeconds = 60;

// The snapshot readers: each loops over OpenSnapshot -> Read -> full Scan
// of every view in that one snapshot until destroyed, keeping the latency
// of each whole op while recording. One op covers all eight views so its
// latency has one mode; views differ in size by orders of magnitude.
class Readers {
 public:
  Readers(ViewManager* vm, BenchTrace* bench) : samples_(kReaders) {
    for (int r = 0; r < kReaders; ++r) {
      threads_.emplace_back([this, vm, bench, r] {
        Loop(vm, bench, &samples_[static_cast<size_t>(r)]);
      });
    }
  }
  ~Readers() { Join(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  void set_recording(bool recording) { recording_.store(recording); }
  // Latencies recorded so far.
  int64_t recorded() const { return recorded_.load(); }

  // Stops and joins the readers; returns every recorded latency (seconds)
  // in the order the reads started.
  std::vector<double> Join() {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
    std::vector<Sample> all;
    for (const std::vector<Sample>& samples : samples_) {
      all.insert(all.end(), samples.begin(), samples.end());
    }
    std::sort(all.begin(), all.end());
    std::vector<double> latencies;
    for (const Sample& sample : all) latencies.push_back(sample.second);
    return latencies;
  }

 private:
  // Start time and latency of one read.
  using Sample = std::pair<Clock::time_point, double>;

  void Loop(ViewManager* vm, BenchTrace* bench, std::vector<Sample>* samples);

  std::atomic<bool> stop_{false};
  std::atomic<bool> recording_{false};
  std::atomic<int64_t> recorded_{0};
  std::vector<std::vector<Sample>> samples_;
  std::vector<std::thread> threads_;
};

void Readers::Loop(ViewManager* vm, BenchTrace* bench,
                   std::vector<Sample>* samples) {
  const std::vector<std::string>& views = BsmaWorkload::ViewNames();
  while (!stop_.load(std::memory_order_relaxed)) {
    const Clock::time_point start = Clock::now();
    mvcc::Snapshot snapshot;
    bench->Time("ViewManager::OpenSnapshot",
                [&] { snapshot = vm->OpenSnapshot(); });
    size_t rows = 0;
    for (const std::string& view : views) {
      const mvcc::TableVersion* version = nullptr;
      bench->Time("Snapshot::Read", [&] { version = &snapshot.Read(view); });
      bench->Time("TableVersion::Scan",
                  [&] { rows += version->Scan().size(); });
    }
    const double seconds = SecondsBetween(start, Clock::now());
    if (rows > 0 && recording_.load(std::memory_order_relaxed)) {
      samples->emplace_back(start, seconds);
      recorded_.fetch_add(1);
    }
  }
}

// The producer's update: a uniformly drawn user, with repeats, so refresh
// batches exercise log compaction.
struct Producer {
  explicit Producer(uint64_t seed) : rng(UpdateStreamSeed(seed)) {}

  bool Submit(MaintenanceService* service, BenchTrace* bench,
              double* seconds) {
    const int64_t user = rng.UniformInt(0, kUsers - 1);
    Row values = {Value(rng.UniformInt(0, 2000)),
                  Value(rng.UniformInt(0, 5000))};
    bool accepted = false;
    *seconds = bench->Time("MaintenanceService::SubmitUpdate", [&] {
      accepted = service->SubmitUpdate("user", {Value(user)},
                                       {"tweetsnum", "favornum"},
                                       std::move(values));
    });
    ++submitted;
    if (!accepted) ++refused;
    return accepted;
  }

  Rng rng;
  int64_t submitted = 0;
  int64_t refused = 0;
};

// Open-loop phase of at least `ops` ops, continuing at the same rate while
// `more` says so (up to kMaxExtraSeconds more): op i is due at start +
// i / rate and is sent at its due time or, if the producer fell behind, as
// soon as it can. Returns each op's lateness (call time minus due time).
// Every op of the phase is sent.
struct OpenLoopResult {
  std::vector<double> lateness_s;
  std::vector<double> submit_s;
  std::vector<bool> traced;
  int64_t queue_depth_max = 0;
};

OpenLoopResult RunOpenLoop(MaintenanceService* service, Producer* producer,
                           BenchTrace* bench, obs::TraceRecorder* engine_trace,
                           int64_t ops, const std::function<bool()>& more,
                           bool alternate_tracing) {
  OpenLoopResult out;
  const Clock::time_point start = Clock::now();
  const int64_t max_ops =
      ops + static_cast<int64_t>(kMaxExtraSeconds * kNominalOpsPerSecond);
  int64_t window = -1;
  for (int64_t i = 0; i < max_ops && (i < ops || more()); ++i) {
    const double due_s = static_cast<double>(i) / kNominalOpsPerSecond;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s));
    std::this_thread::sleep_until(due);
    const bool traced =
        alternate_tracing &&
        static_cast<int64_t>(due_s / kTraceWindowSeconds) % 2 == 1;
    if (alternate_tracing &&
        static_cast<int64_t>(due_s / kTraceWindowSeconds) != window) {
      window = static_cast<int64_t>(due_s / kTraceWindowSeconds);
      bench->set_enabled(traced);
      obs::SetGlobalTrace(traced ? engine_trace : nullptr);
      engine_trace->Clear();  // spans are not kept, only their cost measured
    }
    out.lateness_s.push_back(SecondsBetween(due, Clock::now()));
    double submit = 0;
    producer->Submit(service, bench, &submit);
    out.submit_s.push_back(submit);
    out.traced.push_back(traced);
    out.queue_depth_max = std::max(
        out.queue_depth_max, static_cast<int64_t>(service->queue().depth()));
  }
  if (alternate_tracing) {
    bench->set_enabled(false);
    obs::SetGlobalTrace(nullptr);
  }
  return out;
}

std::vector<double> Scaled(const std::vector<double>& values, double factor) {
  std::vector<double> out;
  out.reserve(values.size());
  for (const double value : values) out.push_back(value * factor);
  return out;
}

}  // namespace

RunResult RunService(const RunConfig& config) {
  RunResult out;
  BenchTrace bench(config.trace);
  const std::string data_root = config.work_dir + "/service-data";
  std::filesystem::remove_all(data_root);
  std::filesystem::create_directories(data_root);

  // ---- Setup: load, define, enable snapshot reads, start ----
  // Declared so that the service (and later the readers) stop before the
  // engine they use is destroyed.
  std::unique_ptr<Engine> engine;
  std::unique_ptr<MaintenanceService> service;
  std::vector<SetupTimes> setups(kSetups);
  std::vector<double> setup_s;
  serve::ServiceOptions options;
  AccessStats stats_at_start;
  for (int k = 0; k < kSetups; ++k) {
    if (service != nullptr) service->Stop();
    service.reset();
    engine.reset();
    engine = std::make_unique<Engine>(
        LoadEngine(config.seed, &bench, &setups[static_cast<size_t>(k)]));
    double start_s = bench.Time("ViewManager::EnableSnapshotReads",
                                [&] { engine->vm->EnableSnapshotReads(); });
    options.data_dir = data_root + "/setup-" + std::to_string(k);
    service = std::make_unique<MaintenanceService>(engine->vm.get(),
                                                   engine->db.get(), options);
    stats_at_start = engine->db->stats();
    std::string error;
    bool started = false;
    start_s += bench.Time("MaintenanceService::Start",
                          [&] { started = service->Start(&error); });
    if (!started) {
      std::fprintf(stderr, "error: service start failed: %s\n",
                   error.c_str());
      out.correct = false;
      return out;
    }
    setup_s.push_back(setups[static_cast<size_t>(k)].total_s() + start_s);
  }
  ViewManager* vm = engine->vm.get();

  Readers readers(vm, &bench);
  Producer producer(config.seed);
  obs::TraceRecorder engine_trace;
  bench.set_enabled(false);

  // ---- Warmup at the nominal rate (unmeasured) ----
  RunOpenLoop(service.get(), &producer, &bench, &engine_trace,
              static_cast<int64_t>(config.seconds * kWarmupShare *
                                   kNominalOpsPerSecond),
              [] { return false; }, /*alternate_tracing=*/false);
  bool quiesced = service->WaitForQuiesce(kQuiesceTimeoutSeconds);
  const size_t warmup_samples = service->StalenessSamples().size();
  const serve::ServiceStats at_nominal = service->stats();

  // ---- Nominal open-loop phase ----
  const RegistryDelta registry;
  readers.set_recording(true);
  const Clock::time_point nominal_start = Clock::now();
  const OpenLoopResult nominal =
      RunOpenLoop(service.get(), &producer, &bench, &engine_trace,
                  std::max(kMinNominalOps,
                           static_cast<int64_t>(config.seconds * kNominalShare *
                                                kNominalOpsPerSecond)),
                  [&] { return readers.recorded() < kMinReads; }, config.trace);
  readers.set_recording(false);
  quiesced = quiesced && service->WaitForQuiesce(kQuiesceTimeoutSeconds);
  const double nominal_s = SecondsBetween(nominal_start, Clock::now());
  const std::vector<double> service_samples = service->StalenessSamples();
  const serve::ServiceStats after_nominal = service->stats();
  const int64_t epoch_accesses = static_cast<int64_t>(
      registry.HistogramSum("idivm_epoch_accesses") + 0.5);
  const int64_t nominal_epochs = registry.HistogramCount("idivm_epoch_seconds");
  const double nominal_epoch_s = registry.HistogramSum("idivm_epoch_seconds");
  const int64_t wal_records = registry.Counter("idivm_wal_records_total");
  const int64_t wal_syncs = registry.Counter("idivm_wal_syncs_total");
  const int64_t flips = registry.HistogramCount("idivm_version_flip_seconds");
  const double flip_s = registry.HistogramSum("idivm_version_flip_seconds");
  const int64_t flip_rows = registry.Counter("idivm_version_flip_rows_total");
  const int64_t gc_versions =
      registry.Counter("idivm_snapshot_gc_versions_total");
  const int64_t diff_tuples = registry.Counter("idivm_apply_diff_tuples_total");
  const int64_t rows_touched =
      registry.Counter("idivm_apply_rows_touched_total");
  const int64_t dummies = registry.Counter("idivm_apply_dummy_tuples_total");
  const int64_t undo_batches = registry.Counter("idivm_undo_batches_total");
  const int64_t undo_bytes = registry.Counter("idivm_undo_batched_bytes_total");
  const int64_t cache_hits =
      registry.Counter("idivm_program_cache_hits_total");
  const int64_t cache_misses =
      registry.Counter("idivm_program_cache_misses_total");
  const int64_t kernel_hits = registry.Counter("idivm_agg_kernel_hits_total");
  const int64_t kernel_misses =
      registry.Counter("idivm_agg_kernel_misses_total");

  // ---- Saturation: submit as fast as block backpressure allows ----
  const Clock::time_point saturation_start = Clock::now();
  const int64_t before_saturation = producer.submitted;
  while (SecondsBetween(saturation_start, Clock::now()) <
         config.seconds * kSaturationShare) {
    double ignored = 0;
    producer.Submit(service.get(), &bench, &ignored);
  }
  quiesced = quiesced && service->WaitForQuiesce(kQuiesceTimeoutSeconds);
  const double saturation_s = SecondsBetween(saturation_start, Clock::now());
  const int64_t saturation_ops = producer.submitted - before_saturation;

  const std::vector<double> reads = readers.Join();
  const serve::ServiceStats final_stats = service->stats();
  service->Crash();
  service.reset();

  // ---- Correctness: views ≡ recompute, then recover and check again ----
  const AccessStats service_accesses = engine->db->stats() - stats_at_start;
  out.attempted = producer.submitted;
  out.failed = producer.refused +
               static_cast<int64_t>(final_stats.ops_rejected +
                                    final_stats.incidents);
  if (!quiesced) {
    std::fprintf(stderr, "error: the service did not quiesce\n");
    out.correct = false;
  }
  if (final_stats.refresh_failures > 0) {
    std::fprintf(stderr, "error: %llu refreshes failed\n",
                 static_cast<unsigned long long>(
                     final_stats.refresh_failures));
    out.correct = false;
  }
  if (!ViewsMatchRecompute(engine->db.get(), vm)) out.correct = false;
  const Relation users_before =
      engine->db->GetTable("user").SnapshotUncounted();
  engine.reset();

  Database recovered_db;
  ViewManager recovered_vm(&recovered_db);
  persist::RecoverResult recovered;
  bench.set_enabled(config.trace);
  const double recover_s = bench.Time("persist::Recover", [&] {
    recovered = persist::Recover(&recovered_db, &recovered_vm,
                                 options.data_dir + "/snapshot.bin",
                                 options.data_dir + "/wal");
  });
  if (!recovered.ok) {
    std::fprintf(stderr, "error: recovery failed: %s\n",
                 recovered.error.c_str());
    out.correct = false;
  } else if (!users_before.BagEquals(
                 recovered_db.GetTable("user").SnapshotUncounted()) ||
             !ViewsMatchRecompute(&recovered_db, &recovered_vm)) {
    std::fprintf(stderr, "error: recovered state differs\n");
    out.correct = false;
  }
  std::filesystem::remove_all(data_root);

  const std::optional<std::vector<double>> staleness = PairStaleness(
      nominal.lateness_s, service_samples, warmup_samples, kStalenessRing);
  if (!staleness.has_value()) {
    std::fprintf(stderr,
                 "error: %zu staleness samples do not pair with %zu ops\n",
                 service_samples.size() - warmup_samples,
                 nominal.lateness_s.size());
    out.correct = false;
  }
  if (!out.correct) return out;
  const double nominal_ops =
      static_cast<double>(after_nominal.ops_applied - at_nominal.ops_applied);
  const double nominal_refreshes =
      static_cast<double>(after_nominal.refreshes - at_nominal.refreshes);
  out.info = {{"staleness_samples", static_cast<double>(staleness->size())},
              {"read_samples", static_cast<double>(reads.size())},
              {"nominal_ops_per_s", kNominalOpsPerSecond},
              {"saturation_ops", static_cast<double>(saturation_ops)},
              {"setups", static_cast<double>(kSetups)}};

  if (!config.trace) {
    out.metrics.Add("setup_s", Median(setup_s), "s");
    out.metrics.Add("peak_rss_mb", PeakRssMib(), "MiB");
    out.metrics.Add("accesses_per_mod", Ratio(epoch_accesses, nominal_ops),
                    "accesses");
    // Wall-clock figures are reported, not gated (README "What is gated").
    const std::vector<double> staleness_ms = Scaled(*staleness, 1e3);
    const std::vector<double> read_us = Scaled(reads, 1e6);
    out.info.insert(
        out.info.end(),
        {{"visible_ms_p50",
          Require(BestBlockPercentile(staleness_ms, 0.5), "staleness p50")},
         {"visible_ms_p90",
          Require(BestBlockPercentile(staleness_ms, 0.9), "staleness p90")},
         {"mods_per_s", saturation_ops / saturation_s},
         {"read_us_p50",
          Require(BestBlockPercentile(read_us, 0.5), "read p50")},
         {"read_us_p90",
          Require(BestBlockPercentile(read_us, 0.9), "read p90")}});
    return out;
  }

  // ---- Per-layer metrics (traced run) ----
  MetricSet& m = out.metrics;
  AddSetupMetrics(setups, &m);
  const BenchTrace::Totals starts = bench.Sum("MaintenanceService::Start");
  m.Add("setup.service_start_s", Ratio(starts.seconds, starts.count), "s");
  const double epoch_ms = Ratio(nominal_epoch_s * 1e3, nominal_epochs);
  m.Add("epoch.ms_mean", epoch_ms, "ms");
  const double all_ops = static_cast<double>(final_stats.ops_applied);
  m.Add("storage.index_lookups_per_mod",
        Ratio(service_accesses.index_lookups, all_ops), "accesses");
  m.Add("storage.tuple_reads_per_mod",
        Ratio(service_accesses.tuple_reads, all_ops), "accesses");
  m.Add("storage.tuple_writes_per_mod",
        Ratio(service_accesses.tuple_writes, all_ops), "accesses");
  m.Add("diff.tuples_per_mod", Ratio(diff_tuples, nominal_ops), "tuples");
  m.Add("diff.rows_touched_per_mod", Ratio(rows_touched, nominal_ops), "rows");
  m.Add("diff.amplification", Ratio(rows_touched, diff_tuples), "ratio");
  m.Add("diff.dummy_share", Ratio(dummies, diff_tuples), "ratio");
  m.Add("undo.batches_per_refresh", Ratio(undo_batches, nominal_refreshes),
        "count");
  m.Add("undo.bytes_per_mod", Ratio(undo_bytes, nominal_ops), "bytes");
  m.Add("exec.program_cache_hit_share",
        Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  m.Add("exec.agg_kernel_hit_share",
        Ratio(kernel_hits, kernel_hits + kernel_misses), "ratio");
  m.Add("robust.epoch_rollbacks", service_accesses.epoch_rollbacks, "count");

  m.Add("gen.lateness_ms_p99",
        Require(Percentile(Scaled(nominal.lateness_s, 1e3), 0.99),
                "lateness p99"),
        "ms");
  m.Add("serve.submit_us_p99",
        Require(Percentile(Scaled(nominal.submit_s, 1e6), 0.99), "submit p99"),
        "us");
  m.Add("serve.queue_depth_max", static_cast<double>(nominal.queue_depth_max),
        "ops");
  m.Add("serve.mods_per_refresh", Ratio(nominal_ops, nominal_refreshes),
        "ops");
  m.Add("serve.refreshes_per_s", nominal_refreshes / nominal_s, "1/s");
  const std::vector<double> own(service_samples.begin() + warmup_samples,
                                service_samples.end());
  m.Add("serve.staleness_ms_p99",
        Require(Percentile(Scaled(own, 1e3), 0.99), "service staleness p99"),
        "ms");
  m.Add("wal.records_per_mod", Ratio(wal_records, nominal_ops), "records");
  m.Add("wal.syncs_per_refresh", Ratio(wal_syncs, nominal_refreshes),
        "syncs");
  m.Add("persist.snapshots",
        static_cast<double>(final_stats.snapshots - at_nominal.snapshots),
        "count");
  m.Add("persist.recover_s", recover_s, "s");
  m.Add("persist.recover_batches",
        static_cast<double>(recovered.batches_applied), "count");
  m.Add("mvcc.flip_ms_mean", Ratio(flip_s * 1e3, flips), "ms");
  m.Add("mvcc.flip_rows_per_refresh", Ratio(flip_rows, nominal_refreshes),
        "rows");
  m.Add("mvcc.gc_versions_per_refresh", Ratio(gc_versions, nominal_refreshes),
        "count");

  std::vector<double> traced, untraced;
  for (size_t i = 0; i < staleness->size(); ++i) {
    (nominal.traced[i] ? traced : untraced).push_back((*staleness)[i]);
  }
  m.Add("obs.trace_overhead_frac", Median(traced) / Median(untraced) - 1,
        "ratio");
  bench.Write(config.work_dir + "/trace-service.json");
  return out;
}

}  // namespace idivm::perfbench
