// The trickle workload, a closed loop: one caller logs 8 updates to
// distinct users' tweetsnum/favornum, refreshes every view with TryRefresh
// at threads = 4 (views in parallel), then scans every view, and repeats.

#include <algorithm>
#include <cstdio>

#include "perfbench/harness.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"

namespace idivm::perfbench {
namespace {

constexpr int64_t kModsPerRefresh = 8;
// RefreshOptions::threads: views maintained in parallel.
constexpr int kThreads = 4;
// Untimed refreshes before measuring (allocator, first-epoch work).
constexpr int kWarmupRefreshes = 50;
// accesses_per_mod covers exactly this many refreshes after warmup, so it
// repeats bit for bit for a seed however fast the machine is.
constexpr int kExactRefreshes = 500;
// Each quarter's p90 needs 100 samples (BestBlockPercentile); a run that
// reaches --seconds with fewer keeps going, up to this cap.
constexpr int kMinTimedRefreshes = 100 * kBlocks;
constexpr double kMaxRunSeconds = 120;

// Everything one measured refresh iteration produced.
struct Iteration {
  bool traced = false;
  double log_s = 0;
  double refresh_s = 0;
  double read_s = 0;
  AccessStats accesses;
  RefreshReport report;
};

void AddPerLayer(const std::vector<Iteration>& timed,
                 const std::vector<SetupTimes>& setups,
                 const BenchTrace& bench, const RegistryDelta& registry,
                 MetricSet* metrics) {
  AddSetupMetrics(setups, metrics);

  const BenchTrace::Totals log = bench.Sum("ModificationLogger::Update");
  metrics->Add("log.us_per_mod", Ratio(log.seconds * 1e6, log.count), "us");

  const double refreshes = static_cast<double>(timed.size());
  const double mods = refreshes * static_cast<double>(kModsPerRefresh);
  std::map<std::string, double> view_s;
  PhaseCost diff, cache, view;
  double slowest_s = 0, busy_s = 0, wall_s = 0;
  int64_t diff_tuples = 0, rows_touched = 0, dummies = 0, epochs = 0;
  AccessStats accesses;
  for (const Iteration& it : timed) {
    double slowest = 0;
    for (const auto& [name, result] : it.report.results) {
      const double seconds = result.TotalSeconds();
      view_s[name] += seconds;
      slowest = std::max(slowest, seconds);
      busy_s += seconds;
      diff += result.diff_computation;
      cache += result.cache_update;
      view += result.view_update;
      diff_tuples += result.diff_tuples_applied;
      rows_touched += result.rows_touched;
      dummies += result.dummy_tuples;
      ++epochs;
    }
    slowest_s += slowest;
    wall_s += it.refresh_s;
    accesses += it.accesses;
  }
  for (const std::string& name : BsmaWorkload::ViewNames()) {
    metrics->Add("refresh." + name + ".ms",
                 Ratio(view_s[name] * 1e3, refreshes), "ms");
  }
  metrics->Add("refresh.diff_computation_ms",
               Ratio(diff.seconds * 1e3, refreshes), "ms");
  metrics->Add("refresh.cache_update_ms",
               Ratio(cache.seconds * 1e3, refreshes), "ms");
  metrics->Add("refresh.view_update_ms", Ratio(view.seconds * 1e3, refreshes),
               "ms");

  const double epoch_ms =
      Ratio(registry.HistogramSum("idivm_epoch_seconds") * 1e3,
            registry.HistogramCount("idivm_epoch_seconds"));
  metrics->Add("epoch.ms_mean", epoch_ms, "ms");
  metrics->Add("epoch.outside_phases_ms",
               epoch_ms - Ratio(busy_s * 1e3, epochs), "ms");
  metrics->Add("refresh.slowest_view_ms", Ratio(slowest_s * 1e3, refreshes),
               "ms");
  metrics->Add("refresh.busy_share", Ratio(busy_s, wall_s * kThreads),
               "ratio");

  metrics->Add("storage.index_lookups_per_mod",
               Ratio(accesses.index_lookups, mods), "accesses");
  metrics->Add("storage.tuple_reads_per_mod",
               Ratio(accesses.tuple_reads, mods), "accesses");
  metrics->Add("storage.tuple_writes_per_mod",
               Ratio(accesses.tuple_writes, mods), "accesses");

  metrics->Add("diff.tuples_per_mod", Ratio(diff_tuples, mods), "tuples");
  metrics->Add("diff.rows_touched_per_mod", Ratio(rows_touched, mods),
               "rows");
  metrics->Add("diff.amplification", Ratio(rows_touched, diff_tuples),
               "ratio");
  metrics->Add("diff.dummy_share", Ratio(dummies, diff_tuples), "ratio");
  metrics->Add("undo.batches_per_refresh",
               Ratio(registry.Counter("idivm_undo_batches_total"), refreshes),
               "count");
  metrics->Add("undo.bytes_per_mod",
               Ratio(registry.Counter("idivm_undo_batched_bytes_total"), mods),
               "bytes");

  const double cache_hits = registry.Counter("idivm_program_cache_hits_total");
  metrics->Add("exec.program_cache_hit_share",
               Ratio(cache_hits,
                     cache_hits +
                         registry.Counter("idivm_program_cache_misses_total")),
               "ratio");
  const double kernel_hits = registry.Counter("idivm_agg_kernel_hits_total");
  metrics->Add("exec.agg_kernel_hit_share",
               Ratio(kernel_hits,
                     kernel_hits +
                         registry.Counter("idivm_agg_kernel_misses_total")),
               "ratio");
  metrics->Add("robust.epoch_rollbacks", accesses.epoch_rollbacks, "count");

  // Even iterations ran untraced, odd ones with the engine's global trace
  // and the benchmark's spans installed.
  std::vector<double> traced, untraced;
  for (const Iteration& it : timed) {
    (it.traced ? traced : untraced).push_back(it.refresh_s);
  }
  metrics->Add("obs.trace_overhead_frac",
               Median(traced) / Median(untraced) - 1, "ratio");
}

}  // namespace

RunResult RunTrickle(const RunConfig& config) {
  RunResult out;
  BenchTrace bench(config.trace);

  std::unique_ptr<Engine> engine;
  std::vector<SetupTimes> setups(kSetups);
  std::vector<double> setup_s;
  for (SetupTimes& times : setups) {
    engine.reset();  // release the previous copy before loading anew
    engine = std::make_unique<Engine>(LoadEngine(config.seed, &bench, &times));
    setup_s.push_back(times.total_s());
  }
  Database& db = *engine->db;
  ViewManager& vm = *engine->vm;
  const std::vector<std::string>& views = BsmaWorkload::ViewNames();

  obs::TraceRecorder engine_trace;
  Rng rng(UpdateStreamSeed(config.seed));
  RefreshOptions options;
  options.threads = kThreads;

  std::vector<Iteration> timed;
  AccessStats exact_accesses;
  std::unique_ptr<RegistryDelta> registry;
  Clock::time_point start;
  for (int64_t i = 0;; ++i) {
    const int64_t timed_index = i - kWarmupRefreshes;
    if (timed_index == 0) {
      start = Clock::now();
      registry = std::make_unique<RegistryDelta>();
    }
    if (timed_index >= std::max(kExactRefreshes, kMinTimedRefreshes)) {
      const double elapsed = SecondsBetween(start, Clock::now());
      if (elapsed >= config.seconds) break;
    }
    if (timed_index >= 0 &&
        SecondsBetween(start, Clock::now()) >= kMaxRunSeconds) {
      std::fprintf(stderr, "error: trickle reached only %lld refreshes\n",
                   static_cast<long long>(timed_index));
      out.correct = false;
      break;
    }

    Iteration it;
    it.traced = config.trace && i % 2 == 1;
    bench.set_enabled(it.traced);
    obs::SetGlobalTrace(it.traced ? &engine_trace : nullptr);

    for (const size_t pick :
         rng.SampleIndices(kUsers, kModsPerRefresh)) {
      const Row key = {Value(static_cast<int64_t>(pick))};
      const Row values = {Value(rng.UniformInt(0, 2000)),
                          Value(rng.UniformInt(0, 5000))};
      bool logged = false;
      it.log_s += bench.Time("ModificationLogger::Update", [&] {
        logged = vm.logger().Update("user", key, {"tweetsnum", "favornum"},
                                    values);
      });
      if (!logged) ++out.failed;
    }

    const AccessStats before = db.stats();
    Status status;
    it.refresh_s = bench.Time("ViewManager::TryRefresh", [&] {
      status = vm.TryRefresh(options, &it.report);
    });
    it.accesses = db.stats() - before;
    obs::SetGlobalTrace(nullptr);
    engine_trace.Clear();  // spans are not kept, only their cost measured

    if (!status.ok() || !it.report.incidents.empty() ||
        it.report.results.size() != views.size()) {
      std::fprintf(stderr, "error: trickle refresh %lld failed: %s\n",
                   static_cast<long long>(i), status.ToString().c_str());
      out.failed += kModsPerRefresh;
      out.correct = false;
      break;
    }

    for (const std::string& view : views) {
      it.read_s += bench.Time("Table::ScanAll",
                              [&] { db.GetTable(view).ScanAll(); });
    }

    out.attempted += kModsPerRefresh;
    if (timed_index < 0) continue;
    if (timed_index < kExactRefreshes) exact_accesses += it.accesses;
    timed.push_back(std::move(it));
  }
  bench.set_enabled(false);

  if (out.correct && !ViewsMatchRecompute(&db, &vm)) out.correct = false;
  if (!out.correct) return out;

  std::vector<double> refresh_ms, read_us, busy_s;
  for (const Iteration& it : timed) {
    refresh_ms.push_back(it.refresh_s * 1e3);
    read_us.push_back(it.read_s * 1e6);
    busy_s.push_back(it.log_s + it.refresh_s);
  }
  out.info = {{"timed_refreshes", static_cast<double>(timed.size())},
              {"exact_refreshes", static_cast<double>(kExactRefreshes)},
              {"setups", static_cast<double>(kSetups)}};
  if (config.trace) {
    AddPerLayer(timed, setups, bench, *registry, &out.metrics);
    bench.Write(config.work_dir + "/trace-trickle.json");
    return out;
  }
  out.metrics.Add("setup_s", Median(setup_s), "s");
  out.metrics.Add("peak_rss_mb", PeakRssMib(), "MiB");
  out.metrics.Add("accesses_per_mod",
                  static_cast<double>(exact_accesses.TotalAccesses()) /
                      static_cast<double>(kExactRefreshes * kModsPerRefresh),
                  "accesses");
  // Wall-clock figures are reported, not gated (README "What is gated").
  out.info.insert(
      out.info.end(),
      {{"visible_ms_p50",
        Require(BestBlockPercentile(refresh_ms, 0.5), "refresh p50")},
       {"visible_ms_p90",
        Require(BestBlockPercentile(refresh_ms, 0.9), "refresh p90")},
       {"mods_per_s", kModsPerRefresh / BestBlockMean(busy_s)},
       {"read_us_p50", Require(BestBlockPercentile(read_us, 0.5), "read p50")},
       {"read_us_p90",
        Require(BestBlockPercentile(read_us, 0.9), "read p90")}});
  return out;
}

}  // namespace idivm::perfbench
