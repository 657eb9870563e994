// Shared machinery of the benchmark's workloads: the run configuration,
// the benchmark's own spans around public engine calls, loading the BSMA
// database with all eight Fig. 9b views, the recompute check, metric-
// registry deltas and build provenance.

#ifndef IDIVM_PERFBENCH_HARNESS_H_
#define IDIVM_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/metrics.h"
#include "src/core/view_manager.h"
#include "src/obs/trace.h"
#include "src/storage/database.h"
#include "src/workload/bsma.h"

namespace idivm::perfbench {

// BSMA scale of every workload: the paper's table ratios at 3000 users.
inline constexpr int64_t kUsers = 3000;

// Seed of the benchmark's own update generator. BsmaWorkload's generator
// RNG is never used, so the program receives only these updates.
inline uint64_t UpdateStreamSeed(uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull + 1;
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  // Scratch space inside the checkout (WAL, snapshot, trace file).
  std::string work_dir;
};

// What one workload run reports. `metrics` holds the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one; `info`
// holds sample counts and other context printed beside the result.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricSet metrics;
  std::vector<std::pair<std::string, double>> info;
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// The benchmark's own spans: one per public engine call it makes, kept in
// memory and written as Chrome trace JSON at the end of a traced run. Time
// always returns the call's wall-clock seconds; spans are recorded only
// while enabled. Time may be called from several threads.
class BenchTrace {
 public:
  explicit BenchTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  template <typename Fn>
  double Time(const char* name, Fn&& fn) {
    const bool record = enabled();
    const Clock::time_point start = Clock::now();
    const int64_t start_us = record ? recorder_.NowMicros() : 0;
    fn();
    const double seconds = SecondsBetween(start, Clock::now());
    if (record) Record(name, start_us, seconds);
    return seconds;
  }

  // Total seconds and count of the recorded spans named `name`.
  struct Totals {
    double seconds = 0;
    int64_t count = 0;
  };
  Totals Sum(const std::string& name) const;

  // Writes the recorded spans as Chrome trace JSON; a failure is reported
  // on stderr and does not fail the run.
  void Write(const std::string& path) const;

 private:
  void Record(const char* name, int64_t start_us, double seconds);

  std::atomic<bool> enabled_;
  obs::TraceRecorder recorder_;
};

// A loaded BSMA database with all eight views defined in one manager.
struct Engine {
  std::unique_ptr<Database> db;
  std::unique_ptr<BsmaWorkload> workload;
  std::unique_ptr<ViewManager> vm;
};

// Wall-clock split of one LoadEngine call.
struct SetupTimes {
  double load_s = 0;
  double define_s = 0;
  std::map<std::string, double> define_view_s;
  double total_s() const { return load_s + define_s; }
};

// Builds the database from `seed` (BsmaConfig.seed) and defines every
// Fig. 9b view under its BSMA name, each call timed through `trace`.
Engine LoadEngine(uint64_t seed, BenchTrace* trace, SetupTimes* times);

// Copies every view, recomputes all views from the base tables and
// compares bags. Prints the first diverging view to stderr.
bool ViewsMatchRecompute(Database* db, ViewManager* vm);

// Adds the setup.* per-layer metrics, averaged over `setups`.
void AddSetupMetrics(const std::vector<SetupTimes>& setups,
                     MetricSet* metrics);

// Median of a non-empty vector.
double Median(std::vector<double> values);

// Deltas of global obs::MetricsRegistry counters and histograms since
// construction.
class RegistryDelta {
 public:
  RegistryDelta();
  int64_t Counter(const std::string& name) const;
  // Count and sum of a histogram's observations since construction.
  int64_t HistogramCount(const std::string& name) const;
  double HistogramSum(const std::string& name) const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, std::pair<int64_t, double>> histograms_;
};

// The machine's CPU time counters from /proc/stat.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

// Time the host took from this VM's CPUs (the "steal" column) as a share
// of all CPU time since `since`. On a shared host it explains slow runs;
// 0 where the kernel reports no steal.
double StealShare(const CpuTicks& since);

// ru_maxrss in MiB.
double PeakRssMib();

// One JSON object with nproc, CPU model, compiler, flags, build type and
// the filesystem type of `work_dir`.
std::string ProvenanceJson(const std::string& work_dir);

// Empty when the binary is an optimised, unsanitized build; otherwise the
// reason it must not be used for measurement.
std::string BuildGuardError();

// 0 when `denominator` is 0 (a layer the run did not exercise).
inline double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

// How many times each run loads the database and defines the views;
// setup_s is the median.
inline constexpr int kSetups = 3;

// The workloads (README.md "Workloads").
RunResult RunTrickle(const RunConfig& config);
RunResult RunService(const RunConfig& config);

}  // namespace idivm::perfbench

#endif  // IDIVM_PERFBENCH_HARNESS_H_
