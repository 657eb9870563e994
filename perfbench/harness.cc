#include "perfbench/harness.h"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace idivm::perfbench {

BenchTrace::Totals BenchTrace::Sum(const std::string& name) const {
  Totals totals;
  for (const obs::TraceSpan& span : recorder_.Snapshot()) {
    if (span.name != name) continue;
    // dur_us is whole microseconds; the "ns" argument keeps the precision
    // sub-microsecond calls need.
    for (const auto& [key, value] : span.args) {
      if (key == "ns") totals.seconds += static_cast<double>(value) * 1e-9;
    }
    ++totals.count;
  }
  return totals;
}

void BenchTrace::Write(const std::string& path) const {
  if (!recorder_.WriteChromeTrace(path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
}

void BenchTrace::Record(const char* name, int64_t start_us, double seconds) {
  obs::TraceSpan span;
  span.name = name;
  span.category = "bench";
  span.tid = obs::TraceRecorder::CurrentThreadId();
  span.start_us = start_us;
  span.dur_us = static_cast<int64_t>(seconds * 1e6);
  span.args.emplace_back("ns", static_cast<int64_t>(seconds * 1e9));
  recorder_.Record(std::move(span));
}

Engine LoadEngine(uint64_t seed, BenchTrace* trace, SetupTimes* times) {
  Engine engine;
  engine.db = std::make_unique<Database>();
  BsmaConfig config;
  config.users = kUsers;
  config.seed = seed;
  times->load_s = trace->Time("BsmaWorkload", [&] {
    engine.workload =
        std::make_unique<BsmaWorkload>(engine.db.get(), config);
  });
  engine.vm = std::make_unique<ViewManager>(engine.db.get());
  times->define_s = 0;
  for (const std::string& view : BsmaWorkload::ViewNames()) {
    const double seconds = trace->Time("ViewManager::DefineView", [&] {
      engine.vm->DefineView(view, engine.workload->ViewPlan(view));
    });
    times->define_view_s[view] = seconds;
    times->define_s += seconds;
  }
  return engine;
}

bool ViewsMatchRecompute(Database* db, ViewManager* vm) {
  std::vector<std::pair<std::string, Relation>> before;
  for (const std::string& view : vm->ViewNames()) {
    before.emplace_back(view, db->GetTable(view).SnapshotUncounted());
  }
  vm->RecomputeAllViews();
  for (const auto& [view, contents] : before) {
    if (!contents.BagEquals(db->GetTable(view).SnapshotUncounted())) {
      std::fprintf(stderr, "error: view %s diverges from its recompute\n",
                   view.c_str());
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void AddSetupMetrics(const std::vector<SetupTimes>& setups,
                     MetricSet* metrics) {
  const double n = static_cast<double>(setups.size());
  double load = 0;
  double define = 0;
  std::map<std::string, double> per_view;
  for (const SetupTimes& setup : setups) {
    load += setup.load_s;
    define += setup.define_s;
    for (const auto& [view, seconds] : setup.define_view_s) {
      per_view[view] += seconds;
    }
  }
  metrics->Add("setup.load_s", load / n, "s");
  metrics->Add("setup.define_s", define / n, "s");
  for (const std::string& view : BsmaWorkload::ViewNames()) {
    metrics->Add("setup.define." + view + "_s", per_view[view] / n, "s");
  }
}

RegistryDelta::RegistryDelta() {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snapshot.counters) counters_[name] = value;
  for (const auto& histogram : snapshot.histograms) {
    histograms_[histogram.name] = {histogram.count, histogram.sum};
  }
}

int64_t RegistryDelta::Counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return obs::MetricsRegistry::Global().CounterValue(name) -
         (it == counters_.end() ? 0 : it->second);
}

int64_t RegistryDelta::HistogramCount(const std::string& name) const {
  const auto it = histograms_.find(name);
  return obs::GlobalHistogram(name).count() -
         (it == histograms_.end() ? 0 : it->second.first);
}

double RegistryDelta::HistogramSum(const std::string& name) const {
  const auto it = histograms_.find(name);
  return obs::GlobalHistogram(name).sum() -
         (it == histograms_.end() ? 0 : it->second.second);
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal; the guest columns
  // that follow are already counted in user and nice.
  for (int field = 0; field < 8 && cpu == "cpu"; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& since) {
  const CpuTicks now = ReadCpuTicks();
  return Ratio(static_cast<double>(now.steal - since.steal),
               static_cast<double>(now.total - since.total));
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace

std::string ProvenanceJson(const std::string& work_dir) {
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + JsonString(CpuModel()) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"flags\": " + JsonString(PERFBENCH_CXX_FLAGS) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"work_dir_fs\": " + JsonString(FilesystemType(work_dir)) + "}";
}

std::string BuildGuardError() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
#ifndef __OPTIMIZE__
  return "built without optimisation";
#else
  if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string::npos) {
    return "built with a sanitizer";
  }
  return "";
#endif
}

}  // namespace idivm::perfbench
