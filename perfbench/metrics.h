// Result bookkeeping for the repository benchmark: the percentile rule,
// metric-name validation, the open-loop staleness pairing and the one-line
// JSON result the benchmark prints last.

#ifndef IDIVM_PERFBENCH_METRICS_H_
#define IDIVM_PERFBENCH_METRICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace idivm::perfbench {

// The q-quantile (0 < q < 1) of `samples` by nearest rank, or nullopt when
// fewer than ten samples lie beyond it: a p50 needs 20 samples, a p90 100
// and a p99 1000.
std::optional<double> Percentile(std::vector<double> samples, double q);

// The value of a percentile, throwing std::runtime_error naming `what`
// when the sample count did not support it.
double Require(const std::optional<double>& value, const std::string& what);

// Number of consecutive blocks a run's samples are split into for the
// central statistics (BestBlockPercentile, BestBlockMean).
inline constexpr int kBlocks = 4;

// Splits time-ordered `samples` into kBlocks consecutive blocks of equal
// size and returns the smallest block q-quantile, or nullopt when a block
// is too small for the quantile. A shared host has slow periods lasting
// seconds; the least disturbed quarter of a run measures the program
// rather than how much of the run such a period covered.
std::optional<double> BestBlockPercentile(const std::vector<double>& samples,
                                          double q);

// The smallest mean of kBlocks consecutive equal blocks (0 when there are
// fewer samples than blocks).
double BestBlockMean(const std::vector<double>& samples);

// True when `name` is a legal metric name: 1 to 64 characters from
// [A-Za-z0-9_.-], starting with a letter or a digit.
bool ValidMetricName(std::string_view name);

// True when `unit` is a legal unit: 1 to 16 characters from
// [A-Za-z0-9_/%.-].
bool ValidUnit(std::string_view unit);

// Per-op staleness of an open-loop phase. The producer records, for each
// op it sends, how late the call was against the op's due time
// (`lateness`, seconds). The service records one sample per applied op,
// from enqueue to the end of the refresh that made it visible, in apply
// order (MaintenanceService::StalenessSamples). With a single producer,
// the block policy and no rejected op, sample `offset + i` belongs to op
// i, so op i's due → visible time is lateness[i] + samples[offset + i].
// Returns nullopt when the counts do not pair one-to-one, or when the
// service's ring of `ring_capacity` samples may have wrapped.
std::optional<std::vector<double>> PairStaleness(
    const std::vector<double>& lateness, const std::vector<double>& samples,
    size_t offset, size_t ring_capacity);

// An ordered set of named measurements. Add rejects (throws
// std::invalid_argument) an invalid or repeated name, an invalid unit and
// a non-finite value.
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  void Add(const std::string& name, double value, const std::string& unit);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(std::string_view name) const;

 private:
  std::vector<Metric> metrics_;
};

// The result line:
// {"correct": ..., "attempted": N, "failed": N, "metrics": {"<name>":
// {"value": V, "unit": "U"}, ...}}, values printed with all their digits.
std::string RenderResult(bool correct, int64_t attempted, int64_t failed,
                         const MetricSet& metrics);

}  // namespace idivm::perfbench

#endif  // IDIVM_PERFBENCH_METRICS_H_
