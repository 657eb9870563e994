#include "perfbench/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace idivm::perfbench {
namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const double n = static_cast<double>(samples.size());
  // Ten samples beyond the quantile; the epsilon keeps 100 × 0.1 from
  // rounding below 10.
  if (q <= 0 || q >= 1 || n * (1 - q) + 1e-9 < 10) return std::nullopt;
  const size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Require(const std::optional<double>& value, const std::string& what) {
  if (!value.has_value()) {
    throw std::runtime_error("too few samples for " + what);
  }
  return *value;
}

namespace {

// The samples of block b of kBlocks (the last block takes the remainder).
std::vector<double> Block(const std::vector<double>& samples, int b) {
  const size_t size = samples.size() / kBlocks;
  const auto begin = samples.begin() + static_cast<ptrdiff_t>(b * size);
  return {begin, b + 1 == kBlocks ? samples.end()
                                  : begin + static_cast<ptrdiff_t>(size)};
}

}  // namespace

std::optional<double> BestBlockPercentile(const std::vector<double>& samples,
                                          double q) {
  std::optional<double> best;
  for (int b = 0; b < kBlocks; ++b) {
    const std::optional<double> value = Percentile(Block(samples, b), q);
    if (!value.has_value()) return std::nullopt;
    if (!best.has_value() || *value < *best) best = value;
  }
  return best;
}

double BestBlockMean(const std::vector<double>& samples) {
  if (samples.size() < static_cast<size_t>(kBlocks)) return 0;
  double best = 0;
  for (int b = 0; b < kBlocks; ++b) {
    const std::vector<double> block = Block(samples, b);
    double sum = 0;
    for (const double value : block) sum += value;
    const double mean = sum / static_cast<double>(block.size());
    if (b == 0 || mean < best) best = mean;
  }
  return best;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

std::optional<std::vector<double>> PairStaleness(
    const std::vector<double>& lateness, const std::vector<double>& samples,
    size_t offset, size_t ring_capacity) {
  if (samples.size() >= ring_capacity ||
      samples.size() != offset + lateness.size()) {
    return std::nullopt;
  }
  std::vector<double> staleness(lateness.size());
  for (size_t i = 0; i < lateness.size(); ++i) {
    staleness[i] = lateness[i] + samples[offset + i];
  }
  return staleness;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  if (!ValidMetricName(name)) {
    throw std::invalid_argument("invalid metric name \"" + name + "\"");
  }
  if (!ValidUnit(unit)) {
    throw std::invalid_argument("invalid unit \"" + unit + "\" for " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  if (Find(name) != nullptr) {
    throw std::invalid_argument("metric " + name + " added twice");
  }
  metrics_.push_back({name, value, unit});
}

const MetricSet::Metric* MetricSet::Find(std::string_view name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string RenderResult(bool correct, int64_t attempted, int64_t failed,
                         const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSet::Metric& metric : metrics.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    // Names and units are validated to need no JSON escaping.
    out += (first ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace idivm::perfbench
