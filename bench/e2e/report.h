// Shared by lbchat_e2e and lbchat_e2e_diff: the metric declarations read from
// BENCHMARK.json, sample statistics, and number formatting.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace lbchat::e2e {

/// One metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;  ///< allowed relative worsening; 0 for per-layer metrics
  bool per_layer = false;
};

struct BenchmarkDecl {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> metrics;  ///< end_to_end first, then per_layer

  [[nodiscard]] const MetricSpec* find(const std::string& name) const;
};

/// Parse BENCHMARK.json. False with `error` set on a missing file or a
/// malformed declaration.
[[nodiscard]] bool load_benchmark(const std::string& path, BenchmarkDecl& out, std::string& error);

/// Whole file as text; false when it cannot be read.
[[nodiscard]] bool read_text(const std::string& path, std::string& out);

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// First and third quartile with the default ("exclusive") method of
/// Python's statistics.quantiles(n=4); a single sample is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> v);

/// Sample summary of one metric across the runs that measured it.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Summary summarize(std::span<const double> samples);

/// Shortest decimal text that reads back as the same double.
[[nodiscard]] std::string fmt_num(double v);

}  // namespace lbchat::e2e
