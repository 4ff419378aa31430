#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "svc/json.h"

namespace lbchat::e2e {

const MetricSpec* BenchmarkDecl::find(const std::string& name) const {
  for (const MetricSpec& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

bool read_text(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

namespace {

bool load_metric_list(const svc::JsonValue& root, const char* key, bool per_layer,
                      BenchmarkDecl& out, std::string& error) {
  const svc::JsonValue* list = root.get(key);
  if (list == nullptr || !list->is_array()) {
    error = std::string{"BENCHMARK.json: \""} + key + "\" must be an array";
    return false;
  }
  for (const auto& item : list->items()) {
    const svc::JsonValue* name = item->get("name");
    const svc::JsonValue* unit = item->get("unit");
    const svc::JsonValue* better = item->get("better");
    if (name == nullptr || !name->is_string() || unit == nullptr || !unit->is_string() ||
        better == nullptr || !better->is_string() ||
        (better->as_string() != "higher" && better->as_string() != "lower")) {
      error = std::string{"BENCHMARK.json: malformed entry in \""} + key + "\"";
      return false;
    }
    MetricSpec m;
    m.name = name->as_string();
    m.unit = unit->as_string();
    m.higher_is_better = better->as_string() == "higher";
    m.per_layer = per_layer;
    if (!per_layer) {
      const svc::JsonValue* bound = item->get("bound");
      if (bound == nullptr || !bound->is_number() || bound->as_number() <= 0.0) {
        error = "BENCHMARK.json: end_to_end metric \"" + m.name + "\" needs a positive bound";
        return false;
      }
      m.bound = bound->as_number();
    }
    if (out.find(m.name) != nullptr) {
      error = "BENCHMARK.json: metric \"" + m.name + "\" declared twice";
      return false;
    }
    out.metrics.push_back(std::move(m));
  }
  return true;
}

}  // namespace

bool load_benchmark(const std::string& path, BenchmarkDecl& out, std::string& error) {
  out = BenchmarkDecl{};
  std::string text;
  if (!read_text(path, text)) {
    error = "cannot read " + path;
    return false;
  }
  const auto root = svc::json_parse(text, error);
  if (root == nullptr) {
    error = path + ": " + error;
    return false;
  }
  const svc::JsonValue* workloads = root->get("workloads");
  if (workloads == nullptr || !workloads->is_array()) {
    error = "BENCHMARK.json: \"workloads\" must be an array";
    return false;
  }
  for (const auto& w : workloads->items()) {
    const svc::JsonValue* name = w->get("name");
    if (name == nullptr || !name->is_string()) {
      error = "BENCHMARK.json: workload without a name";
      return false;
    }
    out.workloads.push_back(name->as_string());
  }
  return load_metric_list(*root, "end_to_end", false, out, error) &&
         load_metric_list(*root, "per_layer", true, out, error);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument{"percentile of no samples"};
  std::sort(v.begin(), v.end());
  const double idx = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double t = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - t) + v[hi] * t;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument{"quartiles of no samples"};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0]};
  // statistics.quantiles(data, n=4, method="exclusive"), integer for integer.
  const long n = 4;
  const long m = ld + 1;
  double q[2] = {0.0, 0.0};
  const long which[2] = {1, 3};
  for (int k = 0; k < 2; ++k) {
    const long i = which[k];
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    q[k] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           static_cast<double>(n);
  }
  return {q[0], q[1]};
}

Summary summarize(std::span<const double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::vector<double> v(samples.begin(), samples.end());
  s.n = v.size();
  s.median = median(v);
  const Quartiles q = quartiles(v);
  s.q1 = q.q1;
  s.q3 = q.q3;
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  return s;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string{buf, res.ptr};
}

}  // namespace lbchat::e2e
