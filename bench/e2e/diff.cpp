// lbchat_e2e_diff: compare two lbchat_e2e result files metric by metric.
//
//   lbchat_e2e_diff A.json B.json [--benchmark BENCHMARK.json]
//
// For every declared workload in either file and every end-to-end metric it
// prints both medians with their quartiles and a verdict for B against A,
// using the metric's direction and bound from BENCHMARK.json:
//   missing     the workload or the metric is in one file only, or a side
//               records failed operations
//   unresolved  either side has fewer than two samples, or its run-to-run
//               spread (q3 - q1) / median exceeds the bound, unless every
//               sample of B reads better than every one of A
//   worse       B is worse than A by more than the bound
//   better      B is better than A by more than the bound
//   same        otherwise
// Exit status: 0 when nothing is missing, worse or unresolved, 1 otherwise,
// 2 on bad input.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "report.h"
#include "svc/json.h"

namespace {

using lbchat::e2e::fmt_num;
using lbchat::svc::JsonValue;

std::unique_ptr<JsonValue> load(const std::string& path) {
  std::string text;
  std::string error;
  if (!lbchat::e2e::read_text(path, text)) {
    std::fprintf(stderr, "lbchat_e2e_diff: cannot read %s\n", path.c_str());
    return nullptr;
  }
  auto root = lbchat::svc::json_parse(text, error);
  if (root == nullptr || root->get("workloads") == nullptr) {
    std::fprintf(stderr, "lbchat_e2e_diff: %s is not an lbchat_e2e result: %s\n", path.c_str(),
                 error.c_str());
    return nullptr;
  }
  return root;
}

struct Side {
  double median = NAN;
  double q1 = NAN;
  double q3 = NAN;
  double min = NAN;
  double max = NAN;
  double n = 0.0;

  [[nodiscard]] double spread() const { return (q3 - q1) / std::fabs(median); }
};

/// One metric's summary from a result file; false when it is absent,
/// malformed or has a zero median.
bool read_side(const JsonValue* m, Side& s) {
  if (m == nullptr) return false;
  double v[6];
  const char* keys[6] = {"median", "q1", "q3", "min", "max", "n"};
  for (int i = 0; i < 6; ++i) {
    const JsonValue* x = m->get(keys[i]);
    if (x == nullptr || !x->is_number()) return false;
    v[i] = x->as_number();
  }
  if (v[0] == 0.0) return false;
  s = {v[0], v[1], v[2], v[3], v[4], v[5]};
  return true;
}

/// A workload's failed_ops, or -1 when the entry does not record it.
double failed_ops(const JsonValue* w) {
  const JsonValue* f = w->get("failed_ops");
  return f != nullptr && f->is_number() ? f->as_number() : -1.0;
}

/// Whether every sample of `b` reads better than every sample of `a`.
bool all_better(const Side& a, const Side& b, bool higher_is_better) {
  return higher_is_better ? b.min > a.max : b.max < a.min;
}

std::string pct(double share) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * share);
  return buf;
}

std::string cell(const Side& s) {
  return fmt_num(s.median) + " [" + fmt_num(s.q1) + ", " + fmt_num(s.q3) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  std::string paths[2];
  std::string benchmark = "BENCHMARK.json";
  int n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--benchmark" && i + 1 < argc) {
      benchmark = argv[++i];
    } else if (n < 2 && !a.empty() && a[0] != '-') {
      paths[n++] = a;
    } else {
      n = -1;
      break;
    }
  }
  if (n != 2) {
    std::fputs("usage: lbchat_e2e_diff A.json B.json [--benchmark BENCHMARK.json]\n", stderr);
    return 2;
  }
  lbchat::e2e::BenchmarkDecl decl;
  std::string error;
  if (!lbchat::e2e::load_benchmark(benchmark, decl, error)) {
    std::fprintf(stderr, "lbchat_e2e_diff: %s\n", error.c_str());
    return 2;
  }
  const auto a = load(paths[0]);
  const auto b = load(paths[1]);
  if (a == nullptr || b == nullptr) return 2;

  std::printf("%-14s %-22s %-44s %-44s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]",
              "B median [q1, q3]", "B vs A", "bound", "verdict");
  int worse = 0, unresolved = 0, missing = 0, compared = 0;
  const auto report_missing = [&](const std::string& w, const std::string& what) {
    std::printf("%-14s %-22s %s\n", w.c_str(), what.c_str(), "missing");
    ++missing;
  };
  for (const std::string& w : decl.workloads) {
    const JsonValue* wa = a->get("workloads")->get(w);
    const JsonValue* wb = b->get("workloads")->get(w);
    if (wa == nullptr && wb == nullptr) continue;  // run in neither file
    if (wa == nullptr || wb == nullptr) {
      report_missing(w, std::string{"(workload not in "} + (wa == nullptr ? "A)" : "B)"));
      continue;
    }
    for (const auto& [side, wx] : {std::pair{"A", wa}, std::pair{"B", wb}}) {
      const double f = failed_ops(wx);
      if (f != 0.0) {
        report_missing(w, std::string{"(failed_ops "} + fmt_num(f) + " in " + side + ")");
      }
    }
    const JsonValue* ma = wa->get("metrics");
    const JsonValue* mb = wb->get("metrics");
    for (const lbchat::e2e::MetricSpec& m : decl.metrics) {
      if (m.per_layer) continue;
      Side sa, sb;
      const bool in_a = ma != nullptr && read_side(ma->get(m.name), sa);
      const bool in_b = mb != nullptr && read_side(mb->get(m.name), sb);
      if (!in_a || !in_b) {
        report_missing(w, m.name);
        continue;
      }
      ++compared;
      const double change = (sb.median - sa.median) / std::fabs(sa.median);
      const double worsening = m.higher_is_better ? -change : change;
      const char* verdict = "same";
      if (sa.n < 2 || sb.n < 2) {
        verdict = "unresolved";  // one sample says nothing about the spread
        ++unresolved;
      } else if (sa.spread() > m.bound || sb.spread() > m.bound) {
        if (-worsening > m.bound && all_better(sa, sb, m.higher_is_better)) {
          verdict = "better";
        } else {
          verdict = "unresolved";
          ++unresolved;
        }
      } else if (worsening > m.bound) {
        verdict = "worse";
        ++worse;
      } else if (-worsening > m.bound) {
        verdict = "better";
      }
      std::printf("%-14s %-22s %-44s %-44s %8s %5.0f%%  %s\n", w.c_str(), m.name.c_str(),
                  cell(sa).c_str(), cell(sb).c_str(), pct(change).c_str(), 100.0 * m.bound,
                  verdict);
    }
  }
  std::printf("%d compared, %d worse, %d unresolved, %d missing\n", compared, worse, unresolved,
              missing);
  return worse == 0 && unresolved == 0 && missing == 0 ? 0 : 1;
}
