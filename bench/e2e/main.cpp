// lbchat_e2e: the repository's end-to-end benchmark. README.md describes the
// workloads, the metrics and how to run, trace and diff it.
//
//   lbchat_e2e [--workload W] [--seed S] [--seconds T | --repeats N]
//              [--trace 0|1] [--out FILE] [--benchmark BENCHMARK.json] [--smoke]
//
// Every measured run is a fresh child process (this binary re-executed with
// --child), run one at a time. The last line of stdout is one JSON object
// with "correct", "attempted", "failed" and "metrics"; the exit status is
// non-zero when any check failed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "child.h"
#include "nn/kernel_dispatch.h"
#include "report.h"
#include "svc/json.h"
#include "workloads.h"

namespace lbchat::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kDefaultRepeats = 3;
constexpr int kMaxRounds = 20;
/// A child that runs longer than this is killed (its run counts as failed).
constexpr unsigned kChildAlarmS = 170;

struct Options {
  std::optional<Workload> workload;  ///< unset: all four
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< measuring budget per workload; 0 = use repeats
  int repeats = 0;       ///< measured rounds per workload; 0 = default
  int trace = -1;        ///< -1: timed rounds and the traced run; 0 or 1: only that part
  std::string out;
  std::string benchmark = "BENCHMARK.json";
  bool smoke = false;
  std::string child;  ///< "sim" or "svc" in a child process
  int index = 0;
  bool check = false;       ///< sim child: stop at check_horizon()
  bool setup_only = false;  ///< sim child: stop after set-up
};

void usage() {
  std::fputs(
      "usage: lbchat_e2e [--workload lbchat16|dp16|lbchat16_int8|svc_mixed] [--seed S]\n"
      "                  [--seconds T | --repeats N] [--trace 0|1] [--out FILE]\n"
      "                  [--benchmark BENCHMARK.json] [--smoke]\n",
      stderr);
}

bool parse_uint(const char* s, unsigned long long max, unsigned long long& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0' && out <= max;
}

bool parse_args(int argc, char** argv, Options& o, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto need = [&](bool ok) {
      if (!ok) error = "bad or missing value for " + a;
      return ok;
    };
    unsigned long long n = 0;
    if (a == "--smoke" || a == "--check" || a == "--setup-only") {
      (a == "--smoke" ? o.smoke : a == "--check" ? o.check : o.setup_only) = true;
      continue;
    }
    if (v == nullptr) {
      error = "missing value for " + a;
      return false;
    }
    ++i;
    if (a == "--workload") {
      o.workload = parse_workload(v);
      if (!need(o.workload.has_value())) return false;
    } else if (a == "--seed") {
      if (!need(parse_uint(v, 1ull << 40, n))) return false;
      o.seed = n;
    } else if (a == "--seconds") {
      if (!need(parse_uint(v, 3600, n) && n > 0)) return false;
      o.seconds = static_cast<double>(n);
    } else if (a == "--repeats") {
      if (!need(parse_uint(v, kMaxRounds, n) && n > 0)) return false;
      o.repeats = static_cast<int>(n);
    } else if (a == "--trace") {
      if (!need(parse_uint(v, 1, n))) return false;
      o.trace = static_cast<int>(n);
    } else if (a == "--out") {
      o.out = v;
    } else if (a == "--benchmark") {
      o.benchmark = v;
    } else if (a == "--child") {
      o.child = v;
      if (!need(o.child == "sim" || o.child == "svc")) return false;
    } else if (a == "--index") {
      if (!need(parse_uint(v, 1000, n))) return false;
      o.index = static_cast<int>(n);
    } else {
      error = "unknown argument " + a;
      return false;
    }
  }
  if (o.seconds > 0.0 && o.repeats > 0) {
    error = "--seconds and --repeats are exclusive";
    return false;
  }
  if (o.repeats == 0 && o.seconds == 0.0) o.repeats = o.smoke ? 1 : kDefaultRepeats;
  return true;
}

/// Outcome of one child process.
struct ChildResult {
  bool ok = false;  ///< exited 0 with a parsable answer reporting no failure
  std::string error;
  double wall_s = 0.0;  ///< spawn to exit
  double maxrss_mb = 0.0;
  std::map<std::string, double> num;
  std::string digest;        ///< whole run; absent for a check run
  std::string state_digest;  ///< full state at check_horizon()

  [[nodiscard]] double get(const std::string& key) const {
    const auto it = num.find(key);
    return it == num.end() ? NAN : it->second;
  }
};

ChildResult spawn_child(const std::vector<std::string>& args) {
  ChildResult r;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    r.error = std::string{"pipe: "} + std::strerror(errno);
    return r;
  }
  std::vector<char*> argv;
  static char kName[] = "lbchat_e2e";
  argv.push_back(kName);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    r.error = std::string{"fork: "} + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return r;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::read(fds[0], buf, sizeof buf);
    if (got > 0) {
      out.append(buf, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.wall_s = since(t0);
  r.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.error = WIFSIGNALED(status) ? "killed by signal " + std::to_string(WTERMSIG(status))
                                  : "exit status " + std::to_string(WEXITSTATUS(status));
    return r;
  }
  std::string error;
  const auto root = svc::json_parse(out, error);
  if (root == nullptr || !root->is_object()) {
    r.error = "unparsable child answer: " + error;
    return r;
  }
  for (const auto& [key, value] : root->members()) {
    if (value->is_number()) r.num[key] = value->as_number();
  }
  for (auto [key, into] :
       {std::pair{"digest", &r.digest}, std::pair{"state_digest", &r.state_digest}}) {
    const svc::JsonValue* v = root->get(key);
    if (v != nullptr && v->is_string()) *into = v->as_string();
  }
  const svc::JsonValue* child_error = root->get("error");
  r.error = child_error != nullptr && child_error->is_string() ? child_error->as_string() : "";
  r.ok = r.get("failed") == 0.0;
  return r;
}

struct RunRecord {
  std::string kind;
  int round = 0;
  int index = 0;
  double wall_s = 0.0;
  double maxrss_mb = 0.0;
};

/// One round's end-to-end values, as measured.
struct RoundValues {
  double wall_ms_per_sim_s = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// The digests every run of one sim scenario must reproduce: the first
/// ones seen.
struct RefDigests {
  std::string run;
  std::string state;
};

struct WorkloadOutcome {
  Workload workload = Workload::kLbChat16;
  std::map<std::string, std::vector<double>> samples;  ///< end-to-end, one per round
  std::map<std::string, double> layers;                ///< per-layer, from the traced run
  long ops = 0;
  long failed = 0;
  int rounds = 0;
  std::vector<std::string> errors;
  std::vector<RunRecord> runs;
  Clock::time_point started = Clock::now();

  void failure(const std::string& why, long count = 1) {
    failed += count;
    errors.push_back(why);
    std::fprintf(stderr, "lbchat_e2e: %s: FAILED: %s\n",
                 std::string{workload_name(workload)}.c_str(), why.c_str());
  }

  void add_round(const RoundValues& v) {
    samples["wall_ms_per_sim_s"].push_back(v.wall_ms_per_sim_s);
    samples["setup_s"].push_back(v.setup_s);
    samples["peak_rss_mb"].push_back(v.peak_rss_mb);
  }
};

class Runner {
 public:
  explicit Runner(const Options& o) : o_(o) {}

  WorkloadOutcome run(Workload w) const {
    WorkloadOutcome out;
    out.workload = w;
    if (w == Workload::kSvcMixed) {
      run_svc(out);
    } else {
      run_sim(out);
    }
    return out;
  }

 private:
  /// Runs one child; `label` is "timed", "check", "setup", "plain", "traced"
  /// or "batch".
  ChildResult child(WorkloadOutcome& out, const char* kind, int index, int round,
                    const std::string& label) const {
    std::vector<std::string> args = {"--child", kind,
                                     "--workload", std::string{workload_name(out.workload)},
                                     "--seed", std::to_string(o_.seed),
                                     "--index", std::to_string(index),
                                     "--trace", label == "traced" ? "1" : "0"};
    if (o_.smoke) args.emplace_back("--smoke");
    if (label == "check") args.emplace_back("--check");
    if (label == "setup") args.emplace_back("--setup-only");
    ChildResult r = spawn_child(args);
    out.runs.push_back({label, round, index, r.wall_s, r.maxrss_mb});
    return r;
  }

  /// Whether to measure another round after `done` rounds: --repeats fixes
  /// the count; with --seconds, rounds go on while the next one (taking as
  /// long as the last, `last_s`) still ends within the budget.
  [[nodiscard]] bool another_round(int done, double elapsed_s, double last_s) const {
    if (o_.repeats > 0) return done < o_.repeats;
    return done == 0 || (done < kMaxRounds && elapsed_s + last_s <= o_.seconds);
  }

  void run_sim(WorkloadOutcome& out) const {
    std::vector<RefDigests> refs(static_cast<std::size_t>(scenarios_per_round(out.workload, o_.smoke)));
    if (o_.trace != 1) timed_rounds(out, refs);
    if (o_.trace != 0) trace_phase(out, 0, refs[0]);
  }

  /// Measured rounds: each runs every sub-scenario to its horizon, then
  /// sub-scenario 0 again up to check_horizon() (the check run), then
  /// kSetupRuns children that only set up, one child at a time (a closed
  /// loop of one client), and gives one sample of each end-to-end metric.
  /// The check run's state digest must match the first run's, so even a
  /// single round checks determinism. Towns differ in set-up cost, so
  /// setup_s is the mean over towns of the median of each town's set-ups
  /// in the round (four each with two towns); a median over all of them
  /// would jump between towns.
  void timed_rounds(WorkloadOutcome& out, std::vector<RefDigests>& refs) const {
    constexpr int kSetupRuns = 5;
    const int m = static_cast<int>(refs.size());
    const int children = m + 1 + kSetupRuns;
    double last_round_s = 0.0;
    for (int round = 0; another_round(round, since(out.started), last_round_s); ++round) {
      const auto t_round = Clock::now();
      std::vector<std::vector<double>> setups(static_cast<std::size_t>(m));
      std::vector<double> rss;
      double run_wall_s = 0.0, sim_s = 0.0;
      int ok = 0;
      for (int k = 0; k < children; ++k) {
        const char* label = k < m ? "timed" : k == m ? "check" : "setup";
        const int index = k % m;
        const ChildResult r = child(out, "sim", index, round, label);
        ++out.ops;
        if (!check_run(out, r, refs[static_cast<std::size_t>(index)],
                       std::string{label} + " run " + std::to_string(k) + " of round " +
                           std::to_string(round))) {
          continue;
        }
        ++ok;
        setups[static_cast<std::size_t>(index)].push_back(r.get("setup_s"));
        if (k >= m) continue;
        rss.push_back(r.maxrss_mb);
        run_wall_s += r.get("run_wall_s");
        sim_s += r.get("sim_s");
      }
      if (ok == children) {
        double setup_s = 0.0;
        for (const std::vector<double>& town : setups) setup_s += median(town) / m;
        out.add_round({1000.0 * run_wall_s / sim_s, setup_s,
                       *std::max_element(rss.begin(), rss.end())});
      }
      ++out.rounds;
      last_round_s = since(t_round);
    }
  }

  /// Counts a failed run or one whose digests differ from `ref` (the first
  /// ones seen for the scenario, recorded here). A check run has only the
  /// state digest.
  static bool check_run(WorkloadOutcome& out, const ChildResult& r, RefDigests& ref,
                        const std::string& what) {
    if (!r.ok) {
      out.failure(what + ": " + r.error);
      return false;
    }
    for (auto [seen, want, name] : {std::tuple{&r.digest, &ref.run, "output"},
                                    std::tuple{&r.state_digest, &ref.state, "state"}}) {
      if (seen->empty()) continue;
      if (want->empty()) *want = *seen;
      if (*seen != *want) {
        out.failure(what + ": " + name + " digest " + *seen + " differs from " + *want);
        return false;
      }
    }
    return true;
  }

  /// The traced part of a workload on scenario `index`: pairs of a plain and
  /// a traced run, in alternating order so that a drift in machine speed
  /// cancels; the median of the pairs' traced/plain run-wall ratios gives
  /// the tracing overhead. The layer metrics come from the first traced
  /// run. There are two pairs (one with --smoke); with --seconds there is
  /// one, and more follow while the budget lasts, up to ten. Returns the
  /// plain runs' job times (FleetSim construction to finalize).
  std::vector<double> trace_phase(WorkloadOutcome& out, int index, RefDigests& ref) const {
    const bool budgeted = o_.seconds > 0.0;
    const int min_pairs = o_.smoke || budgeted ? 1 : 2;
    constexpr int kMaxPairs = 10;
    std::vector<double> plain_job_walls, ratios;
    bool have_layers = false;
    double last_pair_s = 0.0;
    for (int i = 0; i < min_pairs || (budgeted && i < kMaxPairs &&
                                      since(out.started) + last_pair_s <= o_.seconds);
         ++i) {
      const auto t_pair = Clock::now();
      double run_wall[2] = {NAN, NAN};  // plain, traced
      for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
        const ChildResult r = child(out, "sim", index, i, traced ? "traced" : "plain");
        ++out.ops;
        if (!check_run(out, r, ref, traced ? "traced run" : "plain run")) continue;
        run_wall[traced ? 1 : 0] = r.get("run_wall_s");
        if (!traced) plain_job_walls.push_back(r.get("job_wall_s"));
        if (traced && !have_layers) {
          copy_layers(r, out);
          have_layers = true;
        }
      }
      if (run_wall[0] > 0.0 && run_wall[1] > 0.0) ratios.push_back(run_wall[1] / run_wall[0]);
      last_pair_s = since(t_pair);
    }
    if (!ratios.empty()) out.layers["trace.overhead_pct"] = 100.0 * (median(ratios) - 1.0);
    return plain_job_walls;
  }

  void run_svc(WorkloadOutcome& out) const {
    const SvcBatch batch = svc_batch(o_.seed, o_.smoke);
    std::vector<double> makespans;
    double last_round_s = 0.0;
    // The traced part needs one batch, for the service-layer metrics.
    for (int round = 0; another_round(round, since(out.started), last_round_s) &&
                        (o_.trace != 1 || round == 0);
         ++round) {
      const auto t_round = Clock::now();
      const ChildResult r = child(out, "svc", 0, round, "batch");
      out.ops += static_cast<long>(batch.jobs.size());
      ++out.rounds;
      last_round_s = since(t_round);
      if (!r.ok) {
        const double failed = r.get("failed");
        out.failure("batch of round " + std::to_string(round) + ": " + r.error,
                    std::isfinite(failed) && failed > 0.0 ? static_cast<long>(failed)
                                                          : static_cast<long>(batch.jobs.size()));
        continue;
      }
      const double makespan = r.get("makespan_s");
      makespans.push_back(makespan);
      out.add_round({1000.0 * makespan / r.get("sim_s"), r.get("setup_s"), r.maxrss_mb});
      if (round == 0) copy_layers(r, out);
    }
    if (o_.trace == 0) return;

    // The other layers' metrics come from standalone runs of the batch's
    // first LbChat job (traced) and first DP job. Their job times (what an
    // engine::JobRunner spends on the job unsliced) give the share of the
    // workers' time the batch kept busy.
    RefDigests lbchat_ref, dp_ref;
    const std::vector<double> lbchat_walls = trace_phase(out, 0, lbchat_ref);
    const ChildResult dp = child(out, "sim", 1, 0, "plain");
    ++out.ops;
    if (!check_run(out, dp, dp_ref, "plain DP job run") || lbchat_walls.empty() ||
        makespans.empty()) {
      return;
    }
    double busy_s = 0.0;
    for (const SvcJob& job : batch.jobs) {
      busy_s += job.lbchat ? median(lbchat_walls) : dp.get("job_wall_s");
    }
    out.layers["svc.worker_busy_share"] = busy_s / (batch.workers * median(makespans));
  }

  /// Per-layer values a child reported: every dotted name.
  static void copy_layers(const ChildResult& r, WorkloadOutcome& out) {
    for (const auto& [k, v] : r.num) {
      if (k.find('.') != std::string::npos) out.layers[k] = v;
    }
  }

  const Options& o_;
};

/// Value of every declared metric a workload produced: end-to-end metrics
/// as the median over rounds.
std::map<std::string, double> final_values(const WorkloadOutcome& w) {
  std::map<std::string, double> v = w.layers;
  for (const auto& [name, s] : w.samples) {
    if (!s.empty()) v[name] = median(s);
  }
  return v;
}

/// Whether the run prints `m`: --trace 0 prints the end-to-end metrics,
/// --trace 1 the per-layer ones, and without --trace both.
bool emitted(const Options& o, const MetricSpec& m) {
  return o.trace < 0 || (o.trace == 1) == m.per_layer;
}

/// Checks that every declared metric the workload measures for the emitted
/// part is present and finite (end-to-end metrics also non-zero); a missing
/// one is a failed operation, so the benchmark cannot rot silently.
void check_declared(const BenchmarkDecl& decl, const Options& o, WorkloadOutcome& w) {
  const std::map<std::string, double> values = final_values(w);
  for (const MetricSpec& m : decl.metrics) {
    if (!emitted(o, m) || !measures(w.workload, m.name)) continue;
    const auto it = values.find(m.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      w.failure("metric " + m.name + " is missing or not finite");
    } else if (!m.per_layer && it->second <= 0.0) {
      w.failure("end-to-end metric " + m.name + " is not positive");
    }
  }
}

std::string stamp_json(const Options& o) {
  std::string s = "{\"git_sha\":\"" + svc::json_escape(LBCHAT_GIT_SHA) + "\"";
  s += ",\"build_type\":\"" + svc::json_escape(LBCHAT_BUILD_TYPE) + "\"";
  s += ",\"kernel_path\":\"" + std::string{nn::kernel_path_name(nn::active_kernel_path())} + "\"";
  s += ",\"sim_lanes\":" + std::to_string(kSimLanes);
  s += ",\"svc_workers\":" + std::to_string(svc_batch(o.seed, o.smoke).workers);
  s += ",\"svc_lanes_per_worker\":1";
  s += ",\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  s += ",\"seed\":" + std::to_string(o.seed);
  s += ",\"repeats\":" + std::to_string(o.repeats);
  s += ",\"seconds\":" + fmt_num(o.seconds);
  s += std::string{",\"smoke\":"} + (o.smoke ? "true" : "false") + "}";
  return s;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ',';
    s += fmt_num(v[i]);
  }
  return s + "]";
}

std::string results_json(const Options& o, const BenchmarkDecl& decl,
                         const std::vector<WorkloadOutcome>& all) {
  std::string s = "{\n\"stamp\":" + stamp_json(o) + ",\n\"workloads\":{";
  bool first_w = true;
  for (const WorkloadOutcome& w : all) {
    s += first_w ? "\n" : ",\n";
    first_w = false;
    s += "\"" + std::string{workload_name(w.workload)} + "\":{\"ops\":" + std::to_string(w.ops) +
         ",\"failed_ops\":" + std::to_string(w.failed) + ",\"rounds\":" +
         std::to_string(w.rounds) + ",\n \"metrics\":{";
    bool first = true;
    for (const MetricSpec& m : decl.metrics) {
      if (m.per_layer) continue;
      const auto it = w.samples.find(m.name);
      if (it == w.samples.end() || it->second.empty()) continue;
      const Summary sum = summarize(it->second);
      s += first ? "\n  " : ",\n  ";
      first = false;
      s += "\"" + m.name + "\":{\"unit\":\"" + m.unit + "\",\"median\":" + fmt_num(sum.median) +
           ",\"q1\":" + fmt_num(sum.q1) + ",\"q3\":" + fmt_num(sum.q3) +
           ",\"min\":" + fmt_num(sum.min) + ",\"max\":" + fmt_num(sum.max) +
           ",\"n\":" + std::to_string(sum.n) + ",\"samples\":" + json_list(it->second) + "}";
    }
    s += "},\n \"layers\":{";
    first = true;
    for (const MetricSpec& m : decl.metrics) {
      const auto it = w.layers.find(m.name);
      if (!m.per_layer || it == w.layers.end()) continue;
      s += first ? "\n  " : ",\n  ";
      first = false;
      s += "\"" + m.name + "\":{\"unit\":\"" + m.unit + "\",\"value\":" + fmt_num(it->second) +
           "}";
    }
    s += "},\n \"runs\":[";
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
      const RunRecord& r = w.runs[i];
      if (i != 0) s += ',';
      s += "\n  {\"kind\":\"" + r.kind +
           "\",\"round\":" + std::to_string(r.round) + ",\"index\":" + std::to_string(r.index) +
           ",\"wall_s\":" + fmt_num(r.wall_s) + ",\"maxrss_mb\":" + fmt_num(r.maxrss_mb) + "}";
    }
    s += "],\n \"errors\":[";
    for (std::size_t i = 0; i < w.errors.size(); ++i) {
      if (i != 0) s += ',';
      s += '"';
      s += svc::json_escape(w.errors[i]);
      s += '"';
    }
    s += "]}";
  }
  s += "\n}}\n";
  return s;
}

/// Directory of this binary: the svc_mixed child keeps its job root there,
/// inside the build tree.
std::string binary_dir() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string{"."} : exe.parent_path().string();
}

int run_parent(const Options& o) {
  BenchmarkDecl decl;
  std::string error;
  if (!load_benchmark(o.benchmark, decl, error)) {
    std::fprintf(stderr, "lbchat_e2e: %s\n", error.c_str());
    return 2;
  }
  std::vector<Workload> todo;
  if (o.workload) {
    todo.push_back(*o.workload);
  } else {
    todo.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
  }
  for (const Workload w : todo) {
    bool declared = false;
    for (const std::string& name : decl.workloads) declared = declared || name == workload_name(w);
    if (!declared) {
      std::fprintf(stderr, "lbchat_e2e: workload %s is not declared in %s\n",
                   std::string{workload_name(w)}.c_str(), o.benchmark.c_str());
      return 2;
    }
  }

  std::printf("stamp %s\n", stamp_json(o).c_str());
  const Runner runner{o};
  std::vector<WorkloadOutcome> all;
  long ops = 0, failed = 0;
  std::string metrics_json;
  for (const Workload w : todo) {
    WorkloadOutcome out = runner.run(w);
    check_declared(decl, o, out);
    const std::string wname{workload_name(w)};
    std::printf("workload %s rounds %d ops %ld failed_ops %ld\n", wname.c_str(), out.rounds,
                out.ops, out.failed);
    const std::map<std::string, double> values = final_values(out);
    for (const MetricSpec& m : decl.metrics) {
      if (!emitted(o, m)) continue;
      const auto it = values.find(m.name);
      double value = 0.0;
      if (it != values.end()) {
        value = it->second;
        std::printf("%s %s %s\n", m.name.c_str(), fmt_num(value).c_str(), m.unit.c_str());
        if (!std::isfinite(value)) continue;
      } else if (measures(w, m.name)) {
        continue;  // already counted as a failure by check_declared
      }
      // The result line carries every declared metric of the printed part,
      // as BENCHMARK.json's runner expects; one the workload does not
      // measure (see measures()) reads 0 there only.
      const std::string key = todo.size() == 1 ? m.name : wname + "/" + m.name;
      metrics_json += std::string{metrics_json.empty() ? "" : ","} + "\"" + key +
                      "\":{\"value\":" + fmt_num(value) + ",\"unit\":\"" + m.unit + "\"}";
    }
    ops += out.ops;
    failed += out.failed;
    all.push_back(std::move(out));
  }
  if (!o.out.empty()) {
    std::FILE* f = std::fopen(o.out.c_str(), "wb");
    const std::string text = results_json(o, decl, all);
    const bool ok = f != nullptr && std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (f == nullptr || std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "lbchat_e2e: cannot write %s\n", o.out.c_str());
      ++failed;
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":{%s}}\n",
              failed == 0 ? "true" : "false", std::max(ops, 1L), failed, metrics_json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lbchat::e2e

int main(int argc, char** argv) {
  using namespace lbchat::e2e;
  Options o;
  std::string error;
  if (!parse_args(argc, argv, o, error)) {
    std::fprintf(stderr, "lbchat_e2e: %s\n", error.c_str());
    usage();
    return 2;
  }
  if (o.child.empty()) return run_parent(o);

  ::alarm(kChildAlarmS);
  ChildArgs args;
  args.workload = o.workload.value_or(Workload::kLbChat16);
  args.seed = o.seed;
  args.index = o.index;
  args.trace = o.trace == 1;
  args.check = o.check;
  args.setup_only = o.setup_only;
  args.smoke = o.smoke;
  args.workdir = binary_dir();
  try {
    return o.child == "svc" ? run_svc_child(args) : run_sim_child(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lbchat_e2e child: %s\n", e.what());
    return 1;
  }
}
