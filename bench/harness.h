// Shared campaign harness for the paper-reproduction benches.
//
// Every bench binary (one per table/figure) asks the harness for the runs it
// needs; results are cached on disk under .bench_cache keyed by a fingerprint
// of the full scenario configuration + approach, so `for b in build/bench/*`
// trains each (approach x configuration) exactly once and later binaries
// reuse the models. Online-evaluation results are cached the same way.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/registry.h"
#include "common/stats.h"
#include "engine/fleet.h"
#include "engine/metrics.h"
#include "eval/online.h"

namespace lbchat::bench {

/// The approaches Fig. 2, the receiving-rate statistic and Tables II/III
/// compare, as registry names in the paper's column order.
inline constexpr std::array<std::string_view, 5> kPaperApproaches{"ProxSkip", "RSU-L",
                                                                  "DFL-DDS", "DP", "LbChat"};

/// The bench-scale scenario shared by all experiments (the paper's setup
/// scaled to a single CPU core; see DESIGN.md for the mapping). The
/// LBCHAT_BENCH_SCALE env var (default 1.0, must be > 0.01) scales the
/// training horizon; LBCHAT_THREADS (an integer in [0, 256]) sets the
/// worker lanes.
[[nodiscard]] engine::ScenarioConfig default_scenario(bool wireless_loss);

/// The online-evaluation configuration matched to default_scenario.
[[nodiscard]] eval::EvalConfig default_eval_config();

/// Cacheable outcome of one training run.
struct CachedRun {
  TimeSeries loss_curve;
  /// Honest- / attacker-cohort eval-loss splits (empty unless the run had an
  /// adversary configured — see engine::RunMetrics).
  TimeSeries honest_loss_curve;
  TimeSeries attacker_loss_curve;
  engine::TransferStats transfers;
  std::vector<std::vector<float>> final_params;
  long train_steps = 0;
};

/// Deterministic fingerprint of a scenario (all fields) + strategy name +
/// non-default strategy options (registry-canonicalized; default or absent
/// options leave the key unchanged, so pre-registry cache entries survive).
[[nodiscard]] std::uint64_t run_fingerprint(const engine::ScenarioConfig& cfg,
                                            std::string_view strategy,
                                            const baselines::StrategyOptions& options = {});

/// Run the campaign entry (or load it from .bench_cache). Prints a one-line
/// progress note to stderr when an actual run is required.
[[nodiscard]] CachedRun run_or_load(const engine::ScenarioConfig& cfg,
                                    std::string_view strategy,
                                    const baselines::StrategyOptions& options = {});

/// Per-task driving success rates (percent) of a strategy's final models
/// (default options): `models_to_eval` vehicles spread across the fleet are
/// deployed on the testing autopilot and their success rates averaged. Cached.
[[nodiscard]] std::array<double, 5> success_rates_or_load(const engine::ScenarioConfig& cfg,
                                                          std::string_view strategy,
                                                          const CachedRun& run,
                                                          int models_to_eval = 5);

/// One column of a paper-style success-rate table (an approach/variant).
struct SuccessColumn {
  std::string name;
  std::array<double, 5> rates;  ///< percent, indexed by eval::DrivingTask
};

/// Print a table in the paper's layout: tasks as rows, approaches as columns.
void print_paper_table(const std::string& title, const std::vector<SuccessColumn>& columns);

/// Print a loss-vs-time series block (for the figure benches).
void print_loss_series(const std::string& label, const TimeSeries& series);

/// printf-style append to `out`. The sweep benches build their BENCH_*.json
/// text in memory and write it only after the sweep, so a run that dies
/// mid-sweep leaves no truncated file behind.
void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

/// Write `text` to `path`; on failure print "cannot write <path>" to stderr
/// and exit with status 1.
void write_or_exit(const char* path, std::string_view text);

}  // namespace lbchat::bench
