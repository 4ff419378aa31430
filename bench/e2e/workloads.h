// The four workloads of the end-to-end benchmark. Every scenario is spelled
// here rather than borrowed from bench/harness, so later edits to the paper
// benches cannot move the benchmark; nothing reads LBCHAT_BENCH_SCALE,
// LBCHAT_THREADS or any cache. README.md gives the reason for each workload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/scenario.h"

namespace lbchat::e2e {

enum class Workload { kLbChat16, kDp16, kLbChat16Int8, kSvcMixed };

inline constexpr Workload kAllWorkloads[] = {Workload::kLbChat16, Workload::kDp16,
                                             Workload::kLbChat16Int8, Workload::kSvcMixed};

[[nodiscard]] std::string_view workload_name(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Whether workload `w` measures the metric called `name`. The fleet-service
/// metrics (svc.*) and the checkpoint round trip (engine.checkpoint_*) exist
/// only on svc_mixed, the one workload whose path checkpoints; every other
/// metric exists on every workload.
[[nodiscard]] bool measures(Workload w, std::string_view name);

/// Engine lanes of every sim-workload run (one process at a time, so the
/// benchmark's load stays well inside a 4-core share).
inline constexpr int kSimLanes = 2;

/// One simulation: a strategy registry name and its scenario, whose
/// duration_s is the horizon of the training loop.
struct SimCase {
  std::string strategy;
  engine::ScenarioConfig cfg;
};

/// Sub-scenarios a sim workload runs per measured round; each has its own
/// seed, so one round averages over several towns and routes.
[[nodiscard]] int scenarios_per_round(Workload w, bool smoke);

/// Sim time at which every sim run records the digest of its state (every
/// vehicle's parameters and the transfer accounting), so that a short rerun
/// up to this time can check determinism.
[[nodiscard]] double check_horizon(bool smoke);

/// Scenario `index` of workload `w` for benchmark seed `seed`: sub-scenario
/// `index` of a sim workload (scenario seed seed*1000+index), or job `index`
/// of the svc_mixed batch. Throws std::invalid_argument on a bad index.
[[nodiscard]] SimCase sim_case(Workload w, std::uint64_t seed, int index, bool smoke);

/// One job of the svc_mixed batch.
struct SvcJob {
  std::string spec;  ///< JSON job spec as submitted
  double horizon_s = 0.0;
  bool lbchat = false;  ///< LbChat, else DP
  bool events = false;
  bool preempted = false;  ///< carries preempt_at
  int priority = 0;
  int twin_of = -1;        ///< for a straight twin: the index of the preempted job it mirrors
};

struct SvcBatch {
  std::vector<SvcJob> jobs;  ///< the mixed jobs first, then the twins
  int workers = 2;
  double epoch_s = 30.0;
};

/// The closed batch svc_mixed submits at t0.
[[nodiscard]] SvcBatch svc_batch(std::uint64_t seed, bool smoke);

}  // namespace lbchat::e2e
