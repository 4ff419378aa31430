// Scenario configuration for a collaborative-training run (paper §IV-A).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "coreset/coreset.h"
#include "engine/adversary.h"
#include "engine/faults.h"
#include "net/wireless.h"
#include "nn/policy.h"
#include "sim/world.h"

namespace lbchat::engine {

/// Opt-in int8 forward-only inference for the evaluation-side model calls
/// (DESIGN.md §15): with `enabled`, every scoring call site — LbChat's value
/// scoring (Eq. (7)/(8) losses and the phi-mapping samples) and the engine's
/// per-vehicle eval sweep — scores an int8 snapshot instead of the float
/// model, through the same scoring templates. Off by default and bit-inert
/// when off: default-configured runs hash, checkpoint, and evaluate exactly
/// as before. When enabled, loss trajectories change (quantized eval
/// numerics), so the knob joins the scenario fingerprint and the checkpoint
/// config fingerprint via a conditional tail like the adversary block.
struct Int8EvalConfig {
  bool enabled = false;

  /// The same as `enabled`; the spelling bench/e2e reads.
  [[nodiscard]] bool scores_values() const { return enabled; }

  friend constexpr bool operator==(const Int8EvalConfig&, const Int8EvalConfig&) = default;
};

struct ScenarioConfig {
  std::uint64_t seed = 1;
  int num_vehicles = 16;  ///< paper: 32 expert autopilots (scaled down)
  /// Worker lanes for the per-vehicle training/eval loops: 0 = hardware
  /// concurrency, 1 = sequential. Runs are bit-identical for any value
  /// (every vehicle owns its Rng/ParamStore), so this is a pure wall-clock
  /// knob and is deliberately excluded from the bench cache fingerprint.
  int num_threads = 1;

  sim::WorldConfig world{};
  net::RadioConfig radio{};
  net::WireSizeModel wire{};
  /// Case (b) "with wireless loss" vs case (a) without (Fig. 2a/2b,
  /// Tables II/III).
  bool wireless_loss = true;

  // --- Local data collection phase (paper: 1 h at 2 fps; scaled down) ---
  double collect_duration_s = 600.0;
  double collect_fps = 2.0;
  /// Fraction of each vehicle's collected frames held out as its local
  /// validation set (used by the DP baseline's loss-based merging).
  double validation_fraction = 0.1;
  /// Frames per vehicle contributed to the shared held-out evaluation set
  /// that the loss-vs-time curves are measured on.
  int eval_frames_per_vehicle = 12;

  // --- Training phase ---
  double duration_s = 2400.0;
  double tick_s = 0.5;
  double train_interval_s = 4.0;  ///< one local SGD batch per vehicle per interval
  int batch_size = 32;            ///< paper: 64 at full scale
  double learning_rate = 1e-3;    ///< Adam step size (paper: 1e-4 at full scale)
  double eval_interval_s = 120.0;

  // --- Protocol parameters ---
  double time_budget_s = 15.0;  ///< T_B of Eq. (7)
  std::size_t coreset_size = 150;
  /// Minimum time between two chats of the same vehicle pair, so a fleet
  /// does not spend the whole contact re-exchanging with one neighbour.
  double pair_cooldown_s = 45.0;
  /// Penalty coefficient lambda_c of Eq. (7) (units: normalized-loss/second).
  double lambda_c = 0.0005;
  /// Give-up timer: a session older than this is abandoned (covers stalled
  /// transfers on a nearly-dead link; the paper's deadlock note, §III-A).
  double session_timeout_s = 60.0;
  /// How often a vehicle rebuilds its coreset from scratch with Algorithm 1
  /// (between rebuilds, the merge-reduce fast path keeps it fresh).
  double coreset_rebuild_interval_s = 240.0;

  nn::PolicyConfig policy{};
  coreset::PenaltyConfig penalty{};

  /// Fault model (interference bursts, vehicle churn, payload corruption,
  /// chat backoff). All off by default: a default-constructed FaultConfig
  /// leaves every run bit-identical to an engine without fault injection.
  FaultConfig faults{};

  /// Byzantine-peer model (engine/adversary.h): a seeded subset of vehicles
  /// mutates its outgoing payloads — sign-flipped models, inflated coreset
  /// weights, lying assist info — all CRC-valid on the wire. Off by default
  /// (bit-inert, and absent from the checkpoint config fingerprint when off).
  AdversaryConfig adversary{};
  /// Fleet heterogeneity (engine/adversary.h): compute stragglers, slow
  /// radios, skewed dataset sizes. Off by default with the same bit-inertness
  /// contract as the adversary layer.
  HeteroConfig hetero{};

  /// Int8 evaluation path (above). Off by default; bit-inert when off.
  Int8EvalConfig int8_eval{};
};

/// One-line metro fleet: grow the scenario to `num_vehicles` while holding
/// density constant. The town is tiled by sqrt(count ratio) — map extent,
/// urban grid and rural ring all scale with the tile factor, background
/// traffic with the count ratio. The engine's tick needs no switch to scale
/// (DESIGN.md §11). Exposed to the CLI as --num-vehicles.
inline void apply_metro_scale(ScenarioConfig& cfg, int num_vehicles) {
  const double f =
      static_cast<double>(std::max(num_vehicles, 1)) / std::max(cfg.num_vehicles, 1);
  const double tile = std::sqrt(f);
  sim::TownConfig& town = cfg.world.town;
  town.extent_m *= tile;
  town.urban_grid = std::max(2, static_cast<int>(std::lround(town.urban_grid * tile)));
  town.rural_ring_nodes =
      std::max(6, static_cast<int>(std::lround(town.rural_ring_nodes * tile)));
  cfg.world.num_background_cars =
      static_cast<int>(std::lround(cfg.world.num_background_cars * f));
  cfg.world.num_pedestrians = static_cast<int>(std::lround(cfg.world.num_pedestrians * f));
  cfg.num_vehicles = std::max(num_vehicles, 1);
}

}  // namespace lbchat::engine
