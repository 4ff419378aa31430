// Scenario configuration for a collaborative-training run (paper §IV-A).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

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

/// How config_fingerprint (engine/checkpoint.h) hashes a member of
/// ScenarioConfig's list, nested members included.
struct Hashing {
  bool on = true;
  /// Non-empty for a conditional tail: the bytes hashed once before its
  /// first member.
  std::string_view tail{};
};
inline constexpr Hashing kNotHashed{.on = false};

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

  /// True when the adversary or heterogeneity layer is configured: the
  /// config fingerprint and the checkpoint's kCore and kStats sections then
  /// carry their tails.
  [[nodiscard]] bool robustness_on() const { return adversary.enabled() || hetero.enabled(); }
};

/// ScenarioConfig's named member list: every member once, in config
/// fingerprint order, nested structs through the lists next to their
/// declarations (DESIGN.md §10). duration_s and num_threads stay outside the
/// config key (checkpoint.h). The robustness layers and int8 eval are
/// conditional tails, hashed behind a marker only when on; the int8 marker's
/// second byte is the former value-scoring switch, merged into `enabled`.
template <FieldsOf<ScenarioConfig> S, class F>
void config_members(S& c, F&& f) {
  f("seed", c.seed);
  f("num_vehicles", c.num_vehicles);
  f("num_threads", c.num_threads, kNotHashed);
  f("world", c.world);
  f("radio", c.radio);
  f("wire", c.wire);
  f("wireless_loss", c.wireless_loss);
  f("collect_duration_s", c.collect_duration_s);
  f("collect_fps", c.collect_fps);
  f("validation_fraction", c.validation_fraction);
  f("eval_frames_per_vehicle", c.eval_frames_per_vehicle);
  f("duration_s", c.duration_s, kNotHashed);
  f("tick_s", c.tick_s);
  f("train_interval_s", c.train_interval_s);
  f("batch_size", c.batch_size);
  f("learning_rate", c.learning_rate);
  f("eval_interval_s", c.eval_interval_s);
  f("time_budget_s", c.time_budget_s);
  f("coreset_size", c.coreset_size);
  f("pair_cooldown_s", c.pair_cooldown_s);
  f("lambda_c", c.lambda_c);
  f("session_timeout_s", c.session_timeout_s);
  f("coreset_rebuild_interval_s", c.coreset_rebuild_interval_s);
  f("policy", c.policy);
  f("penalty", c.penalty);
  f("faults", c.faults);
  const Hashing robustness{.on = c.robustness_on(), .tail = "\xAD"};
  f("adversary", c.adversary, robustness);
  f("hetero", c.hetero, robustness);
  f("int8_eval.enabled", c.int8_eval.enabled,
    Hashing{.on = c.int8_eval.enabled, .tail = "\x18\x01"});
}

/// Calls f(path, member, hashing) for every leaf of `s`'s member list, in
/// list order: a nested member by its dotted path ("world.town.extent_m")
/// and with the hashing of the top-level member it sits in.
template <class S, class F>
void for_each_member(S& s, F&& f, const std::string& prefix = {}, Hashing hashing = {}) {
  config_members(s, [&](const char* name, auto& m, const auto&... own) {
    Hashing h = hashing;
    ((h = own), ...);
    if constexpr (std::is_arithmetic_v<std::remove_reference_t<decltype(m)>>) {
      f(std::string_view{prefix + name}, m, h);
    } else {
      for_each_member(m, f, prefix + name + ".", h);
    }
  });
}

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
