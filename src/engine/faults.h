// Deterministic fault injection for the fleet engine.
//
// The paper's robustness claim (§IV-C: LbChat holds ~87 % successful model
// receiving rate where blind baselines collapse to 51–60 %) is exercised by a
// single failure mode — leaving radio range mid-transfer. Real V2X
// deployments also face interference, churn, and corrupted payloads. This
// module models three additional fault classes, all driven from named RNG
// streams forked off the scenario seed so fault runs are reproducible
// bit-for-bit (and, because every injector call sits on the engine's
// single-threaded tick path, at any `num_threads`):
//
//  1. Radio interference bursts — timed windows in which a disc-shaped
//     region of the map suffers elevated per-packet loss (up to a full
//     blackout). Transfers whose endpoints sit inside stall or slow down.
//  2. Vehicle churn — a vehicle goes offline for a sampled duration: its
//     in-flight session aborts, it stops training and chatting, then rejoins
//     with its model/dataset/optimizer state intact.
//  3. Payload corruption — a *delivered* transfer is flagged corrupt with a
//     distance-dependent probability, modeling residual bit errors past the
//     retransmission cap. Corruption flips bits in the framed payload; the
//     CRC envelope (common/frame.h) is what lets receivers detect and
//     reject it instead of aggregating garbage.
//
// Determinism contract: with FaultConfig's defaults (all rates/probabilities
// zero) the injector consumes no randomness and perturbs nothing — runs are
// bit-identical to an engine without the fault subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/geometry.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace lbchat {
class ByteWriter;
class ByteReader;
}  // namespace lbchat

namespace lbchat::engine {

/// Fault-model knobs, all off by default. Part of ScenarioConfig.
struct FaultConfig {
  // --- Radio interference bursts ---
  /// Expected bursts spawning per minute across the whole map (0 = off).
  double burst_rate_per_min = 0.0;
  /// Mean burst duration; each burst samples uniform [0.5, 1.5] * mean.
  double burst_duration_s = 20.0;
  /// Radius of the affected disc (centre uniform over the map extent).
  double burst_radius_m = 250.0;
  /// Additional per-packet loss inside the disc; 1.0 blacks the link out.
  double burst_extra_loss = 1.0;

  // --- Vehicle churn ---
  /// Per-vehicle offline events per minute (0 = off).
  double churn_rate_per_min = 0.0;
  /// Mean offline duration; each event samples uniform [0.5, 1.5] * mean.
  double churn_offline_mean_s = 30.0;

  // --- Payload corruption ---
  /// Probability a *delivered* framed payload arrives corrupt, linear in
  /// distance between `corrupt_prob_near` (at distance 0) and
  /// `corrupt_prob_far` (at radio max range). Both 0 = off.
  double corrupt_prob_near = 0.0;
  double corrupt_prob_far = 0.0;

  // --- Graceful degradation: per-pair chat backoff ---
  /// When true, a strategy-reported pair failure (aborted session, rejected
  /// frame) multiplies that pair's chat cooldown by backoff_base per
  /// consecutive failure (capped), so a flaky pair is retried with bounded
  /// frequency instead of re-burning every contact window. Off by default:
  /// the stock protocol's behaviour is unchanged.
  bool chat_backoff = false;
  double backoff_base = 2.0;
  int backoff_max_exp = 4;

  /// True when any fault class can fire.
  [[nodiscard]] bool any_faults() const {
    return burst_rate_per_min > 0.0 || churn_rate_per_min > 0.0 || corrupt_prob_near > 0.0 ||
           corrupt_prob_far > 0.0;
  }
};

/// FaultConfig's named member list (engine/scenario.h).
template <FieldsOf<FaultConfig> S, class F>
void config_members(S& c, F&& f) {
  f("burst_rate_per_min", c.burst_rate_per_min);
  f("burst_duration_s", c.burst_duration_s);
  f("burst_radius_m", c.burst_radius_m);
  f("burst_extra_loss", c.burst_extra_loss);
  f("churn_rate_per_min", c.churn_rate_per_min);
  f("churn_offline_mean_s", c.churn_offline_mean_s);
  f("corrupt_prob_near", c.corrupt_prob_near);
  f("corrupt_prob_far", c.corrupt_prob_far);
  f("chat_backoff", c.chat_backoff);
  f("backoff_base", c.backoff_base);
  f("backoff_max_exp", c.backoff_max_exp);
}

/// Drives the three fault classes. Owned by FleetSim; advance() is called
/// once per engine tick from the single-threaded simulation loop.
class FaultInjector {
 public:
  /// `extent_m` is the map side length (burst centres are uniform over it);
  /// `seed` is the scenario seed (streams are forked by name, so the
  /// injector never perturbs other consumers).
  FaultInjector(const FaultConfig& cfg, std::uint64_t seed, double extent_m, int num_vehicles);

  /// Advance to `time` (one engine tick of length `dt`): expire and spawn
  /// bursts, process churn transitions, recording them in `events` when it
  /// is non-null (the run's log, events on). After this call, went_offline()
  /// lists the vehicles that dropped out during this tick.
  void advance(double time, double dt, obs::EventTracer* events = nullptr);

  /// Additional per-packet loss for a link between `a` and `b` (max over
  /// active bursts covering either endpoint; 0 when clear).
  [[nodiscard]] double extra_loss(const Vec2& a, const Vec2& b) const;
  /// True when extra_loss() reaches 1.0 (the link cannot make progress).
  [[nodiscard]] bool blackout(const Vec2& a, const Vec2& b) const {
    return extra_loss(a, b) >= 1.0;
  }

  [[nodiscard]] bool offline(int v) const {
    return offline_until_[static_cast<std::size_t>(v)] > 0.0;
  }
  [[nodiscard]] int offline_count() const { return offline_count_; }
  /// Vehicles that went offline during the latest advance() tick.
  [[nodiscard]] const std::vector<int>& went_offline() const { return went_offline_; }

  /// Bernoulli: is a payload delivered over `distance` (of a link with
  /// `max_range_m`) corrupt? Consumes the corruption stream only when the
  /// configured probability is positive.
  [[nodiscard]] bool corrupt_delivery(double distance, double max_range_m);

  /// Flip 1–4 bits of `payload` at positions drawn from the corruption
  /// stream (no-op on an empty payload).
  void corrupt_payload(std::vector<std::uint8_t>& payload);

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] int active_bursts() const { return static_cast<int>(bursts_.size()); }

  /// Serialize/restore the injector's mutable state (clock, RNG streams,
  /// active bursts, offline timers) into an injector constructed with the
  /// same (cfg, seed, extent, num_vehicles). load() throws std::exception on
  /// malformed input.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

 private:
  template <class Io, class S>
  static void fields(Io& io, S& f);

  struct Burst {
    Vec2 center;
    double radius_m = 0.0;
    double extra_loss = 0.0;
    double until_s = 0.0;
  };

  FaultConfig cfg_;
  double extent_m_ = 0.0;
  Rng burst_rng_;
  Rng churn_rng_;
  Rng corrupt_rng_;
  std::vector<Burst> bursts_;
  /// Per-vehicle "offline until" time; 0 = online.
  std::vector<double> offline_until_;
  std::vector<int> went_offline_;
  int offline_count_ = 0;
  double time_ = 0.0;
};

}  // namespace lbchat::engine
