// Byzantine peers and fleet heterogeneity for the fleet engine.
//
// The paper's coreset-value scoring (Eq. (8)) is, implicitly, a defense: a
// vehicle judges what a peer's contribution is *worth* before merging it.
// The CRC frame envelope (common/frame.h) only catches transport damage — a
// semantically valid hostile payload sails through it untouched. This module
// supplies exactly those payloads, plus the device heterogeneity that real
// fleets face, so the robustness matrix can measure whether LbChat's scoring
// down-weights attackers where the blind baselines average them in.
//
// Two independent layers, both part of ScenarioConfig:
//
//  1. AdversaryConfig / AdversaryModel — a seeded subset of vehicles is
//     flagged Byzantine. Their outgoing payloads are mutated at
//     payload-construction time (FleetSim::queue_transfer, before the bytes
//     enter the wire): model frames are sign-flipped/scaled (optionally with
//     Gaussian noise), coreset frames have their in-coreset weights w_C
//     inflated, and assist frames carry fabricated routes/velocity and lied
//     bandwidth. Every mutation re-encodes the frame envelope, so the result
//     is CRC-valid and structurally decodable — only value scoring can catch
//     it.
//
//  2. HeteroConfig / HeteroModel — per-vehicle compute-rate multipliers
//     (stragglers train fewer steps per interval via a deterministic credit
//     accumulator), per-vehicle radio bitrate scaling (a pair's link runs at
//     min of the endpoint scales, mirroring the session rate min{B_i, B_j}),
//     and skewed per-vehicle dataset sizes (stride decimation at collection).
//
// Determinism contract (mirrors engine/faults.h): all randomness comes from
// named RNG streams forked off the scenario seed; membership and per-vehicle
// scales are derived in the constructor (never serialized); with the default
// all-off configs neither model consumes randomness nor perturbs anything —
// runs are bit-identical to an engine without this subsystem, and the
// checkpoint/config-fingerprint bytes are unchanged (conditional-tail
// pattern, engine/checkpoint.cpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "data/frame.h"

namespace lbchat {
class ByteWriter;
class ByteReader;
}  // namespace lbchat

namespace lbchat::engine {

/// Byzantine-peer knobs. All off by default; part of ScenarioConfig.
struct AdversaryConfig {
  /// Fraction of the fleet flagged Byzantine (lround(frac * n) vehicles,
  /// chosen by a seeded permutation). 0 = the whole subsystem is inert.
  double byzantine_frac = 0.0;

  // --- Composable wire behaviors (apply only to flagged senders) ---
  /// Model poisoning: transmitted sparse-model values become
  /// -poison_scale * v (+ Gaussian noise of stddev poison_noise when > 0).
  bool poison_models = true;
  double poison_scale = 3.0;
  double poison_noise = 0.0;
  /// Coreset-weight inflation: transmitted w_C entries are multiplied by
  /// coreset_inflation (bounded below the wire-validity cap), overstating
  /// the attacker's data mass to any weight-sensitive aggregator.
  bool inflate_coreset_weights = true;
  double coreset_inflation = 8.0;
  /// Lying assist info: velocity negated and route sequence reversed
  /// (fabricated trajectory), claimed bandwidth multiplied by
  /// assist_bandwidth_lie — poisons the receiver's contact estimate and
  /// priority score while staying structurally valid.
  bool lie_assist = true;
  double assist_bandwidth_lie = 4.0;

  /// True when any Byzantine behavior can fire.
  [[nodiscard]] bool enabled() const { return byzantine_frac > 0.0; }
};

/// AdversaryConfig's named member list (engine/scenario.h).
template <FieldsOf<AdversaryConfig> S, class F>
void config_members(S& a, F&& f) {
  f("byzantine_frac", a.byzantine_frac);
  f("poison_models", a.poison_models);
  f("poison_scale", a.poison_scale);
  f("poison_noise", a.poison_noise);
  f("inflate_coreset_weights", a.inflate_coreset_weights);
  f("coreset_inflation", a.coreset_inflation);
  f("lie_assist", a.lie_assist);
  f("assist_bandwidth_lie", a.assist_bandwidth_lie);
}

/// Fleet-heterogeneity knobs. All off by default; part of ScenarioConfig.
struct HeteroConfig {
  /// Fraction of vehicles that are compute stragglers (seeded permutation).
  double straggler_frac = 0.0;
  /// Straggler training rate: expected local-train steps per train interval
  /// (each straggler draws uniform [0.75, 1.25] * this, clamped to (0, 1]).
  double straggler_rate = 0.25;

  /// Fraction of vehicles with a slow radio.
  double slow_radio_frac = 0.0;
  /// Bitrate multiplier for slow radios (uniform [0.75, 1.25] * this,
  /// clamped to (0, 1]); a pair's link runs at min of the endpoint scales.
  double slow_radio_scale = 0.4;

  /// Dataset-size skew in [0, 1]: each vehicle keeps a fraction
  /// max(keep_min, 1 - skew * U[0,1)) of its collected training frames
  /// (eval/validation splits untouched). 0 = every frame kept.
  double dataset_skew = 0.0;
  double dataset_keep_min = 0.3;

  [[nodiscard]] bool enabled() const {
    return straggler_frac > 0.0 || slow_radio_frac > 0.0 || dataset_skew > 0.0;
  }
};

/// HeteroConfig's named member list (engine/scenario.h).
template <FieldsOf<HeteroConfig> S, class F>
void config_members(S& h, F&& f) {
  f("straggler_frac", h.straggler_frac);
  f("straggler_rate", h.straggler_rate);
  f("slow_radio_frac", h.slow_radio_frac);
  f("slow_radio_scale", h.slow_radio_scale);
  f("dataset_skew", h.dataset_skew);
  f("dataset_keep_min", h.dataset_keep_min);
}

/// Derived Byzantine state. Owned by FleetSim; transform_payload runs on the
/// single-threaded session path (queue_transfer), so the mutable noise
/// stream needs no synchronization.
class AdversaryModel {
 public:
  AdversaryModel(const AdversaryConfig& cfg, std::uint64_t seed, int num_vehicles);

  [[nodiscard]] bool active() const { return cfg_.enabled(); }
  [[nodiscard]] bool byzantine(int v) const {
    return byzantine_[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] int byzantine_count() const { return byzantine_count_; }

  /// Mutate a framed wire payload leaving a Byzantine sender. `kind` is the
  /// StageTag::Kind discriminator (0 assist, 1 coreset, 2 model); `bev` is
  /// the fleet BevSpec (coreset re-encode). Decodes the envelope, applies
  /// the configured behavior, and re-encodes — the result stays CRC-valid.
  /// Returns true when the payload was changed (false for behaviors that are
  /// switched off, non-protocol payloads, or undecodable input).
  bool transform_payload(int kind, std::vector<std::uint8_t>& framed,
                         const data::BevSpec& bev);

  /// The mutable state (the Gaussian noise stream), loaded into a model
  /// constructed with the same (cfg, seed, num_vehicles). Membership is
  /// derived, never serialized.
  template <class Io, FieldsOf<AdversaryModel> S>
  friend void fields(Io& io, S& a) { io(a.noise_rng_); }

 private:
  AdversaryConfig cfg_;
  std::vector<std::uint8_t> byzantine_;  ///< per-vehicle membership flag
  int byzantine_count_ = 0;
  Rng noise_rng_;  ///< consumed only when poison_noise > 0
};

/// Derived heterogeneity state. Per-vehicle scales are computed once in the
/// constructor; the only mutable state is the straggler credit accumulator,
/// advanced from the single-threaded train dispatch.
class HeteroModel {
 public:
  HeteroModel(const HeteroConfig& cfg, std::uint64_t seed, int num_vehicles);

  [[nodiscard]] bool active() const { return cfg_.enabled(); }
  /// Expected local-train steps per train interval (1.0 = full rate).
  [[nodiscard]] double compute_rate(int v) const {
    return compute_rate_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool straggler(int v) const { return compute_rate(v) < 1.0; }
  /// Radio bitrate multiplier in (0, 1].
  [[nodiscard]] double radio_scale(int v) const {
    return radio_scale_[static_cast<std::size_t>(v)];
  }
  /// Fraction of collected training frames vehicle `v` keeps, in (0, 1].
  [[nodiscard]] double dataset_keep(int v) const {
    return dataset_keep_[static_cast<std::size_t>(v)];
  }

  /// Straggler gate, called once per train interval per vehicle from the
  /// engine's single-threaded dispatch: accumulates compute-rate credit and
  /// returns whether `v` trains this interval (always true at full rate;
  /// touches only vehicle-v state, no RNG).
  bool should_train(int v);

  /// The credit accumulators (scales are derived).
  template <class Io, FieldsOf<HeteroModel> S>
  friend void fields(Io& io, S& h) {
    io(std::span{h.credit_});
    if constexpr (Io::kLoad) {
      for (const double c : h.credit_) {
        if (!(c >= 0.0 && c < 2.0)) throw std::runtime_error{"hetero: credit out of range"};
      }
    }
  }

 private:
  HeteroConfig cfg_;
  std::vector<double> compute_rate_;
  std::vector<double> radio_scale_;
  std::vector<double> dataset_keep_;
  std::vector<double> credit_;
};

}  // namespace lbchat::engine
