#include "engine/adversary.h"

#include <algorithm>
#include <cmath>

#include "common/frame.h"
#include "coreset/coreset_io.h"
#include "net/assist_io.h"
#include "nn/model_io.h"

namespace lbchat::engine {

namespace {

/// StageTag::Kind values (engine/fleet.h); duplicated as plain ints so this
/// module does not need the full engine header.
constexpr int kKindAssist = 0;
constexpr int kKindCoreset = 1;
constexpr int kKindModel = 2;

/// Keep inflated coreset weights comfortably inside the decoder's validity
/// range (coreset_io.h kMaxWireCoresetWeight): the attack must survive
/// structural validation — that is the point.
constexpr double kInflationCap = 1e6;

}  // namespace

AdversaryModel::AdversaryModel(const AdversaryConfig& cfg, std::uint64_t seed,
                               int num_vehicles)
    : cfg_(cfg),
      byzantine_(static_cast<std::size_t>(num_vehicles), 0),
      noise_rng_(Rng{seed}.fork("adversary-noise")) {
  if (!cfg_.enabled()) return;  // all-off: consume no randomness
  const auto n = static_cast<std::size_t>(num_vehicles);
  const auto k = static_cast<std::size_t>(std::clamp<long>(
      std::lround(cfg_.byzantine_frac * static_cast<double>(n)), 0,
      static_cast<long>(n)));
  // Membership: the first k ids of a seeded permutation — derived, never
  // serialized, identical at any thread count and across restores.
  Rng member = Rng{seed}.fork("adversary-membership");
  const auto perm = member.permutation(n);
  for (std::size_t i = 0; i < k; ++i) byzantine_[perm[i]] = 1;
  byzantine_count_ = static_cast<int>(k);
}

bool AdversaryModel::transform_payload(int kind, std::vector<std::uint8_t>& framed,
                                       const data::BevSpec& bev) {
  if (!active() || framed.empty()) return false;
  const frame::Decoded dec = frame::decode(framed);
  if (!dec.ok()) return false;
  try {
    if (kind == kKindModel && cfg_.poison_models &&
        dec.type == frame::FrameType::kModel) {
      // Sign-flip + scale the transmitted values (the classic model-poisoning
      // attack: pull every receiver away from its optimum). Trailing payload
      // bytes (e.g. a gossip composition vector) ride through verbatim.
      ByteReader r{dec.payload};
      nn::SparseModel m = nn::read_sparse_model(r);
      const auto rest = r.rest();
      for (float& v : m.values) {
        double pv = -cfg_.poison_scale * static_cast<double>(v);
        if (cfg_.poison_noise > 0.0) pv += noise_rng_.normal(0.0, cfg_.poison_noise);
        v = static_cast<float>(pv);
      }
      ByteWriter w;
      nn::write_sparse_model(w, m);
      w.append_raw(rest);
      framed = frame::encode(frame::FrameType::kModel, w.bytes());
      return true;
    }
    if (kind == kKindCoreset && cfg_.inflate_coreset_weights &&
        dec.type == frame::FrameType::kCoreset) {
      ByteReader r{dec.payload};
      coreset::Coreset c = coreset::read_coreset(r, bev);
      for (double& wc : c.wc) {
        wc = std::min(wc * cfg_.coreset_inflation, kInflationCap);
      }
      ByteWriter w;
      coreset::write_coreset(w, c);
      framed = frame::encode(frame::FrameType::kCoreset, w.bytes());
      return true;
    }
    if (kind == kKindAssist && cfg_.lie_assist &&
        dec.type == frame::FrameType::kAssist) {
      // Negate the velocity, reverse the route (a fabricated trajectory
      // that is still a valid node sequence on the shared map), and
      // overstate the bandwidth so the attacker wins priority-score
      // comparisons.
      ByteReader r{dec.payload};
      net::WireAssist a;
      Load{r}(a);
      a.velocity = Vec2{-a.velocity.x, -a.velocity.y};
      a.bandwidth_bps *= cfg_.assist_bandwidth_lie;
      std::reverse(a.route.begin(), a.route.end());
      ByteWriter w;
      Save{w}(a);
      framed = frame::encode(frame::FrameType::kAssist, w.bytes());
      return true;
    }
  } catch (const std::exception&) {
    // Undecodable payload (should not happen for protocol frames): leave the
    // bytes untouched rather than corrupting them — corruption is the fault
    // model's job, not the adversary's.
    return false;
  }
  return false;
}

HeteroModel::HeteroModel(const HeteroConfig& cfg, std::uint64_t seed, int num_vehicles)
    : cfg_(cfg),
      compute_rate_(static_cast<std::size_t>(num_vehicles), 1.0),
      radio_scale_(static_cast<std::size_t>(num_vehicles), 1.0),
      dataset_keep_(static_cast<std::size_t>(num_vehicles), 1.0),
      credit_(static_cast<std::size_t>(num_vehicles), 0.0) {
  const auto n = static_cast<std::size_t>(num_vehicles);
  // Each knob draws from its own named stream, gated on that knob alone, so
  // enabling one class never perturbs the per-vehicle draws of another.
  if (cfg_.straggler_frac > 0.0) {
    Rng rng = Rng{seed}.fork("hetero-compute");
    const auto perm = rng.permutation(n);
    const auto k = static_cast<std::size_t>(std::clamp<long>(
        std::lround(cfg_.straggler_frac * static_cast<double>(n)), 0,
        static_cast<long>(n)));
    for (std::size_t i = 0; i < k; ++i) {
      compute_rate_[perm[i]] =
          std::clamp(cfg_.straggler_rate * rng.uniform(0.75, 1.25), 1e-3, 1.0);
    }
  }
  if (cfg_.slow_radio_frac > 0.0) {
    Rng rng = Rng{seed}.fork("hetero-radio");
    const auto perm = rng.permutation(n);
    const auto k = static_cast<std::size_t>(std::clamp<long>(
        std::lround(cfg_.slow_radio_frac * static_cast<double>(n)), 0,
        static_cast<long>(n)));
    for (std::size_t i = 0; i < k; ++i) {
      radio_scale_[perm[i]] =
          std::clamp(cfg_.slow_radio_scale * rng.uniform(0.75, 1.25), 1e-3, 1.0);
    }
  }
  if (cfg_.dataset_skew > 0.0) {
    Rng rng = Rng{seed}.fork("hetero-data");
    for (std::size_t v = 0; v < n; ++v) {
      dataset_keep_[v] = std::clamp(1.0 - cfg_.dataset_skew * rng.uniform(),
                                    std::clamp(cfg_.dataset_keep_min, 1e-3, 1.0), 1.0);
    }
  }
}

bool HeteroModel::should_train(int v) {
  const auto i = static_cast<std::size_t>(v);
  if (compute_rate_[i] >= 1.0) return true;
  credit_[i] += compute_rate_[i];
  if (credit_[i] >= 1.0) {
    credit_[i] -= 1.0;
    return true;
  }
  return false;
}

}  // namespace lbchat::engine
