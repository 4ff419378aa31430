// DynThresh — dynamic-threshold model averaging after Kamp et al.
// (arXiv:1807.03210), adapted to the engine's opportunistic pairwise chats.
//
// Every vehicle keeps a reference copy of its model from the last
// synchronization. Local training drifts the live model away from the
// reference; only when the RMS parameter divergence exceeds the configured
// bound does the vehicle spend bytes on air: it picks its nearest idle
// in-range peer and runs a resync-on-violation round on the ordinary gossip
// session machinery (GossipBaseStrategy::start_exchange — CRC-framed
// payloads, fit-to-window compression, fault/adversary handling all
// inherited). Both endpoints of the exchange blend the delivered model and
// reset their references to the merged parameters, so a quiet vehicle's
// participation in a peer-initiated chat is itself the piggybacked resync.
//
// The protocol's whole point is the bytes-vs-loss trade (bench/comm_pareto):
// vehicles that have not diverged stay silent, so bytes-on-air collapse
// relative to the fixed-cadence baselines at comparable final loss.
#pragma once

#include <array>
#include <vector>

#include "baselines/gossip_base.h"
#include "common/tunable.h"

namespace lbchat::baselines {

struct DynThreshOptions {
  /// Divergence bound on sqrt(||w - ref||^2 / dim) — RMS parameter deviation
  /// from the last-synchronized reference. A vehicle below the bound neither
  /// initiates chats nor spends bytes. Calibrated on the bench scenario
  /// (bench/comm_pareto): at this bound the fleet lands on the Pareto
  /// frontier, ~3x fewer bytes on air than DP/DFL-DDS at comparable final
  /// loss; a much smaller bound degenerates to DP's every-contact cadence, a
  /// much larger one to silent local training.
  double divergence_bound = 1.5e-2;
  double pair_weight = 0.5;

  static constexpr auto tunables() {
    return std::array{
        tunable<&DynThreshOptions::divergence_bound>(
            "divergence_bound", at_least(0.0),
            "RMS divergence from reference that triggers a chat"),
        tunable<&DynThreshOptions::pair_weight>("pair_weight", within(0.0, 1.0),
                                                "blend weight on the delivered peer model"),
    };
  }
};

class DynThreshStrategy final : public GossipBaseStrategy {
 public:
  explicit DynThreshStrategy(DynThreshOptions opts = {}) : opts_(opts) {}

  [[nodiscard]] std::string_view name() const override { return "DynThresh"; }
  void setup(engine::FleetSim& sim) override;
  void local_train(engine::FleetSim& sim, int v) override;
  void on_tick(engine::FleetSim& sim) override;

  // Checkpoint hooks: the tunables' echo, reference models and the
  // divergence cache.
  void save_state(const engine::FleetSim& sim, ByteWriter& w) const override;
  void load_state(engine::FleetSim& sim, ByteReader& r) override;

  /// Cached RMS divergence of vehicle `v` (tests/diagnostics; refreshed
  /// lazily on ticks where `v` is idle and has trained since the last check).
  [[nodiscard]] double divergence(int v) const {
    return div_[static_cast<std::size_t>(v)];
  }

 protected:
  void aggregate(engine::FleetSim& sim, int receiver, int sender,
                 const std::vector<float>& peer_params,
                 const std::vector<double>& sender_comp) override;

 private:
  /// save_state's and load_state's one field list (Self and Sim const under Save).
  template <class Io, class Self, class Sim>
  static void state(Io&& io, Self& self, Sim& sim);
  DynThreshOptions opts_;
  std::vector<std::vector<float>> refs_;  ///< last-synchronized parameters
  std::vector<double> div_;               ///< cached RMS divergence
  /// Set by local_train (vehicle-v slot only — safe on concurrent lanes),
  /// cleared when on_tick refreshes the divergence cache sequentially.
  std::vector<std::uint8_t> dirty_;
};

}  // namespace lbchat::baselines
