// SimGossip — similarity-weighted gossip in the style of CDPL
// (Contribution Driven P2P Learning; SNIPPETS.md snippet 3), the natural
// head-to-head against LbChat's coreset-derived aggregation weights.
//
// Exchanges run on the DP cadence (nearest idle in-range peer, no value
// assessment) over the shared gossip session machinery, but the aggregation
// weight is earned, not fixed: the receiver scores the delivered model by its
// cosine similarity to its own parameters and maps the score through a
// temperature-controlled pairwise softmax against the self-similarity of 1,
//
//     alpha = 1 / (1 + exp((1 - cos(w_recv, w_peer)) / temperature)),
//
// so an aligned peer approaches the plain-averaging weight of 1/2 while a
// dissimilar (or poisoned — adversary runs exercise this) model is blended
// down smoothly. Stateless beyond its options: checkpoint hooks only echo
// them so a resume under a different temperature is rejected.
#pragma once

#include <array>

#include "baselines/gossip_base.h"
#include "common/tunable.h"

namespace lbchat::baselines {

struct SimGossipOptions {
  /// Softness of the similarity-to-weight map. Small temperatures gate hard
  /// (slightly dissimilar peers get nearly no weight); large ones approach
  /// plain 50/50 averaging.
  double temperature = 0.1;

  static constexpr auto tunables() {
    return std::array{tunable<&SimGossipOptions::temperature>(
        "temperature", above(0.0), "softness of the similarity-to-weight map")};
  }
};

class SimGossipStrategy final : public GossipBaseStrategy {
 public:
  explicit SimGossipStrategy(SimGossipOptions opts = {}) : opts_(opts) {}

  [[nodiscard]] std::string_view name() const override { return "SimGossip"; }
  void on_tick(engine::FleetSim& sim) override;

  void save_state(const engine::FleetSim& sim, ByteWriter& w) const override;
  void load_state(engine::FleetSim& sim, ByteReader& r) override;

  /// The similarity-to-weight map (exposed for tests).
  [[nodiscard]] double weight_for_similarity(double cosine) const;

 protected:
  void aggregate(engine::FleetSim& sim, int receiver, int sender,
                 const std::vector<float>& peer_params,
                 const std::vector<double>& sender_comp) override;

 private:
  SimGossipOptions opts_;
};

}  // namespace lbchat::baselines
