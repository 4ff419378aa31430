#include "baselines/sim_gossip.h"

#include <cmath>
#include <span>

#include "common/bytes.h"

namespace lbchat::baselines {

using engine::FleetSim;

void SimGossipStrategy::on_tick(FleetSim& sim) {
  // DP cadence: each idle vehicle chats with its nearest idle in-range peer,
  // so the head-to-head against DP isolates the aggregation rule.
  for (int a = 0; a < sim.num_vehicles(); ++a) {
    if (!sim.is_idle(a)) continue;
    int best = -1;
    double best_d = 1e18;
    for (const int b : sim.neighbors_in_range(a)) {
      if (!sim.is_idle(b) || !sim.cooldown_passed(a, b)) continue;
      const double d = sim.pair_distance(a, b);
      if (d < best_d) {
        best_d = d;
        best = b;
      }
    }
    if (best >= 0) start_exchange(sim, a, best);
  }
}

double SimGossipStrategy::weight_for_similarity(double cosine) const {
  return 1.0 / (1.0 + std::exp((1.0 - cosine) / opts_.temperature));
}

void SimGossipStrategy::aggregate(FleetSim& sim, int receiver, int sender,
                                  const std::vector<float>& peer_params,
                                  const std::vector<double>& sender_comp) {
  (void)sender_comp;
  auto params = sim.node(receiver).model.params();

  double dot = 0.0, n_self = 0.0, n_peer = 0.0;
  for (std::size_t k = 0; k < params.size(); ++k) {
    const double s = params[k];
    const double p = peer_params[k];
    dot += s * p;
    n_self += s * s;
    n_peer += p * p;
  }
  const double denom = std::sqrt(n_self) * std::sqrt(n_peer);
  // A zero-norm model carries no direction to compare against; treat it as
  // orthogonal so the blend weight bottoms out instead of dividing by zero.
  const double cosine = denom > 1e-12 ? dot / denom : 0.0;
  const double alpha = weight_for_similarity(cosine);

  const auto a = static_cast<float>(1.0 - alpha);
  const auto b = static_cast<float>(alpha);
  for (std::size_t k = 0; k < params.size(); ++k) {
    params[k] = a * params[k] + b * peer_params[k];
  }
  sim.note_aggregate(receiver, sender, alpha);
}

void SimGossipStrategy::save_state(const FleetSim& sim, ByteWriter& w) const {
  (void)sim;
  echo_tunables(Save{w}, opts_);
}

void SimGossipStrategy::load_state(FleetSim& sim, ByteReader& r) {
  (void)sim;
  echo_tunables(Load{r}, opts_);
}

}  // namespace lbchat::baselines
