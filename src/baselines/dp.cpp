#include "baselines/dp.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace lbchat::baselines {

using engine::FleetSim;

void DpStrategy::on_tick(FleetSim& sim) {
  // Asynchronous gossip: each idle vehicle exchanges with its nearest idle
  // in-range peer (FIFO by proximity, no value assessment).
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

void DpStrategy::aggregate(FleetSim& sim, int receiver, int sender,
                           const std::vector<float>& peer_params,
                           const std::vector<double>& sender_comp) {
  (void)sender_comp;
  auto& node = sim.node(receiver);

  // Validation losses of both models on the local hold-out, as two tasks
  // sharing one scoring batch (the hold-out is unfolded once).
  nn::DrivingPolicy peer_model = node.model;  // same layout; set_params overwrites all
  peer_model.set_params(peer_params);
  const nn::ScoringBatch batch{node.model, node.validation};
  double loss_self = 0.0;
  double loss_peer = 0.0;
  parallel_invoke(
      sim.pool(), [&] { loss_self = node.model.weighted_loss(batch); },
      [&] { loss_peer = peer_model.weighted_loss(batch); });

  // Normalized logarithmic weighting: w grows as the model's loss shrinks
  // relative to the other's.
  const double eps = 1e-6;
  const double w_self = std::log1p(loss_peer / std::max(loss_self, eps));
  const double w_peer = std::log1p(loss_self / std::max(loss_peer, eps));
  const double denom = w_self + w_peer;
  const double alpha = denom > 1e-12 ? w_peer / denom : 0.5;

  auto params = node.model.params();
  const auto a = static_cast<float>(1.0 - alpha);
  const auto b = static_cast<float>(alpha);
  for (std::size_t k = 0; k < params.size(); ++k) {
    params[k] = a * params[k] + b * peer_params[k];
  }
  sim.note_aggregate(receiver, sender, alpha);
}

}  // namespace lbchat::baselines
