#include "baselines/dyn_thresh.h"

#include <cmath>
#include <span>

#include "common/bytes.h"

namespace lbchat::baselines {

using engine::FleetSim;

namespace {

double rms_divergence(std::span<const float> params, const std::vector<float>& ref) {
  double acc = 0.0;
  for (std::size_t k = 0; k < params.size(); ++k) {
    const double d = static_cast<double>(params[k]) - static_cast<double>(ref[k]);
    acc += d * d;
  }
  return params.empty() ? 0.0 : std::sqrt(acc / static_cast<double>(params.size()));
}

}  // namespace

void DynThreshStrategy::setup(FleetSim& sim) {
  const auto n = static_cast<std::size_t>(sim.num_vehicles());
  refs_.assign(n, {});
  for (std::size_t v = 0; v < n; ++v) {
    const auto p = sim.node(static_cast<int>(v)).model.params();
    refs_[v].assign(p.begin(), p.end());
  }
  div_.assign(n, 0.0);
  dirty_.assign(n, 0);
}

void DynThreshStrategy::local_train(FleetSim& sim, int v) {
  sim.default_local_train(v);
  dirty_[static_cast<std::size_t>(v)] = 1;
}

void DynThreshStrategy::on_tick(FleetSim& sim) {
  // Sequential over ascending ids, like the other gossip strategies, so the
  // initiate order (and thus every downstream RNG draw) is deterministic.
  for (int a = 0; a < sim.num_vehicles(); ++a) {
    if (!sim.is_idle(a)) continue;
    const auto ia = static_cast<std::size_t>(a);
    if (dirty_[ia] != 0) {
      div_[ia] = rms_divergence(sim.node(a).model.params(), refs_[ia]);
      dirty_[ia] = 0;
    }
    // The dynamic threshold: a vehicle inside the bound spends no bytes.
    if (div_[ia] <= opts_.divergence_bound) continue;
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

void DynThreshStrategy::aggregate(FleetSim& sim, int receiver, int sender,
                                  const std::vector<float>& peer_params,
                                  const std::vector<double>& sender_comp) {
  (void)sender_comp;
  auto params = sim.node(receiver).model.params();
  const auto a = static_cast<float>(1.0 - opts_.pair_weight);
  const auto b = static_cast<float>(opts_.pair_weight);
  for (std::size_t k = 0; k < params.size(); ++k) {
    params[k] = a * params[k] + b * peer_params[k];
  }
  // Resync: the merged model becomes the new reference, so the receiver goes
  // quiet until local training drifts it past the bound again.
  auto& ref = refs_[static_cast<std::size_t>(receiver)];
  ref.assign(params.begin(), params.end());
  div_[static_cast<std::size_t>(receiver)] = 0.0;
  dirty_[static_cast<std::size_t>(receiver)] = 0;
  sim.note_aggregate(receiver, sender, opts_.pair_weight);
}

template <class Io, class Self, class Sim>
void DynThreshStrategy::state(Io&& io, Self& self, Sim& sim) {
  echo_tunables(io, self.opts_);
  const auto n = static_cast<std::size_t>(sim.num_vehicles());
  io.exact_count(n, "DynThresh::load_state: vehicle count");
  if constexpr (Io::kLoad) {
    self.refs_.assign(n, std::vector<float>(sim.node(0).model.param_count()));
    self.div_.assign(n, 0.0);
    self.dirty_.assign(n, 0);
  }
  for (auto& ref : self.refs_) io(std::span{ref});
  io(std::span{self.div_});
  io.exact_count(n, "DynThresh::load_state: dirty size");
  for (auto& d : self.dirty_) io(d);
}

void DynThreshStrategy::save_state(const FleetSim& sim, ByteWriter& w) const {
  state(Save{w}, *this, sim);
}

void DynThreshStrategy::load_state(FleetSim& sim, ByteReader& r) { state(Load{r}, *this, sim); }

}  // namespace lbchat::baselines
