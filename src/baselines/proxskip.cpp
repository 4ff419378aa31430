#include "baselines/proxskip.h"

#include <algorithm>

#include "common/bytes.h"

namespace lbchat::baselines {

using engine::FleetSim;

void ProxSkipStrategy::setup(FleetSim& sim) {
  variates_.assign(static_cast<std::size_t>(sim.num_vehicles()),
                   std::vector<float>(sim.node(0).model.param_count(), 0.0f));
  trained_since_round_ = 0;
}

void ProxSkipStrategy::local_train(FleetSim& sim, int v) {
  sim.default_local_train(v);
  if (opts_.variate_scale > 0.0) {
    auto params = sim.node(v).model.params();
    const auto& h = variates_[static_cast<std::size_t>(v)];
    const auto scale = static_cast<float>(opts_.variate_scale * sim.config().learning_rate);
    for (std::size_t k = 0; k < params.size(); ++k) params[k] += scale * h[k];
  }
  ++trained_since_round_;
}

void ProxSkipStrategy::on_tick(FleetSim& sim) {
  // A "round" ends when every *online* vehicle has taken its local step; then
  // flip the ProxSkip coin: with probability p, the prox (central averaging)
  // fires. Gating on the online count keeps rounds progressing under churn
  // (offline vehicles skip local steps and would otherwise stall the round
  // forever); with faults off it equals num_vehicles() and nothing changes.
  const int online = sim.online_vehicles();
  if (online == 0 || trained_since_round_ < online) return;
  trained_since_round_ = 0;
  if (!sim.rng().chance(opts_.comm_probability)) return;
  synchronize(sim);
}

void ProxSkipStrategy::synchronize(FleetSim& sim) {
  const int n = sim.num_vehicles();
  const std::size_t dim = sim.node(0).model.param_count();
  auto& stats = sim.stats();

  // Uplink: the server averages the models it actually receives.
  std::vector<float> avg(dim, 0.0f);
  std::vector<char> uploaded(static_cast<std::size_t>(n), 0);
  int received = 0;
  for (int v = 0; v < n; ++v) {
    if (!sim.is_online(v)) continue;  // churned-out vehicles miss the round
    ++stats.model_sends_started;
    if (!sim.infra_transfer_succeeds(sim.rng())) continue;
    ++stats.model_sends_completed;
    uploaded[static_cast<std::size_t>(v)] = 1;
    const auto p = sim.node(v).model.params();
    for (std::size_t k = 0; k < dim; ++k) avg[k] += p[k];
    ++received;
  }
  sim.emit(obs::EventKind::kRound, -1, -1, received);
  if (received == 0) return;
  const float inv = 1.0f / static_cast<float>(received);
  for (float& x : avg) x *= inv;

  // Downlink: vehicles that receive the broadcast adopt the average; the
  // control variate absorbs the difference (ProxSkip's h-update).
  for (int v = 0; v < n; ++v) {
    if (!sim.is_online(v)) continue;
    ++stats.model_sends_started;
    ++sim.vehicle_stats(v).model_recv_started;
    if (!sim.infra_transfer_succeeds(sim.rng())) continue;
    ++stats.model_sends_completed;
    ++sim.vehicle_stats(v).model_recv_completed;
    auto params = sim.node(v).model.params();
    if (opts_.variate_scale > 0.0) {
      auto& h = variates_[static_cast<std::size_t>(v)];
      const auto hs = static_cast<float>(opts_.comm_probability / sim.config().learning_rate);
      for (std::size_t k = 0; k < dim; ++k) h[k] += hs * (avg[k] - params[k]);
    }
    std::copy(avg.begin(), avg.end(), params.begin());
    sim.emit(obs::EventKind::kAggregate, v, -1, 1.0);
  }
}

template <class Io, class Self, class Sim>
void ProxSkipStrategy::state(Io&& io, Self& self, Sim& sim) {
  echo_tunables(io, self.opts_);
  io.exact_count(sim.num_vehicles(), "ProxSkip::load_state: vehicle count");
  if constexpr (Io::kLoad) {
    self.variates_.assign(static_cast<std::size_t>(sim.num_vehicles()),
                          std::vector<float>(sim.node(0).model.param_count()));
  }
  for (auto& h : self.variates_) io(std::span{h});
  int trained = self.trained_since_round_.load();
  io(trained);
  if constexpr (Io::kLoad) self.trained_since_round_.store(trained);
}

void ProxSkipStrategy::save_state(const FleetSim& sim, ByteWriter& w) const {
  state(Save{w}, *this, sim);
}

void ProxSkipStrategy::load_state(FleetSim& sim, ByteReader& r) { state(Load{r}, *this, sim); }

}  // namespace lbchat::baselines
