#include "baselines/dfl_dds.h"

#include <algorithm>

#include "common/bytes.h"

#include "common/stats.h"

namespace lbchat::baselines {

using engine::FleetSim;

void DflDdsStrategy::setup(FleetSim& sim) {
  const auto n = static_cast<std::size_t>(sim.num_vehicles());
  compositions_.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t v = 0; v < n; ++v) compositions_[v][v] = 1.0;
  next_round_s_ = sim.config().time_budget_s;
}

std::vector<double> DflDdsStrategy::composition_of(FleetSim&, int v) {
  return compositions_[static_cast<std::size_t>(v)];
}

void DflDdsStrategy::on_tick(FleetSim& sim) {
  if (sim.time() < next_round_s_) return;
  next_round_s_ += sim.config().time_budget_s;

  // Round boundary: greedily match idle in-range pairs, closest first.
  struct Cand {
    double d;
    int a;
    int b;
  };
  std::vector<Cand> cands;
  for (int a = 0; a < sim.num_vehicles(); ++a) {
    if (!sim.is_idle(a)) continue;
    // Neighbors come back ascending, so `b <= a` keeps the old a<b pair
    // enumeration (each pair considered once) in the same order.
    for (const int b : sim.neighbors_in_range(a)) {
      if (b <= a || !sim.is_idle(b)) continue;
      cands.push_back({sim.pair_distance(a, b), a, b});
    }
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& x, const Cand& y) { return x.d < y.d; });
  int exchanges = 0;
  for (const Cand& c : cands) {
    if (!sim.is_idle(c.a) || !sim.is_idle(c.b)) continue;
    if (start_exchange(sim, c.a, c.b)) ++exchanges;
  }
  sim.emit(obs::EventKind::kRound, -1, -1, exchanges);
}

void DflDdsStrategy::aggregate(FleetSim& sim, int receiver, int sender,
                               const std::vector<float>& peer_params,
                               const std::vector<double>& sender_comp) {
  auto& q_self = compositions_[static_cast<std::size_t>(receiver)];
  // Line-search the peer mixing weight alpha for maximal source diversity
  // (entropy of the blended composition vector).
  double best_alpha = opts_.alpha_min;
  double best_h = -1.0;
  std::vector<double> blend(q_self.size());
  for (int step = 0; step < opts_.alpha_steps; ++step) {
    const double alpha =
        opts_.alpha_min + (opts_.alpha_max - opts_.alpha_min) *
                              (opts_.alpha_steps > 1
                                   ? static_cast<double>(step) / (opts_.alpha_steps - 1)
                                   : 0.0);
    for (std::size_t k = 0; k < blend.size(); ++k) {
      blend[k] = (1.0 - alpha) * q_self[k] +
                 alpha * (k < sender_comp.size() ? sender_comp[k] : 0.0);
    }
    const double h = entropy(blend);
    if (h > best_h) {
      best_h = h;
      best_alpha = alpha;
    }
  }

  auto params = sim.node(receiver).model.params();
  const auto a = static_cast<float>(1.0 - best_alpha);
  const auto b = static_cast<float>(best_alpha);
  for (std::size_t k = 0; k < params.size(); ++k) {
    params[k] = a * params[k] + b * peer_params[k];
  }
  for (std::size_t k = 0; k < q_self.size(); ++k) {
    q_self[k] = (1.0 - best_alpha) * q_self[k] +
                best_alpha * (k < sender_comp.size() ? sender_comp[k] : 0.0);
  }
  sim.note_aggregate(receiver, sender, best_alpha);
}

template <class Io, class Self, class Sim>
void DflDdsStrategy::state(Io&& io, Self& self, Sim& sim) {
  echo_tunables(io, self.opts_);
  const auto n = static_cast<std::size_t>(sim.num_vehicles());
  io.exact_count(n, "DFL-DDS::load_state: vehicle count");
  if constexpr (Io::kLoad) self.compositions_.assign(n, std::vector<double>(n));
  for (auto& row : self.compositions_) io(std::span{row});
  io(self.next_round_s_);
}

void DflDdsStrategy::save_state(const FleetSim& sim, ByteWriter& w) const {
  state(Save{w}, *this, sim);
}

void DflDdsStrategy::load_state(FleetSim& sim, ByteReader& r) { state(Load{r}, *this, sim); }

}  // namespace lbchat::baselines
