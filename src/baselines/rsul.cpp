#include "baselines/rsul.h"

#include <algorithm>
#include <stdexcept>

#include "common/bytes.h"
#include <limits>

namespace lbchat::baselines {

using engine::FleetSim;

void RsuStrategy::setup(FleetSim& sim) {
  if (opts_.range_m <= 0.0) opts_.range_m = sim.config().radio.max_range_m;
  // Place RSUs at high-degree (busy) intersections, greedily spread apart.
  const auto& map = sim.world().map();
  std::vector<int> candidates;
  for (std::size_t i = 0; i < map.nodes().size(); ++i) {
    if (map.nodes()[i].is_intersection()) candidates.push_back(static_cast<int>(i));
  }
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    return map.nodes()[static_cast<std::size_t>(a)].neighbors.size() >
           map.nodes()[static_cast<std::size_t>(b)].neighbors.size();
  });
  positions_.clear();
  for (const int c : candidates) {
    if (static_cast<int>(positions_.size()) >= opts_.num_rsus) break;
    const Vec2 p = map.nodes()[static_cast<std::size_t>(c)].pos;
    bool far_enough = true;
    for (const Vec2& q : positions_) {
      if (distance(p, q) < opts_.range_m * 0.8) {
        far_enough = false;
        break;
      }
    }
    if (far_enough) positions_.push_back(p);
  }
  while (static_cast<int>(positions_.size()) < opts_.num_rsus && !candidates.empty()) {
    positions_.push_back(
        map.nodes()[static_cast<std::size_t>(candidates.front())].pos);
  }

  const auto params = sim.node(0).model.params();
  rsu_models_.assign(positions_.size(), std::vector<float>(params.begin(), params.end()));
  last_visit_.assign(static_cast<std::size_t>(sim.num_vehicles()),
                     std::vector<double>(positions_.size(),
                                         -std::numeric_limits<double>::infinity()));
}

void RsuStrategy::on_tick(FleetSim& sim) {
  auto& stats = sim.stats();
  for (int v = 0; v < sim.num_vehicles(); ++v) {
    if (!sim.is_online(v)) continue;  // churned-out vehicles skip RSU visits
    const Vec2 pos = sim.world().vehicle(v).pos;
    for (std::size_t r = 0; r < positions_.size(); ++r) {
      if (distance(pos, positions_[r]) > opts_.range_m) continue;
      if (sim.time() - last_visit_[static_cast<std::size_t>(v)][r] <
          opts_.revisit_cooldown_s) {
        continue;
      }
      last_visit_[static_cast<std::size_t>(v)][r] = sim.time();

      auto& rsu = rsu_models_[r];
      auto vehicle_params = sim.node(v).model.params();

      // Upload vehicle -> RSU.
      ++stats.model_sends_started;
      if (sim.infra_transfer_succeeds(sim.rng())) {
        ++stats.model_sends_completed;
        const auto a = static_cast<float>(1.0 - opts_.rsu_mix);
        const auto b = static_cast<float>(opts_.rsu_mix);
        for (std::size_t k = 0; k < rsu.size(); ++k) {
          rsu[k] = a * rsu[k] + b * vehicle_params[k];
        }
      }
      // Download RSU -> vehicle.
      ++stats.model_sends_started;
      ++sim.vehicle_stats(v).model_recv_started;
      if (sim.infra_transfer_succeeds(sim.rng())) {
        ++stats.model_sends_completed;
        ++sim.vehicle_stats(v).model_recv_completed;
        const auto a = static_cast<float>(1.0 - opts_.vehicle_mix);
        const auto b = static_cast<float>(opts_.vehicle_mix);
        for (std::size_t k = 0; k < rsu.size(); ++k) {
          vehicle_params[k] = a * vehicle_params[k] + b * rsu[k];
        }
        sim.emit(obs::EventKind::kAggregate, v, -1, opts_.vehicle_mix);
      }
      break;  // one RSU exchange per tick per vehicle
    }
  }
}

template <class Io, class Self, class Sim>
void RsuStrategy::state(Io&& io, Self& self, Sim& sim) {
  io(self.opts_.range_m);
  auto nr = static_cast<std::uint32_t>(self.positions_.size());
  io(nr);
  if constexpr (Io::kLoad) {
    if (nr > 4096) throw std::runtime_error{"RSU-L::load_state: rsu count out of range"};
    const std::size_t params = sim.num_vehicles() > 0 ? sim.node(0).model.param_count() : 0;
    self.positions_.assign(nr, Vec2{});
    self.rsu_models_.assign(nr, std::vector<float>(params));
    self.last_visit_.assign(static_cast<std::size_t>(sim.num_vehicles()),
                            std::vector<double>(nr));
  }
  for (auto& p : self.positions_) io(p);
  for (auto& m : self.rsu_models_) io(std::span{m});
  io.exact_count(sim.num_vehicles(), "RSU-L::load_state: vehicle count");
  for (auto& row : self.last_visit_) io(std::span{row});
}

void RsuStrategy::save_state(const FleetSim& sim, ByteWriter& w) const {
  state(Save{w}, *this, sim);
}

void RsuStrategy::load_state(FleetSim& sim, ByteReader& r) { state(Load{r}, *this, sim); }

}  // namespace lbchat::baselines
