// RSU-L [29] — road-side-unit based opportunistic learning.
//
// RSUs sit at road crosses (the busiest urban intersections here); each RSU
// is an independent coordinator maintaining its own RSU model. A vehicle
// passing within radio range uploads its model; the RSU folds it into the
// RSU model and sends the aggregate back. Per the paper, the backend has no
// bandwidth constraint (exchanges are instantaneous) and each transfer
// suffers a wireless loss uniformly sampled from the distance-loss table.
#pragma once

#include <vector>

#include "common/geometry.h"
#include "engine/fleet.h"

namespace lbchat::baselines {

struct RsuOptions {
  int num_rsus = 3;
  double range_m = 0.0;  ///< V2I range; <= 0 means "use the radio's range"
  double revisit_cooldown_s = 30.0;  ///< min time between exchanges with one RSU
  double rsu_mix = 0.5;        ///< EMA weight of an incoming vehicle model
  double vehicle_mix = 0.5;    ///< weight of the RSU model on download
};

class RsuStrategy final : public engine::Strategy {
 public:
  explicit RsuStrategy(RsuOptions opts = {}) : opts_(opts) {}

  [[nodiscard]] std::string_view name() const override { return "RSU-L"; }
  void setup(engine::FleetSim& sim) override;
  void on_tick(engine::FleetSim& sim) override;

  [[nodiscard]] const std::vector<Vec2>& rsu_positions() const { return positions_; }

  // Checkpoint hooks: RSU placement/models + per-pair visit cooldowns
  // (setup() also resolves range_m from the radio, so it round-trips too).
  void save_state(const engine::FleetSim& sim, ByteWriter& w) const override;
  void load_state(engine::FleetSim& sim, ByteReader& r) override;

 private:
  /// save_state's and load_state's one field list (Self and Sim const under Save).
  template <class Io, class Self, class Sim>
  static void state(Io&& io, Self& self, Sim& sim);
  RsuOptions opts_;
  std::vector<Vec2> positions_;
  std::vector<std::vector<float>> rsu_models_;
  std::vector<std::vector<double>> last_visit_;  // [vehicle][rsu]
};

}  // namespace lbchat::baselines
