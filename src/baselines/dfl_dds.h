// DFL-DDS [30] — synchronous fully-decentralized learning with data-source
// diversification.
//
// Vehicles operate in global rounds of length T_B (the paper aligns the round
// length with LbChat's time budget). At each round boundary, in-range idle
// vehicles pair up and exchange models (equal fit-to-window compression). A
// vehicle tracks a "data source composition" vector describing how much each
// peer's data has contributed to its model, and tunes its aggregation weight
// to diversify the sources — implemented as an entropy-maximizing line search
// over the mixing coefficient, the spirit of the original's KL-based tuning.
#pragma once

#include <array>
#include <vector>

#include "baselines/gossip_base.h"
#include "common/tunable.h"

namespace lbchat::baselines {

struct DflDdsOptions {
  double alpha_min = 0.1;  ///< search range for the peer mixing weight
  double alpha_max = 0.6;
  int alpha_steps = 11;

  static constexpr auto tunables() {
    return std::array{
        tunable<&DflDdsOptions::alpha_min>("alpha_min", within(0.0, 1.0),
                                           "mixing-weight search range lower bound"),
        tunable<&DflDdsOptions::alpha_max>("alpha_max", within(0.0, 1.0),
                                           "mixing-weight search range upper bound"),
        tunable<&DflDdsOptions::alpha_steps>("alpha_steps", at_least(1.0),
                                             "line-search resolution"),
    };
  }
};

class DflDdsStrategy final : public GossipBaseStrategy {
 public:
  explicit DflDdsStrategy(DflDdsOptions opts = {}) : opts_(opts) {}

  [[nodiscard]] std::string_view name() const override { return "DFL-DDS"; }
  void setup(engine::FleetSim& sim) override;
  void on_tick(engine::FleetSim& sim) override;

  [[nodiscard]] const std::vector<double>& composition(int v) const {
    return compositions_[static_cast<std::size_t>(v)];
  }

  // Checkpoint hooks: the tunables' echo, composition vectors and the round
  // schedule.
  void save_state(const engine::FleetSim& sim, ByteWriter& w) const override;
  void load_state(engine::FleetSim& sim, ByteReader& r) override;

 protected:
  void aggregate(engine::FleetSim& sim, int receiver, int sender,
                 const std::vector<float>& peer_params,
                 const std::vector<double>& sender_comp) override;
  [[nodiscard]] std::vector<double> composition_of(engine::FleetSim& sim, int v) override;

 private:
  /// save_state's and load_state's one field list (Self and Sim const under Save).
  template <class Io, class Self, class Sim>
  static void state(Io&& io, Self& self, Sim& sim);
  DflDdsOptions opts_;
  std::vector<std::vector<double>> compositions_;
  double next_round_s_ = 0.0;
};

}  // namespace lbchat::baselines
