// ProxSkip [28] — the central-server federated-learning benchmark.
//
// The paper treats ProxSkip as the idealistic upper baseline: no backend
// bandwidth constraint (communication is instantaneous), with probabilistic
// communication skipping (each "round" the whole fleet synchronizes with
// probability p; otherwise every vehicle takes a local step). Under wireless
// loss, each vehicle's uplink/downlink suffers "a wireless loss uniformly
// sampled from the distance-loss lookup table" per transfer.
//
// Adaptation note (DESIGN.md): ProxSkip's SGD control-variate correction is
// defined for a plain prox-SGD inner loop; all approaches here share the same
// Adam inner optimizer for comparability, so the correction is exposed as an
// optional parameter (`variate_scale`, default 0) applied in parameter space.
// The communication pattern — local steps + probabilistically skipped central
// prox/averaging — is reproduced faithfully.
#pragma once

#include <array>
#include <atomic>
#include <vector>

#include "common/tunable.h"
#include "engine/fleet.h"

namespace lbchat::baselines {

struct ProxSkipOptions {
  double comm_probability = 0.2;  ///< p
  double variate_scale = 0.0;

  static constexpr auto tunables() {
    return std::array{
        tunable<&ProxSkipOptions::comm_probability>("comm_probability", within(0.0, 1.0),
                                                    "probability a round synchronizes"),
        tunable<&ProxSkipOptions::variate_scale>("variate_scale", at_least(0.0),
                                                 "control-variate strength (0 = off)"),
    };
  }
};

class ProxSkipStrategy final : public engine::Strategy {
 public:
  explicit ProxSkipStrategy(ProxSkipOptions opts = {}) : opts_(opts) {}

  [[nodiscard]] std::string_view name() const override { return "ProxSkip"; }
  void setup(engine::FleetSim& sim) override;
  void local_train(engine::FleetSim& sim, int v) override;
  void on_tick(engine::FleetSim& sim) override;

  // Checkpoint hooks: the tunables' echo, control variates and the
  // round-progress counter.
  void save_state(const engine::FleetSim& sim, ByteWriter& w) const override;
  void load_state(engine::FleetSim& sim, ByteReader& r) override;

 private:
  /// save_state's and load_state's one field list (Self and Sim const under Save).
  template <class Io, class Self, class Sim>
  static void state(Io&& io, Self& self, Sim& sim);
  void synchronize(engine::FleetSim& sim);

  ProxSkipOptions opts_;
  std::vector<std::vector<float>> variates_;  // h_v, parameter space
  /// Atomic: local_train runs concurrently across vehicles; the round
  /// boundary only needs the order-independent count.
  std::atomic<int> trained_since_round_{0};
};

}  // namespace lbchat::baselines
