// Shared mechanics of the fully-decentralized model-sharing baselines
// (DFL-DDS [30] and DP [5]).
//
// Per the paper's fair-comparison setup, both baselines run under the same
// communication ability and constraints as LbChat, and "compute a model
// compression ratio for each encounter to ensure the vehicle pair can finish
// the model exchange within the contact duration". Neither shares routes, so
// their contact estimates extrapolate current velocities and go stale when a
// vehicle turns — one reason their receiving rates trail LbChat's.
#pragma once

#include <memory>
#include <vector>

#include "engine/fleet.h"
#include "nn/model_io.h"

namespace lbchat::baselines {

/// One directional exchange payload: the sparse model plus the sender's
/// data-source composition vector (empty unless the strategy provides one).
struct ModelExchange {
  nn::SparseModel model;
  std::vector<double> composition;
};

template <class Io, FieldsOf<ModelExchange> S>
void fields(Io& io, S& x) {
  io(x.model);
  io(x.composition);
}

/// The exchange payload in its CRC-checksummed frame.
[[nodiscard]] std::vector<std::uint8_t> encode_exchange(const ModelExchange& x);

class GossipBaseStrategy : public engine::Strategy {
 public:
  void on_transfer_complete(engine::FleetSim& sim, engine::PairSession& s,
                            const engine::StageTag& tag) override;

 protected:
  /// Start a pairwise model exchange with equal, fit-to-window compression
  /// ratios. Each direction's payload (sparse model + composition vector)
  /// travels in a CRC-checksummed frame; receivers verify before
  /// deserializing. Returns false (and starts nothing) when the window is too
  /// small to bother.
  bool start_exchange(engine::FleetSim& sim, int a, int b);

  /// Fold a received (densified) peer model into the receiver; `sender_comp`
  /// is the sender's data-source composition vector (empty unless provided
  /// by composition_of()).
  virtual void aggregate(engine::FleetSim& sim, int receiver, int sender,
                         const std::vector<float>& peer_params,
                         const std::vector<double>& sender_comp) = 0;

  /// Data-source composition vector attached to outgoing models (DFL-DDS).
  [[nodiscard]] virtual std::vector<double> composition_of(engine::FleetSim& sim, int v) {
    (void)sim;
    (void)v;
    return {};
  }
};

}  // namespace lbchat::baselines
