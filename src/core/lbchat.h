// LbChat — the paper's contribution (Algorithm 2), as an engine Strategy.
//
// Per vehicle: continuous local training; a continuously maintained coreset
// (Algorithm 1 rebuilds + merge-reduce fast path). On encounters:
//   1. exchange assist info and pick the peer with the highest priority
//      score c_ij (Eq. (5));
//   2. exchange coresets; each side absorbs the peer coreset into its local
//      dataset (§III-D) and updates its own coreset by merge + reduce;
//   3. evaluate models on both coresets, build the phi mappings, exchange the
//      results, and solve Eq. (7) for (psi_i, psi_j);
//   4. exchange top-k-compressed models and aggregate with the coreset-
//      weighted rule (Eq. (8), cross-weighted per DESIGN.md ambiguity #1).
//
// The same class also provides the paper's ablations and the SCO variant:
//   * share_model = false            -> SCO (§IV-G): coresets only;
//   * adaptive_compression = false   -> Table V: equal, fit-to-window ratios;
//   * coreset_weighted_aggregation = false -> Table VI: plain averaging.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/tunable.h"
#include "core/compress_opt.h"
#include "coreset/alternatives.h"
#include "coreset/coreset.h"
#include "engine/fleet.h"

namespace lbchat::core {

struct LbChatOptions {
  bool share_model = true;
  bool adaptive_compression = true;
  bool coreset_weighted_aggregation = true;
  /// Evaluation cap for in-chat coreset evaluations (computational shortcut;
  /// mass-preserving subsample, see subsample_coreset; 0 = uncapped).
  std::size_t eval_cap = 64;
  /// Coreset construction strategy (paper §V: alternative constructions can
  /// be adapted in LbChat unchanged). Algorithm 1 by default.
  coreset::CoresetMethod coreset_method = coreset::CoresetMethod::kLayered;

  static constexpr auto tunables() {
    return std::array{tunable<&LbChatOptions::eval_cap>("eval_cap", at_least(0.0),
                                                        "in-chat coreset evaluation cap")};
  }
};

class LbChatStrategy final : public engine::Strategy {
 public:
  explicit LbChatStrategy(LbChatOptions opts = {});

  [[nodiscard]] std::string_view name() const override;
  void setup(engine::FleetSim& sim) override;
  void on_tick(engine::FleetSim& sim) override;
  void on_transfer_complete(engine::FleetSim& sim, engine::PairSession& s,
                            const engine::StageTag& tag) override;
  void on_session_idle(engine::FleetSim& sim, engine::PairSession& s) override;
  void on_session_aborted(engine::FleetSim& sim, engine::PairSession& s) override;

  // Checkpoint hooks: the tunables' echo, per-vehicle coreset stores and
  // per-session chat scratch.
  void save_state(const engine::FleetSim& sim, ByteWriter& w) const override;
  void load_state(engine::FleetSim& sim, ByteReader& r) override;
  void save_session_state(const engine::FleetSim& sim, const engine::PairSession& s,
                          ByteWriter& w) const override;
  void load_session_state(engine::FleetSim& sim, engine::PairSession& s,
                          ByteReader& r) override;

  /// The live coreset of a vehicle (tests/diagnostics).
  [[nodiscard]] const coreset::Coreset& coreset_of(int v) const;

 private:
  struct VehicleState {
    coreset::Coreset cs;
    double last_rebuild_s = -1e18;
  };
  struct ChatData;

  /// The checkpoint hooks' field lists (Self, Session and Sim const under
  /// Save): the coreset stores, and one session's chat scratch.
  template <class Io, class Self, class Sim>
  static void state(Io&& io, Self& self, Sim& sim);
  template <class Io, class Session, class Sim>
  static void session_state(Io&& io, Session& s, Sim& sim);
  void maybe_rebuild_coreset(engine::FleetSim& sim, int v, bool force);
  void begin_model_phase(engine::FleetSim& sim, engine::PairSession& s);
  void aggregate_received(engine::FleetSim& sim, int receiver, int sender,
                          const nn::SparseModel& sparse, const coreset::Coreset& peer_coreset);

  LbChatOptions opts_;
  std::vector<VehicleState> vehicles_;
};

}  // namespace lbchat::core
