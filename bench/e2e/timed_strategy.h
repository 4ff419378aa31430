// TimedStrategy: a decorator around a registry strategy that times every
// engine::Strategy callback from outside the engine, for the traced run.
//
// It forwards every virtual unchanged (name, checkpoint hooks and
// parallel_local_train included), so a traced run is bit-identical to a
// plain one — the benchmark checks that through the loss-curve digest.
#pragma once

#include <chrono>
#include <memory>
#include <string_view>
#include <vector>

#include "engine/fleet.h"

namespace lbchat::e2e {

/// Wall time of one kind of callback.
struct CallTimes {
  long calls = 0;
  double busy_s = 0.0;
  std::vector<double> samples_us;  ///< per call, kept only where p50/p95 are reported

  void add(double seconds, bool keep_sample);
};

class TimedStrategy final : public engine::Strategy {
 public:
  TimedStrategy(std::unique_ptr<engine::Strategy> inner, int num_vehicles);

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  void setup(engine::FleetSim& sim) override;
  void local_train(engine::FleetSim& sim, int v) override;
  [[nodiscard]] bool parallel_local_train() const override {
    return inner_->parallel_local_train();
  }
  void on_tick(engine::FleetSim& sim) override;
  void on_transfer_complete(engine::FleetSim& sim, engine::PairSession& s,
                            const engine::StageTag& tag) override;
  void on_session_idle(engine::FleetSim& sim, engine::PairSession& s) override;
  void on_session_aborted(engine::FleetSim& sim, engine::PairSession& s) override;
  void save_state(const engine::FleetSim& sim, ByteWriter& w) const override;
  void load_state(engine::FleetSim& sim, ByteReader& r) override;
  void save_session_state(const engine::FleetSim& sim, const engine::PairSession& s,
                          ByteWriter& w) const override;
  void load_session_state(engine::FleetSim& sim, engine::PairSession& s,
                          ByteReader& r) override;

  /// Fold the local_train calls of the last train tick into the totals.
  /// Runs at every on_tick; call once more after the run.
  void flush_train_phase();

  CallTimes setup_times;
  CallTimes tick_times;
  CallTimes transfer_times;
  CallTimes idle_times;
  CallTimes aborted_times;
  CallTimes train_times;  ///< lane-summed local_train
  /// Sum over train ticks of (last local_train exit - first entry).
  double train_phase_wall_s = 0.0;

 private:
  using Clock = std::chrono::steady_clock;
  /// One slot per vehicle: local_train calls for distinct vehicles run on
  /// concurrent lanes, each writing only its own slot.
  struct TrainSlot {
    Clock::time_point enter{};
    Clock::time_point exit{};
    bool used = false;
  };

  std::unique_ptr<engine::Strategy> inner_;
  std::vector<TrainSlot> train_slots_;
};

}  // namespace lbchat::e2e
