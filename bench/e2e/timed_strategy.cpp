#include "timed_strategy.h"

#include <algorithm>
#include <stdexcept>

namespace lbchat::e2e {

void CallTimes::add(double seconds, bool keep_sample) {
  ++calls;
  busy_s += seconds;
  if (keep_sample) samples_us.push_back(seconds * 1e6);
}

namespace {

/// Times one forwarded call into `into`.
template <typename Fn>
void timed(CallTimes& into, bool keep_sample, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  into.add(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(),
           keep_sample);
}

}  // namespace

TimedStrategy::TimedStrategy(std::unique_ptr<engine::Strategy> inner, int num_vehicles)
    : inner_(std::move(inner)), train_slots_(static_cast<std::size_t>(num_vehicles)) {
  if (inner_ == nullptr) throw std::invalid_argument{"TimedStrategy: null strategy"};
}

void TimedStrategy::setup(engine::FleetSim& sim) {
  timed(setup_times, false, [&] { inner_->setup(sim); });
}

void TimedStrategy::local_train(engine::FleetSim& sim, int v) {
  TrainSlot& slot = train_slots_.at(static_cast<std::size_t>(v));
  slot.enter = Clock::now();
  inner_->local_train(sim, v);
  slot.exit = Clock::now();
  slot.used = true;
}

void TimedStrategy::flush_train_phase() {
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  bool any = false;
  for (TrainSlot& slot : train_slots_) {
    if (!slot.used) continue;
    any = true;
    first = std::min(first, slot.enter);
    last = std::max(last, slot.exit);
    train_times.add(std::chrono::duration<double>(slot.exit - slot.enter).count(), false);
    slot.used = false;
  }
  if (any) train_phase_wall_s += std::chrono::duration<double>(last - first).count();
}

void TimedStrategy::on_tick(engine::FleetSim& sim) {
  // The engine runs the train loop (if due) right before on_tick in the same
  // tick, and every lane has joined by now.
  flush_train_phase();
  timed(tick_times, false, [&] { inner_->on_tick(sim); });
}

void TimedStrategy::on_transfer_complete(engine::FleetSim& sim, engine::PairSession& s,
                                         const engine::StageTag& tag) {
  timed(transfer_times, true, [&] { inner_->on_transfer_complete(sim, s, tag); });
}

void TimedStrategy::on_session_idle(engine::FleetSim& sim, engine::PairSession& s) {
  timed(idle_times, true, [&] { inner_->on_session_idle(sim, s); });
}

void TimedStrategy::on_session_aborted(engine::FleetSim& sim, engine::PairSession& s) {
  timed(aborted_times, false, [&] { inner_->on_session_aborted(sim, s); });
}

void TimedStrategy::save_state(const engine::FleetSim& sim, ByteWriter& w) const {
  inner_->save_state(sim, w);
}

void TimedStrategy::load_state(engine::FleetSim& sim, ByteReader& r) {
  inner_->load_state(sim, r);
}

void TimedStrategy::save_session_state(const engine::FleetSim& sim,
                                       const engine::PairSession& s, ByteWriter& w) const {
  inner_->save_session_state(sim, s, w);
}

void TimedStrategy::load_session_state(engine::FleetSim& sim, engine::PairSession& s,
                                       ByteReader& r) {
  inner_->load_session_state(sim, s, r);
}

}  // namespace lbchat::e2e
