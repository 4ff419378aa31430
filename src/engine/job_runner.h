// JobRunner: drives one FleetSim run in bounded sim-time slices so a host —
// the fleet service's worker pool (src/svc), a CLI loop — can checkpoint,
// preempt, and resume the run between slices. The determinism contract is
// FleetSim's (DESIGN.md §10): a run advanced in any slicing, through any
// number of save/restore hops across processes or workers, is bit-identical
// to a straight run.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "engine/checkpoint.h"
#include "engine/fleet.h"

namespace lbchat::engine {

class JobRunner {
 public:
  JobRunner(const ScenarioConfig& cfg, std::unique_ptr<Strategy> strategy);

  /// Record the run's events and metrics (FleetSim::enable_events). Call
  /// before resume() so a checkpoint's event log is carried over.
  void enable_events(bool on) { sim_.enable_events(on); }

  /// Restore run state from checkpoint bytes produced by save_checkpoint()
  /// under the same configuration + strategy. Call before the first run_to.
  [[nodiscard]] CkptStatus resume(std::span<const std::uint8_t> ckpt);

  /// Advance sim time to min(t_target, horizon) — prepares the run on first
  /// call. Returns true once the horizon is reached.
  bool run_to(double t_target);

  /// Serialize the current run state (call between run_to slices).
  void save_checkpoint(ByteWriter& w) const { sim_.save_checkpoint(w); }

  /// Final evaluation + metrics assembly. Call once, after run_to returned
  /// true.
  [[nodiscard]] RunMetrics finish() { return sim_.finalize(); }

  [[nodiscard]] double time() const { return sim_.time(); }
  [[nodiscard]] double horizon() const { return horizon_; }
  [[nodiscard]] bool done() const { return sim_.time() >= horizon_; }
  [[nodiscard]] const ScenarioConfig& config() const { return sim_.config(); }
  /// The run's event log (empty unless enable_events was called).
  [[nodiscard]] const obs::EventTracer& events() const { return sim_.events(); }

 private:
  double horizon_;
  FleetSim sim_;
};

}  // namespace lbchat::engine
