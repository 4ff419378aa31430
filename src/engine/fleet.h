// Fleet simulation engine: drives the world, local training, opportunistic
// pairwise exchange sessions over the wireless channel, and metrics.
//
// The engine is strategy-agnostic: LbChat, the gossip baselines, and the
// infrastructure baselines all plug in through the Strategy interface.
// Sessions model the paper's pairwise "chats": a sequence of directional
// transfers over one shared link (rate min{B_i, B_j}) that aborts when the
// pair leaves radio range — exactly the failure mode behind the paper's
// "successful model receiving rate" metric (§IV-C).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "engine/checkpoint.h"
#include "engine/faults.h"
#include "engine/metrics.h"
#include "engine/scenario.h"
#include "net/contact.h"
#include "net/spatial_index.h"
#include "net/wireless.h"
#include "nn/optim.h"
#include "nn/policy.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/world.h"

namespace lbchat::engine {

/// Per-vehicle training state owned by the engine.
struct VehicleNode {
  int id = 0;
  data::WeightedDataset dataset;
  std::vector<data::Sample> validation;  ///< local hold-out (DP baseline)
  nn::DrivingPolicy model;
  std::unique_ptr<nn::Optimizer> opt;
  Rng rng;

  VehicleNode(int id_, const nn::PolicyConfig& policy, std::uint64_t init_seed, Rng rng_)
      : id(id_), model(policy, init_seed), rng(rng_) {}
};

/// Strategy-visible label on a queued transfer.
struct StageTag {
  enum Kind : int { kAssist = 0, kCoreset = 1, kModel = 2, kOther = 3 };
  Kind kind = kOther;
  int from = -1;    ///< sending vehicle id (queue_transfer sets it)
  int payload = 0;  ///< strategy-defined discriminator
};

/// The checkpoint's per-section field lists (engine/checkpoint.cpp).
struct CheckpointFields;

/// One pairwise exchange session between two vehicles.
class PairSession {
 public:
  [[nodiscard]] int vehicle_a() const { return a_; }
  [[nodiscard]] int vehicle_b() const { return b_; }
  [[nodiscard]] double started_at() const { return started_at_; }
  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] bool closed() const { return closed_; }
  /// Mark the session finished; it is reaped once the queue drains (close
  /// with a non-empty queue drops the remaining stages).
  void close() { closed_ = true; }

  /// The other vehicle of the pair from `v`'s perspective.
  [[nodiscard]] int peer_of(int v) const { return v == a_ ? b_ : a_; }

  // Strategy scratch.
  int phase = 0;
  std::shared_ptr<void> data;
  /// Absolute give-up time: the engine aborts the session past this point
  /// (strategies set it to the planned exchange window so vehicles decouple
  /// and move on, per the paper's time-budget semantics).
  double deadline_s = std::numeric_limits<double>::infinity();

  /// Framed wire bytes of the transfer that just completed — valid only
  /// inside Strategy::on_transfer_complete, and only for stages queued with
  /// a payload (empty otherwise). Receivers verify the frame envelope
  /// (common/frame.h) before deserializing; the fault model may have
  /// flipped bits in it.
  [[nodiscard]] const std::vector<std::uint8_t>& delivered_payload() const {
    return delivered_payload_;
  }

 private:
  friend class FleetSim;
  friend struct CheckpointFields;
  struct Stage {
    StageTag tag;
    net::Transfer transfer{0, net::RadioConfig{}};  ///< set when queued or restored
    std::vector<std::uint8_t> payload;  ///< framed wire bytes (may be empty)
  };
  int a_ = -1;
  int b_ = -1;
  double started_at_ = 0.0;
  bool closed_ = false;
  bool aborted_ = false;  ///< closed by range/deadline/churn, not gracefully
  std::deque<Stage> queue_;
  std::vector<std::uint8_t> delivered_payload_;
  /// Private packet-noise stream, derived from (seed, session ordinal) at
  /// session start so transfer ticks of distinct sessions can run on
  /// concurrent lanes.
  Rng rng_{0};
};

class FleetSim;

/// A collaborative-training approach (LbChat or a baseline).
class Strategy {
 public:
  virtual ~Strategy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once after data collection, before the training loop.
  virtual void setup(FleetSim& sim) { (void)sim; }
  /// One local training step for vehicle `v` (default: one weighted
  /// minibatch through the vehicle's optimizer).
  ///
  /// Contract for the parallel training loop: when parallel_local_train()
  /// is true (the default), local_train(sim, v) calls for distinct `v` may
  /// run concurrently on the engine's thread pool, so the body must only
  /// touch vehicle-v state (its VehicleNode: model, optimizer, dataset,
  /// Rng) plus atomics/engine counters that commute. Override
  /// parallel_local_train() to return false to force the sequential loop.
  virtual void local_train(FleetSim& sim, int v);
  /// Whether local_train calls for distinct vehicles are safe to run
  /// concurrently (see the contract above).
  [[nodiscard]] virtual bool parallel_local_train() const { return true; }
  /// Called every engine tick: initiate encounters, run round logic, etc.
  virtual void on_tick(FleetSim& sim) = 0;

  // Session callbacks.
  virtual void on_transfer_complete(FleetSim& sim, PairSession& s, const StageTag& tag) {
    (void)sim;
    (void)s;
    (void)tag;
  }
  /// Queue drained and session not closed: queue the next protocol stage or
  /// close.
  virtual void on_session_idle(FleetSim& sim, PairSession& s) {
    (void)sim;
    s.close();
  }
  /// The endpoints left radio range with work pending.
  virtual void on_session_aborted(FleetSim& sim, PairSession& s) {
    (void)sim;
    (void)s;
  }

  // Checkpoint hooks. Strategies with private mutable state (coreset stores,
  // round schedules, control variates, session scratch) override these so a
  // restored run continues bit-identically; stateless strategies keep the
  // no-op defaults. Each hook's bytes travel as one length-prefixed blob, and
  // load_state must consume exactly the bytes save_state wrote (restore
  // rejects trailing bytes). It may throw std::exception on malformed input
  // (the engine maps it to CkptStatus::kMalformed). A hook may write its state
  // as one field list run under Save and Load (common/bytes.h), as the engine
  // does for its own sections. Restore does NOT call setup() — setup consumes
  // RNG streams — so load_state must fully reconstruct what setup built.
  virtual void save_state(const FleetSim& sim, ByteWriter& w) const;
  virtual void load_state(FleetSim& sim, ByteReader& r);
  /// Per-session scratch (PairSession::phase is saved by the engine; the
  /// opaque `data` pointer is the strategy's to serialize here).
  virtual void save_session_state(const FleetSim& sim, const PairSession& s, ByteWriter& w) const;
  virtual void load_session_state(FleetSim& sim, PairSession& s, ByteReader& r);
};

class FleetSim {
 public:
  FleetSim(const ScenarioConfig& cfg, std::unique_ptr<Strategy> strategy);
  ~FleetSim();

  /// Execute the full run: data collection, then the training loop.
  /// Equivalent to prepare(); run_until(cfg.duration_s); finalize().
  RunMetrics run();

  // --- phased execution (checkpoint/resume entry points) ---
  /// Data collection + strategy setup + the t=0 evaluation. Idempotent.
  void prepare();
  /// Advance the simulation to min(t_end, cfg.duration_s). Calls prepare()
  /// first if it has not run. May be called repeatedly.
  void run_until(double t_end);
  /// Final evaluation (if the horizon's eval is still missing) + metrics
  /// assembly. Returns the run metrics accumulated so far.
  RunMetrics finalize();

  // --- checkpoint/restore (engine/checkpoint.h; DESIGN.md §10) ---
  /// Serialize the complete run state as one CRC32-checksummed frame.
  void save_checkpoint(ByteWriter& w) const;
  /// Restore from a checkpoint produced by save_checkpoint under the same
  /// configuration and strategy. Call on a freshly constructed sim; never
  /// throws — every failure maps to a status, but a failed restore leaves
  /// this sim in an unspecified state (construct a new one).
  [[nodiscard]] CkptStatus restore(ByteReader& in);

  // --- per-run observability (DESIGN.md §9) ---
  /// Record this run's sim-time events and metrics. Off by default; switch
  /// it on before prepare() or restore() so the log covers the whole run (a
  /// restore re-applies a checkpoint's log only when events are on).
  void enable_events(bool on = true) { events_on_ = on; }
  /// The run's event log (empty while events are off).
  [[nodiscard]] const obs::EventTracer& events() const { return events_; }
  /// Record an event stamped with the current sim time, iff events are on.
  /// Tick thread only: never from work placed on pool() lanes.
  void emit(obs::EventKind kind, int a = -1, int b = -1, double value = 0.0) {
    if (events_on_) events_.emit(obs::Event{time_, kind, a, b, value});
  }
  /// The run's metrics, name-sorted; empty while events are off. The
  /// train.steps counter and the chat.duration_s histogram once they count
  /// something, and the transfer gauges (read from stats()) once finalize()
  /// has run.
  [[nodiscard]] obs::Snapshot metrics_snapshot() const;

  // --- accessors for strategies ---
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] sim::World& world() { return world_; }
  [[nodiscard]] const sim::World& world() const { return world_; }
  [[nodiscard]] const net::WirelessLossModel& loss_model() const { return loss_; }
  [[nodiscard]] bool wireless_enabled() const { return cfg_.wireless_loss; }
  [[nodiscard]] int num_vehicles() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] VehicleNode& node(int v) { return *nodes_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] const std::vector<data::Sample>& eval_set() const { return eval_set_; }
  [[nodiscard]] Rng& rng() { return strategy_rng_; }
  /// The engine's lanes (null for a 1-lane run), lent to a strategy's
  /// sequential callbacks for forward-only sweeps. Work placed on them must
  /// stay bit-identical at any lane count: each task writes only its own
  /// index slots, reductions run on the caller in index order, and events
  /// are emitted only from the calling thread.
  [[nodiscard]] ThreadPool* pool() const { return pool_.get(); }
  [[nodiscard]] TransferStats& stats() { return stats_; }
  /// Per-vehicle accounting slice (always maintained; see VehicleTransferStats).
  [[nodiscard]] VehicleTransferStats& vehicle_stats(int v) {
    return vstats_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] double pair_distance(int a, int b) const;
  [[nodiscard]] bool in_range(int a, int b) const;
  /// All peers within radio range of `v` (inclusive boundary, like
  /// in_range), ascending by id — exactly the set and order a brute-force
  /// all-pairs scan yields, answered from the per-tick spatial grid
  /// (DESIGN.md §11). The reference is to a scratch buffer, valid until the
  /// next neighbors_in_range call.
  [[nodiscard]] const std::vector<int>& neighbors_in_range(int v) const;
  /// Free to start a session: no active session AND not churned offline.
  [[nodiscard]] bool is_idle(int v) const {
    return busy_[static_cast<std::size_t>(v)] == nullptr && !faults_.offline(v);
  }
  /// False while the fault model holds vehicle `v` offline (churn). Offline
  /// vehicles neither train nor chat; they rejoin with their state intact.
  [[nodiscard]] bool is_online(int v) const { return !faults_.offline(v); }
  /// Number of vehicles currently online.
  [[nodiscard]] int online_vehicles() const {
    return num_vehicles() - faults_.offline_count();
  }
  [[nodiscard]] const FaultInjector& faults() const { return faults_; }
  [[nodiscard]] bool cooldown_passed(int a, int b) const;
  /// Graceful-degradation hooks: a strategy reports a failed exchange with a
  /// pair (aborted session, rejected frame) or a successful one. With
  /// FaultConfig::chat_backoff enabled, failures exponentially extend the
  /// pair's chat cooldown (bounded retry) and successes reset it; otherwise
  /// both are no-ops.
  void note_pair_failure(int a, int b);
  void note_pair_success(int a, int b);
  /// A strategy rejected a delivered frame at verification. Centralizes the
  /// fleet + per-vehicle counters and the kFrameReject trace event.
  /// `invalid_values` marks a frame that decoded structurally but carried
  /// semantically impossible values (WireValueError, common/frame.h) — it is
  /// additionally booked under TransferStats::frames_rejected_invalid.
  void note_frame_rejected(int receiver, bool is_model, bool invalid_values = false);
  /// A strategy merged a peer model with weight `peer_weight` (the blend
  /// coefficient on the received parameters). Emits the kAggregate event
  /// exactly as the strategies used to, and — when an adversary is
  /// configured — accumulates the attacker-weight-share accounting for
  /// honest receivers. Call in place of emitting kAggregate directly.
  void note_aggregate(int receiver, int sender, double peer_weight);
  [[nodiscard]] const AdversaryModel& adversary() const { return adversary_; }
  [[nodiscard]] const HeteroModel& hetero() const { return hetero_; }
  /// Assist info for a vehicle. `share_route = false` yields the baseline
  /// view (constant-velocity extrapolation instead of the shared route).
  [[nodiscard]] net::AssistInfo assist_info(int v, bool share_route = true) const;
  [[nodiscard]] net::ContactEstimate estimate_contact_between(int a, int b,
                                                              bool share_routes = true) const;

  /// Start a vehicle-vehicle session (both must be idle and in range).
  PairSession& start_session(int a, int b);
  /// Queue a directional transfer on a session; model transfers are counted
  /// toward the receiving-rate statistics. `payload` carries the framed wire
  /// bytes (common/frame.h) delivered to the receiver on completion — the
  /// logical `bytes` count (WireSizeModel scale) still governs transfer
  /// duration; the payload rides along as metadata.
  void queue_transfer(PairSession& s, int from_vehicle, std::size_t bytes, StageTag tag,
                      std::vector<std::uint8_t> payload = {});

  /// Bernoulli success of an idealized backend transfer: the paper models
  /// infrastructure links as suffering "a wireless loss uniformly sampled
  /// from the distance-loss lookup table". Always succeeds when the run is
  /// configured without wireless loss.
  bool infra_transfer_succeeds(Rng& r);

  /// Default local training: one w(d)-weighted minibatch + optimizer step.
  /// Returns the batch loss.
  double default_local_train(int v);

  /// Mean held-out loss across all vehicles' models (the loss-curve metric).
  [[nodiscard]] double mean_eval_loss() const;

  /// (last_chat size, pair_backoff size) — observability for the pair-map
  /// pruning that keeps both bounded over long runs.
  [[nodiscard]] std::pair<std::size_t, std::size_t> pair_map_sizes() const {
    return {last_chat_.size(), pair_backoff_.size()};
  }

 private:
  void collect_phase();
  /// Held-out loss of every vehicle's model (int8 snapshots when
  /// int8_eval is on), one slot per vehicle: the one eval sweep that
  /// mean_eval_loss() and eval_and_record() both reduce.
  [[nodiscard]] std::vector<double> vehicle_eval_losses() const;
  /// Evaluate the fleet at sim time `t` and record the mean + per-vehicle
  /// losses into `metrics` (the mean is mean_eval_loss()'s, bit for bit).
  void eval_and_record(RunMetrics& metrics, double t);
  void tick_sessions(double dt);
  void reap_sessions();
  /// Abort a live session: the fleet and per-vehicle counters, the
  /// kChatAbort event, then on_session_aborted. `blackout` books the abort
  /// under sessions_lost_to_blackout as well.
  void abort_session(PairSession& s, bool blackout);
  /// The chat cooldown of the pair with key `key`: the configured cooldown,
  /// extended by its backoff multiplier under chat_backoff.
  [[nodiscard]] double pair_cooldown(std::uint64_t key) const;
  /// Full sweep of both pair maps: drop last_chat_ entries whose cooldown
  /// (with any backoff multiplier) has fully elapsed — they can no longer
  /// affect cooldown_passed() — then the backoff counts of pairs left with
  /// no cooldown entry. A function of checkpointed state only, so a resumed
  /// run prunes exactly the entries the straight run prunes.
  void prune_pair_maps();
  /// Refresh the per-tick vehicle position cache (pair_distance/in_range
  /// read it instead of recomputing from world state per call) and rebuild
  /// the neighbor index over it. Called after every world step and restore.
  void sync_positions();
  /// Run fn(v) for every vehicle, on the pool when one is configured.
  /// Deterministic provided fn(v) only touches vehicle-v state.
  void for_each_vehicle(const std::function<void(std::int64_t)>& fn) const;
  /// RadioConfig governing a session link between vehicles `a` and `b`:
  /// the configured radio with bandwidth scaled by min of the endpoints'
  /// heterogeneity scales (the session rate is min{B_i, B_j}). Identical to
  /// cfg_.radio with heterogeneity off. Used at Transfer construction and,
  /// identically, at checkpoint restore.
  [[nodiscard]] net::RadioConfig session_radio(int a, int b) const;

  // The checkpoint sections read and write these members directly.
  friend struct CheckpointFields;

  ScenarioConfig cfg_;
  net::WirelessLossModel loss_;
  net::WirelessLossModel no_loss_;
  sim::World world_;
  std::unique_ptr<Strategy> strategy_;
  std::vector<std::unique_ptr<VehicleNode>> nodes_;
  std::vector<data::Sample> eval_set_;
  std::vector<std::unique_ptr<PairSession>> sessions_;
  std::vector<PairSession*> busy_;
  std::unordered_map<std::uint64_t, double> last_chat_;  // pair key -> time
  /// pair key -> consecutive reported failures (chat_backoff bookkeeping).
  std::unordered_map<std::uint64_t, int> pair_backoff_;
  /// Per-tick vehicle position cache; vpos_[v] == world_.vehicle(v).pos
  /// between world steps (positions only move inside World::step).
  std::vector<Vec2> vpos_;
  net::NeighborIndex nindex_;
  mutable std::vector<int> neighbor_scratch_;
  FaultInjector faults_;
  AdversaryModel adversary_;
  HeteroModel hetero_;
  /// Per-train-interval straggler gate scratch (filled by the sequential
  /// dispatch in run_until before the — possibly parallel — train loop, so
  /// skip decisions and their trace events stay thread-count-invariant).
  std::vector<char> train_gate_;
  TransferStats stats_;
  std::vector<VehicleTransferStats> vstats_;
  Rng strategy_rng_;
  double time_ = 0.0;
  // Phased-execution state (serialized in checkpoints).
  RunMetrics metrics_;
  double next_train_ = 0.0;
  double next_eval_ = 0.0;
  double next_prune_ = 0.0;
  bool prepared_ = false;
  /// Atomic: incremented from concurrent local_train lanes; the final count
  /// is order-independent, so determinism is unaffected.
  std::atomic<long> train_steps_{0};
  // Per-run observability (serialized in the kObs section when events are
  // on). Written from the tick thread only.
  static constexpr std::array<double, 7> kChatDurationBounds{1.0,  2.0,  5.0, 10.0,
                                                             20.0, 40.0, 80.0};
  bool events_on_ = false;
  obs::EventTracer events_;
  /// chat.duration_s: completed chats per kChatDurationBounds bucket (last =
  /// overflow) and their summed duration in integer microunits, so the
  /// exported sum is exact.
  std::array<std::uint64_t, kChatDurationBounds.size() + 1> chat_duration_buckets_{};
  std::int64_t chat_duration_sum_micro_ = 0;
  /// finalize() ran with events on: the snapshot carries the transfer gauges.
  bool gauges_published_ = false;
  /// Worker pool for per-vehicle loops and the strategy work lent through
  /// pool() (null when cfg.num_threads == 1).
  /// Mutable: parallel dispatch from const evaluation paths mutates only
  /// pool bookkeeping, not simulation state.
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace lbchat::engine
