#include "engine/fleet.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/bytes.h"
#include "common/log.h"
#include "nn/int8_policy.h"

namespace lbchat::engine {

namespace {

std::uint64_t pair_key(int a, int b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

net::WirelessLossModel zero_loss() {
  return net::WirelessLossModel{{0.0, 1e9}, {0.0, 0.0}};
}

/// Slow-tick period for pair-map pruning (satellite of the checkpoint PR):
/// coarse on purpose — pruning only reclaims memory, never changes behaviour.
constexpr double kPairMapPruneIntervalS = 60.0;

}  // namespace

void Strategy::local_train(FleetSim& sim, int v) { sim.default_local_train(v); }

void Strategy::save_state(const FleetSim& sim, ByteWriter& w) const {
  (void)sim;
  (void)w;
}
void Strategy::load_state(FleetSim& sim, ByteReader& r) {
  (void)sim;
  (void)r;
}
void Strategy::save_session_state(const FleetSim& sim, const PairSession& s, ByteWriter& w) const {
  (void)sim;
  (void)s;
  (void)w;
}
void Strategy::load_session_state(FleetSim& sim, PairSession& s, ByteReader& r) {
  (void)sim;
  (void)s;
  (void)r;
}

FleetSim::FleetSim(const ScenarioConfig& cfg, std::unique_ptr<Strategy> strategy)
    : cfg_(cfg),
      loss_(net::WirelessLossModel::default_table(cfg.radio.max_range_m)),
      no_loss_(zero_loss()),
      world_(cfg.world, cfg.num_vehicles, cfg.seed),
      strategy_(std::move(strategy)),
      faults_(cfg.faults, cfg.seed, world_.map().extent(), cfg.num_vehicles),
      adversary_(cfg.adversary, cfg.seed, cfg.num_vehicles),
      hetero_(cfg.hetero, cfg.seed, cfg.num_vehicles),
      strategy_rng_(Rng{cfg.seed}.fork("strategy")) {
  if (strategy_ == nullptr) throw std::invalid_argument{"FleetSim: null strategy"};
  if (cfg.num_threads != 1) pool_ = std::make_unique<ThreadPool>(cfg.num_threads);
  // Lend the pool to the world's per-car speed updates (inline when null).
  world_.set_pool(pool_.get());
  nodes_.resize(static_cast<std::size_t>(cfg.num_vehicles));
  for_each_vehicle([this](std::int64_t v) {
    // Identical model initialization across vehicles (paper §II-A assumes
    // the same initialization), but per-vehicle RNG streams for sampling.
    auto node = std::make_unique<VehicleNode>(
        static_cast<int>(v), cfg_.policy, cfg_.seed ^ 0xA11CEull,
        Rng{cfg_.seed}.fork(hash_name("vehicle") + static_cast<std::uint64_t>(v)));
    node->opt = std::make_unique<nn::Adam>(cfg_.learning_rate);
    node->dataset = data::WeightedDataset{cfg_.policy.bev};
    nodes_[static_cast<std::size_t>(v)] = std::move(node);
  });
  busy_.assign(static_cast<std::size_t>(cfg.num_vehicles), nullptr);
  vstats_.assign(static_cast<std::size_t>(cfg.num_vehicles), VehicleTransferStats{});
  sync_positions();
}

void FleetSim::for_each_vehicle(const std::function<void(std::int64_t)>& fn) const {
  parallel_for(pool_.get(), 0, static_cast<std::int64_t>(nodes_.size()), fn);
}

FleetSim::~FleetSim() = default;

void FleetSim::collect_phase() {
  // Vehicles drive for collect_duration_s, grabbing one frame per 1/fps of
  // simulated time (paper: 2 fps for one hour; scaled). Frames are then split
  // per vehicle into (shared eval) / (local validation) / (local dataset).
  const double frame_dt = 1.0 / cfg_.collect_fps;
  const int frames = static_cast<int>(cfg_.collect_duration_s * cfg_.collect_fps);
  std::vector<std::vector<data::Sample>> collected(
      static_cast<std::size_t>(cfg_.num_vehicles));
  for (int f = 0; f < frames; ++f) {
    world_.step(frame_dt);
    for (int v = 0; v < cfg_.num_vehicles; ++v) {
      const std::uint64_t id =
          (static_cast<std::uint64_t>(v) << 32) | static_cast<std::uint32_t>(f);
      collected[static_cast<std::size_t>(v)].push_back(world_.collect_sample(v, id));
    }
  }
  for (int v = 0; v < cfg_.num_vehicles; ++v) {
    auto& frames_v = collected[static_cast<std::size_t>(v)];
    const std::size_t n = frames_v.size();
    if (n == 0) throw std::logic_error{"collect_phase: no frames collected"};
    const std::size_t eval_n =
        std::min<std::size_t>(static_cast<std::size_t>(cfg_.eval_frames_per_vehicle), n);
    const std::size_t eval_stride = std::max<std::size_t>(n / std::max<std::size_t>(eval_n, 1), 1);
    std::vector<char> taken(n, 0);
    for (std::size_t k = 0; k < eval_n; ++k) {
      const std::size_t idx = std::min(k * eval_stride, n - 1);
      if (taken[idx] != 0) continue;
      taken[idx] = 1;
      eval_set_.push_back(frames_v[idx]);
    }
    auto& node = *nodes_[static_cast<std::size_t>(v)];
    const auto valid_every = static_cast<std::size_t>(
        cfg_.validation_fraction > 0.0 ? std::llround(1.0 / cfg_.validation_fraction) : 0);
    // Original sample weights w(d): inverse per-command frequency, so rare
    // commands (turns) are not drowned out by lane-following frames. This is
    // the command-balance goal of the paper's sigma(x) penalty (Eq. (6))
    // carried into the weighted dataset: weighted batch sampling and the
    // w(d)-weighted layered sampling of Algorithm 1 both see balanced
    // commands.
    std::array<std::size_t, data::kNumCommands> counts{};
    for (const auto& s : frames_v) ++counts[static_cast<std::size_t>(s.command)];
    for (std::size_t i = 0; i < n; ++i) {
      if (taken[i] != 0) continue;
      data::Sample s = frames_v[i];
      const auto c = counts[static_cast<std::size_t>(s.command)];
      if (c > 0) {
        // Multiplied onto the braking upweight collect_sample already set.
        s.weight *= std::clamp(
            static_cast<double>(n) / (data::kNumCommands * static_cast<double>(c)), 0.25, 8.0);
        s.weight = std::clamp(s.weight, 0.25, 10.0);
      }
      if (valid_every > 0 && i % valid_every == valid_every - 1) {
        node.validation.push_back(std::move(s));
      } else {
        node.dataset.add(std::move(s));
      }
    }
    // Heterogeneity: skewed dataset sizes. Stride-decimate the training set
    // down to the vehicle's keep fraction (Bresenham-style integer selection
    // — deterministic, no per-sample RNG). Eval/validation splits untouched;
    // keep >= 1 leaves the dataset byte-identical to the unskewed path.
    const double keep = hetero_.dataset_keep(v);
    if (keep < 1.0 && node.dataset.samples().size() > 1) {
      const std::size_t total = node.dataset.samples().size();
      const auto kept = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(keep * static_cast<double>(total))));
      if (kept < total) {
        data::WeightedDataset trimmed{cfg_.policy.bev};
        for (std::size_t j = 0; j < total; ++j) {
          if ((j + 1) * kept / total > j * kept / total) {
            trimmed.add(node.dataset.samples()[j]);
          }
        }
        node.dataset = std::move(trimmed);
      }
    }
    if (node.dataset.empty()) throw std::logic_error{"collect_phase: empty local dataset"};
  }
  sync_positions();
}

void FleetSim::sync_positions() {
  vpos_.resize(static_cast<std::size_t>(cfg_.num_vehicles));
  for (int v = 0; v < cfg_.num_vehicles; ++v) {
    vpos_[static_cast<std::size_t>(v)] = world_.vehicle(v).pos;
  }
  nindex_.rebuild(vpos_, cfg_.radio.max_range_m);
}

double FleetSim::pair_distance(int a, int b) const {
  return distance(vpos_[static_cast<std::size_t>(a)], vpos_[static_cast<std::size_t>(b)]);
}

bool FleetSim::in_range(int a, int b) const {
  return pair_distance(a, b) <= cfg_.radio.max_range_m;
}

const std::vector<int>& FleetSim::neighbors_in_range(int v) const {
  nindex_.query(v, neighbor_scratch_);
  return neighbor_scratch_;
}

bool FleetSim::cooldown_passed(int a, int b) const {
  const auto it = last_chat_.find(pair_key(a, b));
  if (it == last_chat_.end()) return true;
  double cooldown = cfg_.pair_cooldown_s;
  if (cfg_.faults.chat_backoff) {
    const auto bo = pair_backoff_.find(pair_key(a, b));
    if (bo != pair_backoff_.end() && bo->second > 0) {
      const int exp = std::min(bo->second, cfg_.faults.backoff_max_exp);
      cooldown *= std::pow(cfg_.faults.backoff_base, exp);
    }
  }
  return time_ - it->second >= cooldown;
}

void FleetSim::note_pair_failure(int a, int b) {
  if (!cfg_.faults.chat_backoff) return;
  ++backoff_inserts_;
  const int consecutive = ++pair_backoff_[pair_key(a, b)];
  ++stats_.backoff_retries;
  emit(obs::EventKind::kBackoffExtend, a, b, consecutive);
}

void FleetSim::note_frame_rejected(int receiver, bool is_model, bool invalid_values) {
  ++stats_.frames_rejected;
  if (is_model) ++stats_.model_frames_rejected;
  if (invalid_values) ++stats_.frames_rejected_invalid;
  if (receiver >= 0) {
    VehicleTransferStats& vs = vehicle_stats(receiver);
    ++vs.frames_rejected;
    if (is_model) ++vs.model_frames_rejected;
  }
  emit(obs::EventKind::kFrameReject, receiver, -1, is_model ? 1.0 : 0.0);
}

void FleetSim::note_aggregate(int receiver, int sender, double peer_weight) {
  // Attacker-weight share: accumulate the peer-weight mass honest receivers
  // grant, split by sender cohort. Byzantine receivers are excluded — their
  // merges do not dilute the honest fleet.
  if (adversary_.active() && receiver >= 0 && !adversary_.byzantine(receiver)) {
    stats_.total_peer_weight += peer_weight;
    if (sender >= 0 && adversary_.byzantine(sender)) {
      stats_.attacker_peer_weight += peer_weight;
    }
  }
  emit(obs::EventKind::kAggregate, receiver, sender, peer_weight);
}

void FleetSim::note_pair_success(int a, int b) {
  if (!cfg_.faults.chat_backoff) return;
  pair_backoff_.erase(pair_key(a, b));
}

net::AssistInfo FleetSim::assist_info(int v, bool share_route) const {
  const sim::CarAgent& car = world_.vehicle(v);
  net::AssistInfo info;
  info.pos = car.pos;
  info.velocity = Vec2{std::cos(car.heading), std::sin(car.heading)} * car.speed;
  info.speed = car.speed;
  info.route_s = car.s;
  info.route = share_route ? &car.route : nullptr;
  info.bandwidth_bps = cfg_.radio.bandwidth_bps;
  // Heterogeneity: a slow radio advertises its scaled bandwidth, so priority
  // scores (min{B_i, B_j}, Eq. (5)) see the true link capacity.
  if (hetero_.active()) info.bandwidth_bps *= hetero_.radio_scale(v);
  return info;
}

net::ContactEstimate FleetSim::estimate_contact_between(int a, int b, bool share_routes) const {
  // Estimates use the loss model that actually governs the channel, so the
  // no-wireless-loss configuration predicts full-bandwidth goodput.
  return net::estimate_contact(assist_info(a, share_routes), assist_info(b, share_routes),
                               cfg_.radio, cfg_.wireless_loss ? loss_ : no_loss_);
}

PairSession& FleetSim::start_session(int a, int b) {
  if (!is_idle(a) || !is_idle(b)) throw std::logic_error{"start_session: endpoint busy"};
  auto s = std::make_unique<PairSession>();
  s->a_ = a;
  s->b_ = b;
  s->started_at_ = time_;
  busy_[static_cast<std::size_t>(a)] = s.get();
  busy_[static_cast<std::size_t>(b)] = s.get();
  last_chat_[pair_key(a, b)] = time_;
  ++chat_inserts_;
  ++stats_.sessions_started;
  // Session-ordinal RNG stream: reproducible from (seed, start count), and
  // private to this session so transfer ticks can run on concurrent lanes.
  s->rng_ = Rng{cfg_.seed}.fork(hash_name("session") +
                                static_cast<std::uint64_t>(stats_.sessions_started));
  ++vehicle_stats(a).chats_started;
  ++vehicle_stats(b).chats_started;
  emit(obs::EventKind::kChatStart, a, b);
  sessions_.push_back(std::move(s));
  return *sessions_.back();
}

net::RadioConfig FleetSim::session_radio(int a, int b) const {
  net::RadioConfig radio = cfg_.radio;
  if (hetero_.active()) {
    radio.bandwidth_bps *= std::min(hetero_.radio_scale(a), hetero_.radio_scale(b));
  }
  return radio;
}

void FleetSim::queue_transfer(PairSession& s, int from_vehicle, std::size_t bytes,
                              StageTag tag, std::vector<std::uint8_t> payload) {
  tag.from = from_vehicle;
  const int receiver = s.peer_of(from_vehicle);
  // Byzantine mutation happens here — at payload-construction time, before
  // the bytes enter the wire — so every poisoned frame re-encodes with a
  // valid CRC and only value-level scoring at the receiver can catch it.
  // queue_transfer runs on the single-threaded tick path (strategy on_tick /
  // session callbacks), so the adversary's noise stream needs no locking.
  if (adversary_.active() && adversary_.byzantine(from_vehicle) &&
      !payload.empty()) {
    if (adversary_.transform_payload(static_cast<int>(tag.kind), payload,
                                     cfg_.policy.bev)) {
      ++stats_.byzantine_payloads_sent;
      emit(obs::EventKind::kByzantinePayload, from_vehicle, receiver,
           static_cast<double>(tag.kind));
    }
  }
  if (tag.kind == StageTag::kModel && bytes > 0) {
    ++stats_.model_sends_started;
    ++vehicle_stats(receiver).model_recv_started;
    emit(obs::EventKind::kModelSend, from_vehicle, receiver, static_cast<double>(bytes));
  }
  if (tag.kind == StageTag::kCoreset && bytes > 0) ++stats_.coreset_sends_started;
  s.queue_.push_back(PairSession::Stage{tag, net::Transfer{bytes, session_radio(s.a_, s.b_)},
                                        std::move(payload)});
}

bool FleetSim::infra_transfer_succeeds(Rng& r) {
  if (!cfg_.wireless_loss) return true;
  const double p = loss_.sample_uniform_loss(r);
  return r.chance(1.0 - p);
}

void FleetSim::tick_sessions(double dt) {
  LBCHAT_OBS_SPAN("engine.tick_sessions");
  const net::WirelessLossModel& active_loss = cfg_.wireless_loss ? loss_ : no_loss_;
  // Iterate over a snapshot: callbacks may start new sessions.
  const std::size_t count = sessions_.size();

  // Two phases (DESIGN.md §11), run identically at any lane count.
  //
  // Phase 1 (concurrent lanes): per-session geometry, the abort verdict, and
  // — when the head transfer is incomplete at tick start — one transfer tick
  // drawing from the session's private RNG stream. Touches only
  // session-owned state plus an index-addressed plan slot; every piece of
  // shared accounting (stats, traces, strategy callbacks) waits for the
  // sequential id-ordered phase 2 below.
  struct Plan {
    double d = 0.0;
    double extra = 0.0;
    bool abort = false;
    bool ticked = false;  ///< phase 1 advanced the head transfer
    std::uint64_t delivered = 0;
  };
  std::vector<Plan> plans(count);
  const auto prep = [&](std::int64_t idx) {
    PairSession& s = *sessions_[static_cast<std::size_t>(idx)];
    if (s.closed_ && s.queue_.empty()) return;
    Plan& p = plans[static_cast<std::size_t>(idx)];
    const Vec2& pos_a = vpos_[static_cast<std::size_t>(s.a_)];
    const Vec2& pos_b = vpos_[static_cast<std::size_t>(s.b_)];
    p.d = distance(pos_a, pos_b);
    // Interference bursts add per-packet loss on top of the distance table
    // (0.0 when no burst covers either endpoint, which is always true with
    // fault injection off).
    p.extra = faults_.extra_loss(pos_a, pos_b);
    p.abort = p.d > cfg_.radio.max_range_m || (!s.queue_.empty() && time_ > s.deadline_s) ||
              (!s.queue_.empty() && time_ - s.started_at_ > cfg_.session_timeout_s);
    if (p.abort || s.queue_.empty()) return;
    auto& stage = s.queue_.front();
    // A complete (zero-byte) head is drained — and the next incomplete
    // stage ticked inline — by phase 2, which may consume s.rng_ there.
    if (!stage.transfer.complete()) {
      p.delivered = stage.transfer.tick(p.d, dt, active_loss, s.rng_, p.extra);
      p.ticked = true;
    }
  };
  parallel_for(pool_.get(), 0, static_cast<std::int64_t>(count), prep);

  for (std::size_t i = 0; i < count; ++i) {
    PairSession& s = *sessions_[i];
    if (s.closed_ && s.queue_.empty()) continue;
    const Plan& plan = plans[i];
    if (plan.abort) {
      ++stats_.sessions_aborted;
      // A deadline/timeout abort while a burst blacks the link out is
      // attributed to the blackout: the transfer could not make progress.
      const bool blackout = plan.extra >= 1.0 && !s.queue_.empty();
      if (blackout) ++stats_.sessions_lost_to_blackout;
      ++vehicle_stats(s.a_).chats_aborted;
      ++vehicle_stats(s.b_).chats_aborted;
      emit(obs::EventKind::kChatAbort, s.a_, s.b_, blackout ? 1.0 : 0.0);
      s.queue_.clear();
      s.closed_ = true;
      s.aborted_ = true;
      strategy_->on_session_aborted(*this, s);
      continue;
    }
    // Drain any zero-byte stages, then advance the head transfer once.
    const auto credit = [&](std::uint64_t delivered, const PairSession::Stage& stage) {
      stats_.bytes_delivered += delivered;
      if (delivered > 0) {
        vehicle_stats(stage.tag.from).bytes_sent += delivered;
        vehicle_stats(s.peer_of(stage.tag.from)).bytes_received += delivered;
      }
    };
    // Phase 1 may already have advanced the head on a worker lane; book its
    // bytes here, in session order, so the accounting is thread-count-invariant.
    bool ticked = plan.ticked;
    if (ticked) credit(plan.delivered, s.queue_.front());
    while (!s.queue_.empty()) {
      auto& stage = s.queue_.front();
      if (!stage.transfer.complete() && !ticked) {
        credit(stage.transfer.tick(plan.d, dt, active_loss, s.rng_, plan.extra), stage);
        ticked = true;
      }
      if (!stage.transfer.complete()) break;
      const StageTag tag = stage.tag;
      s.delivered_payload_ = std::move(stage.payload);
      s.queue_.pop_front();
      if (!s.delivered_payload_.empty() &&
          faults_.corrupt_delivery(plan.d, cfg_.radio.max_range_m)) {
        faults_.corrupt_payload(s.delivered_payload_);
      }
      if (tag.kind == StageTag::kModel) {
        ++stats_.model_sends_completed;
        ++vehicle_stats(s.peer_of(tag.from)).model_recv_completed;
      }
      if (tag.kind == StageTag::kCoreset) ++stats_.coreset_sends_completed;
      strategy_->on_transfer_complete(*this, s, tag);
      s.delivered_payload_.clear();
      if (s.closed_) {
        s.queue_.clear();
        break;
      }
    }
    if (s.queue_.empty() && !s.closed_) {
      strategy_->on_session_idle(*this, s);
    }
  }
  reap_sessions();
}

void FleetSim::reap_sessions() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    PairSession& s = **it;
    if (s.closed_ && s.queue_.empty()) {
      if (busy_[static_cast<std::size_t>(s.a_)] == &s) {
        busy_[static_cast<std::size_t>(s.a_)] = nullptr;
      }
      if (busy_[static_cast<std::size_t>(s.b_)] == &s) {
        busy_[static_cast<std::size_t>(s.b_)] = nullptr;
        last_chat_[pair_key(s.a_, s.b_)] = time_;
        ++chat_inserts_;
      }
      if (!s.aborted_) {
        const double duration = time_ - s.started_at_;
        ++vehicle_stats(s.a_).chats_completed;
        ++vehicle_stats(s.b_).chats_completed;
        emit(obs::EventKind::kChatComplete, s.a_, s.b_, duration);
        if (events_on_) {
          const auto bucket = std::lower_bound(kChatDurationBounds.begin(),
                                               kChatDurationBounds.end(), duration) -
                              kChatDurationBounds.begin();
          ++chat_duration_buckets_[static_cast<std::size_t>(bucket)];
          chat_duration_sum_micro_ += std::llround(duration * 1e6);
        }
      }
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void FleetSim::abort_sessions_of(int v) {
  PairSession* s = busy_[static_cast<std::size_t>(v)];
  if (s == nullptr || (s->closed_ && s->queue_.empty())) return;
  ++stats_.sessions_aborted;
  ++vehicle_stats(s->a_).chats_aborted;
  ++vehicle_stats(s->b_).chats_aborted;
  emit(obs::EventKind::kChatAbort, s->a_, s->b_, 0.0);
  s->queue_.clear();
  s->closed_ = true;
  s->aborted_ = true;
  strategy_->on_session_aborted(*this, *s);
}

double FleetSim::default_local_train(int v) {
  LBCHAT_OBS_SPAN("engine.local_train");
  VehicleNode& n = node(v);
  const auto idx = n.dataset.sample_batch(n.rng, static_cast<std::size_t>(cfg_.batch_size));
  std::vector<const data::Sample*> batch;
  batch.reserve(idx.size());
  for (const std::size_t i : idx) batch.push_back(&n.dataset[i]);
  ++train_steps_;
  return n.model.train_batch(batch, *n.opt);
}

std::vector<double> FleetSim::vehicle_eval_losses() const {
  LBCHAT_OBS_SPAN("engine.mean_eval_loss");
  // Per-vehicle losses land in index-addressed slots; every reduction over
  // them runs sequentially afterwards, so it is bit-identical at any lane
  // count.
  std::vector<double> losses(nodes_.size(), 0.0);
  for_each_vehicle([&](std::int64_t v) {
    const nn::DrivingPolicy& model = nodes_[static_cast<std::size_t>(v)]->model;
    losses[static_cast<std::size_t>(v)] = cfg_.int8_eval.enabled
                                              ? nn::Int8Policy{model}.weighted_loss(eval_set_)
                                              : model.weighted_loss(eval_set_);
  });
  return losses;
}

double FleetSim::mean_eval_loss() const {
  if (eval_set_.empty() || nodes_.empty()) return 0.0;
  return mean(vehicle_eval_losses());
}

void FleetSim::eval_and_record(RunMetrics& metrics, double t) {
  if (eval_set_.empty() || nodes_.empty()) {
    metrics.loss_curve.add(t, 0.0);
    return;
  }
  const std::vector<double> losses = vehicle_eval_losses();
  const double fleet_loss = mean(losses);
  metrics.loss_curve.add(t, fleet_loss);
  if (adversary_.active()) {
    // Cohort split from the same per-vehicle losses (sequential reduction,
    // same order). Degenerate cohorts record 0 to keep the series aligned.
    double honest_sum = 0.0, attacker_sum = 0.0;
    std::size_t honest_n = 0, attacker_n = 0;
    for (std::size_t v = 0; v < nodes_.size(); ++v) {
      if (adversary_.byzantine(static_cast<int>(v))) {
        attacker_sum += losses[v];
        ++attacker_n;
      } else {
        honest_sum += losses[v];
        ++honest_n;
      }
    }
    metrics.honest_loss_curve.add(t, honest_n > 0 ? honest_sum / static_cast<double>(honest_n)
                                                  : 0.0);
    metrics.attacker_loss_curve.add(
        t, attacker_n > 0 ? attacker_sum / static_cast<double>(attacker_n) : 0.0);
  }
  metrics.per_vehicle_loss.resize(nodes_.size());
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    metrics.per_vehicle_loss[v].add(t, losses[v]);
  }
  if (events_on_) events_.emit(obs::Event{t, obs::EventKind::kEval, -1, -1, fleet_loss});
}

obs::Snapshot FleetSim::metrics_snapshot() const {
  obs::Snapshot snap;
  if (!events_on_) return snap;
  const long steps = train_steps_.load();
  if (steps > 0) {
    snap.metrics.push_back({"train.steps", obs::MetricKind::kCounter,
                            static_cast<std::uint64_t>(steps), 0.0, {}, {}});
  }
  std::uint64_t chats = 0;
  for (const std::uint64_t n : chat_duration_buckets_) chats += n;
  if (chats > 0) {
    snap.metrics.push_back(
        {"chat.duration_s", obs::MetricKind::kHistogram, chats,
         static_cast<double>(chat_duration_sum_micro_) / 1e6,
         {kChatDurationBounds.begin(), kChatDurationBounds.end()},
         {chat_duration_buckets_.begin(), chat_duration_buckets_.end()}});
  }
  if (gauges_published_) {
    const auto gauge = [&snap](const char* name, double value) {
      snap.metrics.push_back({name, obs::MetricKind::kGauge, 0, value, {}, {}});
    };
    gauge("transfer.bytes_delivered", static_cast<double>(stats_.bytes_delivered));
    gauge("transfer.model_sends_started", stats_.model_sends_started);
    gauge("transfer.model_sends_completed", stats_.model_sends_completed);
    gauge("transfer.coreset_sends_started", stats_.coreset_sends_started);
    gauge("transfer.coreset_sends_completed", stats_.coreset_sends_completed);
    gauge("transfer.sessions_started", stats_.sessions_started);
    gauge("transfer.sessions_aborted", stats_.sessions_aborted);
    gauge("transfer.frames_rejected", stats_.frames_rejected);
    gauge("transfer.model_frames_rejected", stats_.model_frames_rejected);
    gauge("transfer.sessions_lost_to_blackout", stats_.sessions_lost_to_blackout);
    gauge("transfer.backoff_retries", stats_.backoff_retries);
    gauge("transfer.offline_vehicle_seconds", stats_.offline_vehicle_seconds);
    gauge("transfer.model_receiving_rate", stats_.model_receiving_rate());
    gauge("transfer.effective_model_receiving_rate", stats_.effective_model_receiving_rate());
    // Gated on configuration (not just nonzero values) so runs without an
    // adversary/heterogeneity block — including the committed golden
    // scenarios — export the same snapshot as before those blocks existed.
    if (cfg_.adversary.enabled()) {
      gauge("adversary.byzantine_payloads_sent", stats_.byzantine_payloads_sent);
      gauge("adversary.attacker_weight_share", stats_.attacker_weight_share());
      gauge("adversary.frames_rejected_invalid", stats_.frames_rejected_invalid);
    }
    if (cfg_.hetero.enabled()) {
      gauge("hetero.straggler_train_skips", static_cast<double>(stats_.straggler_train_skips));
    }
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const obs::MetricValue& a, const obs::MetricValue& b) { return a.name < b.name; });
  return snap;
}

void FleetSim::prepare() {
  if (prepared_) return;
  collect_phase();
  strategy_->setup(*this);
  eval_and_record(metrics_, 0.0);
  next_train_ = cfg_.train_interval_s;
  next_eval_ = cfg_.eval_interval_s;
  next_prune_ = kPairMapPruneIntervalS;
  prepared_ = true;
}

void FleetSim::run_until(double t_end) {
  prepare();
  const double end = std::min(t_end, cfg_.duration_s);
  while (time_ < end) {
    world_.step(cfg_.tick_s);
    sync_positions();
    time_ += cfg_.tick_s;
    faults_.advance(time_, cfg_.tick_s, events_on_ ? &events_ : nullptr);
    // Churn: a vehicle dropping out mid-session aborts it (the peer sees
    // on_session_aborted, as if the link died); its own training and
    // chatting pause until it rejoins, state intact.
    for (const int v : faults_.went_offline()) abort_sessions_of(v);
    if (faults_.offline_count() > 0) {
      stats_.offline_vehicle_seconds += cfg_.tick_s * faults_.offline_count();
      for (int v = 0; v < num_vehicles(); ++v) {
        if (faults_.offline(v)) vehicle_stats(v).offline_seconds += cfg_.tick_s;
      }
      reap_sessions();
    }
    if (time_ >= next_train_) {
      // Straggler dispatch runs sequentially before the (possibly parallel)
      // train loop: the credit accumulators mutate in vehicle order and the
      // skip events/counters land on the single-threaded path, so the gate —
      // and everything downstream of it — is thread-count-invariant.
      if (hetero_.active()) {
        train_gate_.assign(static_cast<std::size_t>(num_vehicles()), 1);
        for (int v = 0; v < num_vehicles(); ++v) {
          if (faults_.offline(v)) {
            train_gate_[static_cast<std::size_t>(v)] = 0;
            continue;
          }
          if (!hetero_.should_train(v)) {
            train_gate_[static_cast<std::size_t>(v)] = 0;
            ++stats_.straggler_train_skips;
            emit(obs::EventKind::kStragglerSkip, v);
          }
        }
      }
      const auto gated = [this](int v) {
        return hetero_.active() ? train_gate_[static_cast<std::size_t>(v)] == 0
                                : faults_.offline(v);
      };
      if (strategy_->parallel_local_train()) {
        for_each_vehicle([this, &gated](std::int64_t v) {
          if (gated(static_cast<int>(v))) return;
          LBCHAT_OBS_SPAN("engine.local_train_lane");
          strategy_->local_train(*this, static_cast<int>(v));
        });
      } else {
        for (int v = 0; v < num_vehicles(); ++v) {
          if (gated(v)) continue;
          LBCHAT_OBS_SPAN("engine.local_train_lane");
          strategy_->local_train(*this, v);
        }
      }
      next_train_ += cfg_.train_interval_s;
    }
    strategy_->on_tick(*this);
    tick_sessions(cfg_.tick_s);
    if (time_ >= next_eval_) {
      eval_and_record(metrics_, time_);
      next_eval_ += cfg_.eval_interval_s;
    }
    if (time_ >= next_prune_) {
      prune_pair_maps();
      next_prune_ = time_ + kPairMapPruneIntervalS;
    }
  }
}

RunMetrics FleetSim::finalize() {
  if (metrics_.loss_curve.times.empty() || metrics_.loss_curve.times.back() < cfg_.duration_s) {
    eval_and_record(metrics_, cfg_.duration_s);
  }
  metrics_.transfers = stats_;
  metrics_.per_vehicle = vstats_;
  metrics_.train_steps = train_steps_.load();
  metrics_.final_params.clear();
  metrics_.final_params.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    metrics_.final_params.emplace_back(n->model.params().begin(), n->model.params().end());
  }
  gauges_published_ = events_on_;
  return metrics_;
}

RunMetrics FleetSim::run() {
  prepare();
  run_until(cfg_.duration_s);
  return finalize();
}

void FleetSim::prune_pair_maps() {
  // Scan budget per slow tick: a multiple of the inserts since the last
  // prune, floored so that at default fleet sizes it exceeds both map sizes
  // and the sweep degenerates to the original full two-pass sweep (same
  // entries removed — so historical runs and goldens are unaffected). At
  // metro scale the budget bounds the per-tick work while still retiring
  // entries 4x faster than they arrive, so map sizes plateau.
  const std::size_t budget =
      std::max<std::size_t>(256, 4 * (chat_inserts_ + backoff_inserts_));
  chat_inserts_ = 0;
  backoff_inserts_ = 0;
  // Same predicate as cooldown_passed(): once it holds, the entry is
  // indistinguishable from an absent one, so dropping it never changes
  // behaviour — which is also why the sweep order/cursor is free to differ
  // across restores (the cursors are deliberately not checkpointed).
  const auto expired = [this](std::uint64_t key, double last) {
    double cooldown = cfg_.pair_cooldown_s;
    if (cfg_.faults.chat_backoff) {
      const auto bo = pair_backoff_.find(key);
      if (bo != pair_backoff_.end() && bo->second > 0) {
        const int exp = std::min(bo->second, cfg_.faults.backoff_max_exp);
        cooldown *= std::pow(cfg_.faults.backoff_base, exp);
      }
    }
    return time_ - last >= cooldown;
  };
  // Bucket-cursor sweep: std::unordered_map never rehashes on erase, so
  // bucket indices stay stable while we collect-then-erase per bucket, and
  // the cursor survives across calls as a plain index.
  std::vector<std::uint64_t> doomed;
  std::size_t scanned = 0;
  if (!last_chat_.empty()) {
    const std::size_t nb = last_chat_.bucket_count();
    std::size_t b = prune_chat_bucket_ % nb;
    for (std::size_t step = 0; step < nb && scanned < budget; ++step) {
      doomed.clear();
      for (auto it = last_chat_.begin(b); it != last_chat_.end(b); ++it) {
        ++scanned;
        if (expired(it->first, it->second)) doomed.push_back(it->first);
      }
      for (const std::uint64_t k : doomed) last_chat_.erase(k);
      b = (b + 1) % nb;
    }
    prune_chat_bucket_ = b;
  }
  // Backoff counts for pairs with no surviving cooldown entry have expired:
  // the pair has been quiet for its full (extended) cooldown, so the retry
  // budget resets instead of penalizing the next contact forever.
  if (!pair_backoff_.empty()) {
    const std::size_t nb = pair_backoff_.bucket_count();
    std::size_t b = prune_backoff_bucket_ % nb;
    scanned = 0;
    for (std::size_t step = 0; step < nb && scanned < budget; ++step) {
      doomed.clear();
      for (auto it = pair_backoff_.begin(b); it != pair_backoff_.end(b); ++it) {
        ++scanned;
        if (last_chat_.find(it->first) == last_chat_.end()) doomed.push_back(it->first);
      }
      for (const std::uint64_t k : doomed) pair_backoff_.erase(k);
      b = (b + 1) % nb;
    }
    prune_backoff_bucket_ = b;
  }
}

}  // namespace lbchat::engine
