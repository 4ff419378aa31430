// Checkpoint/restore implementation (see engine/checkpoint.h and DESIGN.md
// §10 for the wire layout). save_checkpoint/restore are FleetSim members so
// the serializer reaches engine privates without widening the public API.
#include "engine/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/bytes.h"
#include "common/fingerprint.h"
#include "common/frame.h"
#include "coreset/coreset_io.h"
#include "data/sample_io.h"
#include "engine/fleet.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace lbchat::engine {

namespace {

constexpr std::uint8_t kNumSections = 9;
constexpr std::uint8_t kMaxEventKind =
    static_cast<std::uint8_t>(obs::EventKind::kStragglerSkip);
/// kObs histogram shape limit: at most this many buckets, overflow included.
constexpr std::uint32_t kMaxHistogramBuckets = 16;

/// Serialize every config field that shapes simulation state, in declaration
/// order. duration_s and num_threads are deliberately absent (checkpoint.h).
/// The one field-by-field serializer of ScenarioConfig: the checkpoint key
/// and the result-cache key (scenario_fingerprint) both hash these bytes.
void write_config(ByteWriter& w, const ScenarioConfig& c) {
  w.write_u64(c.seed);
  w.write_i32(c.num_vehicles);
  const sim::TownConfig& t = c.world.town;
  w.write_f64(t.extent_m);
  w.write_i32(t.urban_grid);
  w.write_f64(t.urban_spacing_m);
  w.write_f64(t.urban_origin_m);
  w.write_f64(t.rural_margin_m);
  w.write_i32(t.rural_ring_nodes);
  w.write_f64(t.edge_drop_prob);
  w.write_f64(t.road_half_width_m);
  w.write_f64(t.raster_cell_m);
  const auto write_bev = [&w](const data::BevSpec& b) {
    w.write_i32(b.channels);
    w.write_i32(b.height);
    w.write_i32(b.width);
    w.write_f64(b.cell_m);
  };
  const sim::WorldConfig& wc = c.world;
  write_bev(wc.bev);
  w.write_i32(wc.num_background_cars);
  w.write_i32(wc.num_pedestrians);
  w.write_f64(wc.car_radius_m);
  w.write_f64(wc.ped_radius_m);
  w.write_f64(wc.car_max_speed);
  w.write_f64(wc.turn_speed);
  w.write_f64(wc.accel);
  w.write_f64(wc.brake_decel);
  w.write_f64(wc.min_gap_m);
  w.write_f64(wc.obstacle_lookahead_m);
  w.write_f64(wc.corridor_halfwidth_m);
  w.write_f64(wc.lane_offset_m);
  w.write_f64(wc.deadlock_patience_s);
  w.write_f64(wc.deadlock_ignore_s);
  w.write_f64(wc.bend_lookahead_m);
  w.write_f64(wc.bend_threshold_rad);
  w.write_f64(wc.perturb_prob);
  w.write_f64(wc.perturb_lateral_max_m);
  w.write_f64(wc.perturb_heading_max_rad);
  w.write_f64(wc.ped_speed);
  w.write_f64(wc.ped_target_radius_m);
  w.write_f64(wc.waypoint_dt_s);
  w.write_f64(wc.urban_dweller_fraction);
  w.write_f64(c.radio.bandwidth_bps);
  w.write_i32(c.radio.packet_bytes);
  w.write_i32(c.radio.max_retransmissions);
  w.write_f64(c.radio.max_range_m);
  w.write_u64(c.wire.model_bytes);
  w.write_u64(c.wire.coreset_bytes_per_sample);
  w.write_u64(c.wire.assist_info_bytes);
  w.write_u8(c.wireless_loss ? 1 : 0);
  w.write_f64(c.collect_duration_s);
  w.write_f64(c.collect_fps);
  w.write_f64(c.validation_fraction);
  w.write_i32(c.eval_frames_per_vehicle);
  w.write_f64(c.tick_s);
  w.write_f64(c.train_interval_s);
  w.write_i32(c.batch_size);
  w.write_f64(c.learning_rate);
  w.write_f64(c.eval_interval_s);
  w.write_f64(c.time_budget_s);
  w.write_u64(c.coreset_size);
  w.write_f64(c.pair_cooldown_s);
  w.write_f64(c.lambda_c);
  w.write_f64(c.session_timeout_s);
  w.write_f64(c.coreset_rebuild_interval_s);
  write_bev(c.policy.bev);
  w.write_i32(c.policy.conv1_channels);
  w.write_i32(c.policy.conv2_channels);
  w.write_i32(c.policy.fc_dim);
  w.write_i32(c.policy.branch_hidden);
  w.write_f64(c.penalty.lambda1);
  w.write_f64(c.penalty.lambda2);
  const FaultConfig& f = c.faults;
  w.write_f64(f.burst_rate_per_min);
  w.write_f64(f.burst_duration_s);
  w.write_f64(f.burst_radius_m);
  w.write_f64(f.burst_extra_loss);
  w.write_f64(f.churn_rate_per_min);
  w.write_f64(f.churn_offline_mean_s);
  w.write_f64(f.corrupt_prob_near);
  w.write_f64(f.corrupt_prob_far);
  w.write_u8(f.chat_backoff ? 1 : 0);
  w.write_f64(f.backoff_base);
  w.write_i32(f.backoff_max_exp);
  // Adversary/heterogeneity block (a conditional tail): written only when
  // one of the layers is configured, so all-off runs keep the
  // pre-existing fingerprint and checkpoint bytes. The fingerprint is hashed,
  // never parsed, so appending fields here is always safe.
  if (c.adversary.enabled() || c.hetero.enabled()) {
    w.write_u8(0xAD);
    const AdversaryConfig& a = c.adversary;
    w.write_f64(a.byzantine_frac);
    w.write_u8(a.poison_models ? 1 : 0);
    w.write_f64(a.poison_scale);
    w.write_f64(a.poison_noise);
    w.write_u8(a.inflate_coreset_weights ? 1 : 0);
    w.write_f64(a.coreset_inflation);
    w.write_u8(a.lie_assist ? 1 : 0);
    w.write_f64(a.assist_bandwidth_lie);
    const HeteroConfig& h = c.hetero;
    w.write_f64(h.straggler_frac);
    w.write_f64(h.straggler_rate);
    w.write_f64(h.slow_radio_frac);
    w.write_f64(h.slow_radio_scale);
    w.write_f64(h.dataset_skew);
    w.write_f64(h.dataset_keep_min);
  }
  // Int8-eval block (same conditional-tail pattern, marker 0x18): written
  // only when the quantized eval path is on, so default-config checkpoints
  // keep their pre-existing bytes. A resume must replay the same eval
  // numerics, hence the knob fingerprints whenever it is live.
  if (c.int8_eval.enabled) {
    w.write_u8(0x18);
    w.write_u8(c.int8_eval.value_scoring ? 1 : 0);
    w.write_u8(c.int8_eval.eval_loss ? 1 : 0);
  }
}

void write_time_series(ByteWriter& w, const TimeSeries& ts) {
  w.write_f64_vec(ts.times);
  w.write_f64_vec(ts.values);
}

TimeSeries read_time_series(ByteReader& r) {
  TimeSeries ts;
  ts.times = r.read_f64_vec();
  ts.values = r.read_f64_vec();
  if (ts.times.size() != ts.values.size()) {
    throw std::runtime_error{"checkpoint: time series length mismatch"};
  }
  return ts;
}

}  // namespace

std::string_view section_name(std::uint8_t tag) {
  switch (static_cast<CkptSection>(tag)) {
    case CkptSection::kCore: return "core";
    case CkptSection::kWorld: return "world";
    case CkptSection::kFaults: return "faults";
    case CkptSection::kNodes: return "nodes";
    case CkptSection::kSessions: return "sessions";
    case CkptSection::kStats: return "stats";
    case CkptSection::kMetrics: return "metrics";
    case CkptSection::kStrategy: return "strategy";
    case CkptSection::kObs: return "obs";
  }
  return "?";
}

std::string_view to_string(CkptStatus s) {
  switch (s) {
    case CkptStatus::kOk: return "ok";
    case CkptStatus::kBadFrame: return "bad_frame";
    case CkptStatus::kBadVersion: return "bad_version";
    case CkptStatus::kConfigMismatch: return "config_mismatch";
    case CkptStatus::kStrategyMismatch: return "strategy_mismatch";
    case CkptStatus::kMalformed: return "malformed";
  }
  return "?";
}

std::uint64_t config_fingerprint(const ScenarioConfig& cfg) {
  ByteWriter w;
  write_config(w, cfg);
  return fnv1a(w.bytes());
}

std::uint64_t scenario_fingerprint(const ScenarioConfig& cfg, std::string_view approach,
                                   std::span<const StrategyOptionKv> options) {
  FnvHasher h;
  h.add(approach);
  // Protocol revision salt for the LbChat-family strategies (phi sampling +
  // aggregation guard changes invalidate only their cached runs).
  if (approach == "LbChat" || approach == "LbChat(equal-comp)" ||
      approach == "LbChat(avg-agg)") {
    h.add(std::string_view{"lbchat-proto-v3"});
  }
  h.add(static_cast<std::uint64_t>(kScenarioFingerprintVersion));
  h.add(cfg.duration_s);
  h.add(config_fingerprint(cfg));
  if (!options.empty()) {
    h.add(std::string_view{"strategy-options-v1"});
    for (const StrategyOptionKv& kv : options) {
      h.add(std::string_view{kv.key});
      h.add(kv.value);
    }
  }
  return h.digest();
}

std::string ckpt_info_json(const CkptInfo& info) {
  // Strategy names are short ASCII identifiers, but a hostile checkpoint can
  // put anything in that field — escape it like a JSON string must be.
  std::string strat;
  for (const char c : info.strategy) {
    switch (c) {
      case '"': strat += "\\\""; break;
      case '\\': strat += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          strat += buf;
        } else {
          strat += c;
        }
    }
  }
  char head[256];
  std::snprintf(head, sizeof head,
                "{\"version\":%u,\"fingerprint\":\"%016llx\",\"seed\":%llu,"
                "\"vehicles\":%u,\"strategy\":\"%s\",\"time_s\":",
                info.version, static_cast<unsigned long long>(info.config_fingerprint),
                static_cast<unsigned long long>(info.seed), info.num_vehicles,
                strat.c_str());
  std::string out{head};
  out += obs::format_double(info.time_s);
  out += ",\"sections\":[";
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    const auto& s = info.sections[i];
    char sec[96];
    std::snprintf(sec, sizeof sec, "%s{\"tag\":%u,\"name\":\"%s\",\"bytes\":%llu}",
                  i == 0 ? "" : ",", s.tag, std::string{section_name(s.tag)}.c_str(),
                  static_cast<unsigned long long>(s.bytes));
    out += sec;
  }
  out += "]}";
  return out;
}

CkptStatus inspect_checkpoint(std::span<const std::uint8_t> bytes, CkptInfo& info) {
  const auto dec = frame::decode(bytes);
  if (!dec.ok() || dec.type != frame::FrameType::kCheckpoint) return CkptStatus::kBadFrame;
  try {
    ByteReader r{dec.payload};
    info = CkptInfo{};
    info.version = r.read_u32();
    if (info.version != kCheckpointVersion) return CkptStatus::kBadVersion;
    info.config_fingerprint = r.read_u64();
    info.seed = r.read_u64();
    info.num_vehicles = r.read_u32();
    info.strategy = r.read_string();
    info.time_s = r.read_f64();
    const std::uint32_t nsec = r.read_u32();
    if (nsec > 255) return CkptStatus::kMalformed;
    for (std::uint32_t i = 0; i < nsec; ++i) {
      CkptInfo::Section s;
      s.tag = r.read_u8();
      const std::uint32_t len = r.read_u32();
      if (len > r.remaining()) return CkptStatus::kMalformed;
      s.bytes = len;
      r = ByteReader{r.rest().subspan(len)};  // skip the blob without copying
      info.sections.push_back(s);
    }
    if (!r.exhausted()) return CkptStatus::kMalformed;
    return CkptStatus::kOk;
  } catch (const std::exception&) {
    return CkptStatus::kMalformed;
  }
}

// ---------------------------------------------------------------------------
// FleetSim serialization (defined here; declared in engine/fleet.h)
// ---------------------------------------------------------------------------

void FleetSim::save_checkpoint(ByteWriter& out) const {
  ByteWriter body;
  body.write_u32(kCheckpointVersion);
  body.write_u64(config_fingerprint(cfg_));
  body.write_u64(cfg_.seed);
  body.write_u32(static_cast<std::uint32_t>(cfg_.num_vehicles));
  body.write_string(strategy_->name());
  body.write_f64(time_);
  body.write_u32(kNumSections);

  const auto section = [&body](CkptSection tag, const ByteWriter& blob) {
    body.write_u8(static_cast<std::uint8_t>(tag));
    body.write_bytes(blob.bytes());
  };

  {  // kCore: clock schedule, engine RNG streams, pair maps.
    ByteWriter w;
    w.write_u8(prepared_ ? 1 : 0);
    w.write_f64(next_train_);
    w.write_f64(next_eval_);
    w.write_f64(next_prune_);
    w.write_u64(static_cast<std::uint64_t>(train_steps_.load()));
    strategy_rng_.save(w);
    // Hash maps iterate in unspecified order; sort by key so identical state
    // yields identical bytes.
    std::vector<std::pair<std::uint64_t, double>> chats{last_chat_.begin(), last_chat_.end()};
    std::sort(chats.begin(), chats.end());
    w.write_u32(static_cast<std::uint32_t>(chats.size()));
    for (const auto& [k, t] : chats) {
      w.write_u64(k);
      w.write_f64(t);
    }
    std::vector<std::pair<std::uint64_t, int>> backoff{pair_backoff_.begin(),
                                                       pair_backoff_.end()};
    std::sort(backoff.begin(), backoff.end());
    w.write_u32(static_cast<std::uint32_t>(backoff.size()));
    for (const auto& [k, n] : backoff) {
      w.write_u64(k);
      w.write_i32(n);
    }
    // Adversary/hetero mutable state: conditional tail, present exactly when
    // the config block fingerprints it (writer and reader always agree
    // because restore() verified the fingerprint first).
    if (cfg_.adversary.enabled() || cfg_.hetero.enabled()) {
      w.write_u8(0x5E);
      adversary_.save(w);
      hetero_.save(w);
    }
    section(CkptSection::kCore, w);
  }
  {  // kWorld
    ByteWriter w;
    world_.save(w);
    section(CkptSection::kWorld, w);
  }
  {  // kFaults
    ByteWriter w;
    faults_.save(w);
    section(CkptSection::kFaults, w);
  }
  {  // kNodes: shared eval set + per-vehicle training state.
    ByteWriter w;
    w.write_u32(static_cast<std::uint32_t>(eval_set_.size()));
    for (const auto& s : eval_set_) data::write_sample(w, s);
    w.write_u32(static_cast<std::uint32_t>(nodes_.size()));
    for (const auto& np : nodes_) {
      const VehicleNode& n = *np;
      n.rng.save(w);
      const auto params = n.model.params();
      w.write_f32_vec(params);
      w.write_string(n.opt->kind());
      n.opt->save_state(w);
      w.write_u32(static_cast<std::uint32_t>(n.dataset.samples().size()));
      for (const auto& s : n.dataset.samples()) data::write_sample(w, s);
      w.write_u32(static_cast<std::uint32_t>(n.validation.size()));
      for (const auto& s : n.validation) data::write_sample(w, s);
    }
    section(CkptSection::kNodes, w);
  }
  {  // kSessions: in-flight pair sessions with queued transfers.
    ByteWriter w;
    w.write_u32(static_cast<std::uint32_t>(sessions_.size()));
    for (const auto& sp : sessions_) {
      const PairSession& s = *sp;
      w.write_i32(s.a_);
      w.write_i32(s.b_);
      w.write_f64(s.started_at_);
      w.write_u8(s.closed_ ? 1 : 0);
      w.write_u8(s.aborted_ ? 1 : 0);
      w.write_i32(s.phase);
      w.write_f64(s.deadline_s);
      s.rng_.save(w);
      w.write_u32(static_cast<std::uint32_t>(s.queue_.size()));
      for (const auto& st : s.queue_) {
        w.write_u8(static_cast<std::uint8_t>(st.tag.kind));
        w.write_i32(st.tag.from);
        w.write_i32(st.tag.payload);
        w.write_u64(st.transfer.remaining_bytes());
        w.write_bytes(st.payload);
      }
      ByteWriter scratch;
      strategy_->save_session_state(*this, s, scratch);
      w.write_bytes(scratch.bytes());
    }
    section(CkptSection::kSessions, w);
  }
  {  // kStats: fleet + per-vehicle accounting.
    ByteWriter w;
    w.write_i32(stats_.model_sends_started);
    w.write_i32(stats_.model_sends_completed);
    w.write_i32(stats_.coreset_sends_started);
    w.write_i32(stats_.coreset_sends_completed);
    w.write_i32(stats_.sessions_started);
    w.write_i32(stats_.sessions_aborted);
    w.write_u64(stats_.bytes_delivered);
    w.write_i32(stats_.frames_rejected);
    w.write_i32(stats_.model_frames_rejected);
    w.write_i32(stats_.sessions_lost_to_blackout);
    w.write_i32(stats_.backoff_retries);
    w.write_f64(stats_.offline_vehicle_seconds);
    w.write_u32(static_cast<std::uint32_t>(vstats_.size()));
    for (const auto& v : vstats_) {
      w.write_u64(v.bytes_sent);
      w.write_u64(v.bytes_received);
      w.write_i32(v.chats_started);
      w.write_i32(v.chats_completed);
      w.write_i32(v.chats_aborted);
      w.write_i32(v.model_recv_started);
      w.write_i32(v.model_recv_completed);
      w.write_i32(v.frames_rejected);
      w.write_i32(v.model_frames_rejected);
      w.write_f64(v.offline_seconds);
    }
    if (cfg_.adversary.enabled() || cfg_.hetero.enabled()) {
      w.write_u8(0x5E);
      w.write_i32(stats_.byzantine_payloads_sent);
      w.write_u64(static_cast<std::uint64_t>(stats_.straggler_train_skips));
      w.write_i32(stats_.frames_rejected_invalid);
      w.write_f64(stats_.attacker_peer_weight);
      w.write_f64(stats_.total_peer_weight);
    }
    section(CkptSection::kStats, w);
  }
  {  // kMetrics: loss curves accumulated so far. Transfer/param fields of
    // RunMetrics are filled by finalize() from live state, so only the
    // curves need serializing.
    ByteWriter w;
    write_time_series(w, metrics_.loss_curve);
    w.write_u32(static_cast<std::uint32_t>(metrics_.per_vehicle_loss.size()));
    for (const auto& ts : metrics_.per_vehicle_loss) write_time_series(w, ts);
    if (cfg_.adversary.enabled()) {
      w.write_u8(0x5E);
      write_time_series(w, metrics_.honest_loss_curve);
      write_time_series(w, metrics_.attacker_loss_curve);
    }
    section(CkptSection::kMetrics, w);
  }
  {  // kStrategy
    ByteWriter blob;
    strategy_->save_state(*this, blob);
    ByteWriter w;
    w.write_bytes(blob.bytes());
    section(CkptSection::kStrategy, w);
  }
  {  // kObs: the run's event ring + metrics snapshot, captured only when
    // its events are on (with them off both are empty by contract).
    ByteWriter w;
    w.write_u8(events_on_ ? 1 : 0);
    if (events_on_) {
      const auto events = events_.events();
      w.write_u32(static_cast<std::uint32_t>(events.size()));
      for (const auto& e : events) {
        w.write_f64(e.t);
        w.write_u8(static_cast<std::uint8_t>(e.kind));
        w.write_i32(e.a);
        w.write_i32(e.b);
        w.write_f64(e.value);
      }
      w.write_u64(events_.dropped());
      const auto snap = metrics_snapshot();
      w.write_u32(static_cast<std::uint32_t>(snap.metrics.size()));
      for (const auto& m : snap.metrics) {
        w.write_string(m.name);
        w.write_u8(static_cast<std::uint8_t>(m.kind));
        w.write_u64(m.count);
        w.write_f64(m.value);
        w.write_f64_vec(m.bounds);
        w.write_u32(static_cast<std::uint32_t>(m.buckets.size()));
        for (const std::uint64_t b : m.buckets) w.write_u64(b);
      }
    }
    section(CkptSection::kObs, w);
  }

  out.append_raw(frame::encode(frame::FrameType::kCheckpoint, body.bytes()));
}

namespace {

/// Throws unless the sub-reader consumed its whole section blob.
void require_exhausted(const ByteReader& r, const char* what) {
  if (!r.exhausted()) {
    throw std::runtime_error{std::string{"checkpoint: trailing bytes in "} + what};
  }
}

}  // namespace

CkptStatus FleetSim::restore(ByteReader& in) {
  const auto dec = frame::decode(in.rest());
  if (!dec.ok() || dec.type != frame::FrameType::kCheckpoint) return CkptStatus::kBadFrame;
  try {
    ByteReader r{dec.payload};
    if (r.read_u32() != kCheckpointVersion) return CkptStatus::kBadVersion;
    if (r.read_u64() != config_fingerprint(cfg_)) return CkptStatus::kConfigMismatch;
    if (r.read_u64() != cfg_.seed) return CkptStatus::kConfigMismatch;
    if (r.read_u32() != static_cast<std::uint32_t>(cfg_.num_vehicles)) {
      return CkptStatus::kConfigMismatch;
    }
    if (r.read_string() != strategy_->name()) return CkptStatus::kStrategyMismatch;
    time_ = r.read_f64();
    const std::uint32_t nsec = r.read_u32();
    if (nsec != kNumSections) return CkptStatus::kMalformed;
    bool seen[kNumSections + 1] = {};
    for (std::uint32_t i = 0; i < nsec; ++i) {
      const std::uint8_t tag = r.read_u8();
      if (tag < 1 || tag > kNumSections || seen[tag]) return CkptStatus::kMalformed;
      seen[tag] = true;
      const auto blob = r.read_bytes();
      ByteReader s{blob};
      switch (static_cast<CkptSection>(tag)) {
        case CkptSection::kCore: {
          prepared_ = s.read_u8() != 0;
          next_train_ = s.read_f64();
          next_eval_ = s.read_f64();
          next_prune_ = s.read_f64();
          train_steps_.store(static_cast<long>(s.read_u64()));
          strategy_rng_.load(s);
          last_chat_.clear();
          const std::uint32_t nc = s.read_u32();
          for (std::uint32_t k = 0; k < nc; ++k) {
            const std::uint64_t key = s.read_u64();
            last_chat_[key] = s.read_f64();
          }
          pair_backoff_.clear();
          const std::uint32_t nb = s.read_u32();
          for (std::uint32_t k = 0; k < nb; ++k) {
            const std::uint64_t key = s.read_u64();
            pair_backoff_[key] = s.read_i32();
          }
          if (cfg_.adversary.enabled() || cfg_.hetero.enabled()) {
            if (s.read_u8() != 0x5E) {
              throw std::runtime_error{"checkpoint: missing adversary core tail"};
            }
            adversary_.load(s);
            hetero_.load(s);
          }
          break;
        }
        case CkptSection::kWorld:
          world_.load(s);
          break;
        case CkptSection::kFaults:
          faults_.load(s);
          break;
        case CkptSection::kNodes: {
          eval_set_.clear();
          const std::uint32_t ne = s.read_u32();
          eval_set_.reserve(std::min<std::uint32_t>(ne, 1u << 20));
          for (std::uint32_t k = 0; k < ne; ++k) {
            eval_set_.push_back(data::read_sample(s, cfg_.policy.bev));
          }
          if (s.read_u32() != nodes_.size()) {
            throw std::runtime_error{"checkpoint: node count mismatch"};
          }
          for (auto& np : nodes_) {
            VehicleNode& n = *np;
            n.rng.load(s);
            const auto params = s.read_f32_vec();
            if (params.size() != n.model.param_count()) {
              throw std::runtime_error{"checkpoint: param count mismatch"};
            }
            n.model.set_params(params);
            if (s.read_string() != n.opt->kind()) {
              throw std::runtime_error{"checkpoint: optimizer kind mismatch"};
            }
            n.opt->load_state(s);
            // Replaying add() in saved order reproduces the weighted
            // dataset's cumulative-weight table bit-exactly.
            n.dataset = data::WeightedDataset{cfg_.policy.bev};
            const std::uint32_t nd = s.read_u32();
            for (std::uint32_t k = 0; k < nd; ++k) {
              n.dataset.add(data::read_sample(s, cfg_.policy.bev));
            }
            n.validation.clear();
            const std::uint32_t nv = s.read_u32();
            n.validation.reserve(std::min<std::uint32_t>(nv, 1u << 20));
            for (std::uint32_t k = 0; k < nv; ++k) {
              n.validation.push_back(data::read_sample(s, cfg_.policy.bev));
            }
          }
          require_exhausted(s, "nodes");
          break;
        }
        case CkptSection::kSessions: {
          sessions_.clear();
          std::fill(busy_.begin(), busy_.end(), nullptr);
          const std::uint32_t ns = s.read_u32();
          const int n = num_vehicles();
          for (std::uint32_t k = 0; k < ns; ++k) {
            auto sess = std::make_unique<PairSession>();
            sess->a_ = s.read_i32();
            sess->b_ = s.read_i32();
            if (sess->a_ < 0 || sess->a_ >= n || sess->b_ < 0 || sess->b_ >= n ||
                sess->b_ == sess->a_) {
              throw std::runtime_error{"checkpoint: session endpoint out of range"};
            }
            sess->started_at_ = s.read_f64();
            sess->closed_ = s.read_u8() != 0;
            sess->aborted_ = s.read_u8() != 0;
            sess->phase = s.read_i32();
            sess->deadline_s = s.read_f64();
            sess->rng_.load(s);
            const std::uint32_t nq = s.read_u32();
            for (std::uint32_t q = 0; q < nq; ++q) {
              const std::uint8_t kind = s.read_u8();
              if (kind > StageTag::kOther) {
                throw std::runtime_error{"checkpoint: stage kind out of range"};
              }
              StageTag tag;
              tag.kind = static_cast<StageTag::Kind>(kind);
              tag.from = s.read_i32();
              tag.payload = s.read_i32();
              const std::uint64_t remaining = s.read_u64();
              auto payload = s.read_bytes();
              sess->queue_.push_back(
                  PairSession::Stage{tag,
                                     net::Transfer{static_cast<std::size_t>(remaining),
                                                   session_radio(sess->a_, sess->b_)},
                                     std::move(payload)});
            }
            const auto scratch = s.read_bytes();
            ByteReader sr{scratch};
            strategy_->load_session_state(*this, *sess, sr);
            require_exhausted(sr, "session scratch");
            if (busy_[static_cast<std::size_t>(sess->a_)] != nullptr ||
                busy_[static_cast<std::size_t>(sess->b_)] != nullptr) {
              throw std::runtime_error{"checkpoint: vehicle in two sessions"};
            }
            busy_[static_cast<std::size_t>(sess->a_)] = sess.get();
            busy_[static_cast<std::size_t>(sess->b_)] = sess.get();
            sessions_.push_back(std::move(sess));
          }
          require_exhausted(s, "sessions");
          break;
        }
        case CkptSection::kStats: {
          stats_.model_sends_started = s.read_i32();
          stats_.model_sends_completed = s.read_i32();
          stats_.coreset_sends_started = s.read_i32();
          stats_.coreset_sends_completed = s.read_i32();
          stats_.sessions_started = s.read_i32();
          stats_.sessions_aborted = s.read_i32();
          stats_.bytes_delivered = s.read_u64();
          stats_.frames_rejected = s.read_i32();
          stats_.model_frames_rejected = s.read_i32();
          stats_.sessions_lost_to_blackout = s.read_i32();
          stats_.backoff_retries = s.read_i32();
          stats_.offline_vehicle_seconds = s.read_f64();
          if (s.read_u32() != vstats_.size()) {
            throw std::runtime_error{"checkpoint: vehicle stats count mismatch"};
          }
          for (auto& v : vstats_) {
            v.bytes_sent = s.read_u64();
            v.bytes_received = s.read_u64();
            v.chats_started = s.read_i32();
            v.chats_completed = s.read_i32();
            v.chats_aborted = s.read_i32();
            v.model_recv_started = s.read_i32();
            v.model_recv_completed = s.read_i32();
            v.frames_rejected = s.read_i32();
            v.model_frames_rejected = s.read_i32();
            v.offline_seconds = s.read_f64();
          }
          if (cfg_.adversary.enabled() || cfg_.hetero.enabled()) {
            if (s.read_u8() != 0x5E) {
              throw std::runtime_error{"checkpoint: missing adversary stats tail"};
            }
            stats_.byzantine_payloads_sent = s.read_i32();
            stats_.straggler_train_skips = static_cast<long>(s.read_u64());
            stats_.frames_rejected_invalid = s.read_i32();
            stats_.attacker_peer_weight = s.read_f64();
            stats_.total_peer_weight = s.read_f64();
          }
          require_exhausted(s, "stats");
          break;
        }
        case CkptSection::kMetrics: {
          metrics_ = RunMetrics{};
          metrics_.loss_curve = read_time_series(s);
          const std::uint32_t np = s.read_u32();
          if (np != 0 && np != nodes_.size()) {
            throw std::runtime_error{"checkpoint: per-vehicle curve count mismatch"};
          }
          metrics_.per_vehicle_loss.resize(np);
          for (auto& ts : metrics_.per_vehicle_loss) ts = read_time_series(s);
          if (cfg_.adversary.enabled()) {
            if (s.read_u8() != 0x5E) {
              throw std::runtime_error{"checkpoint: missing cohort metrics tail"};
            }
            metrics_.honest_loss_curve = read_time_series(s);
            metrics_.attacker_loss_curve = read_time_series(s);
          }
          require_exhausted(s, "metrics");
          break;
        }
        case CkptSection::kStrategy: {
          const auto blob2 = s.read_bytes();
          ByteReader sr{blob2};
          strategy_->load_state(*this, sr);
          require_exhausted(sr, "strategy state");
          require_exhausted(s, "strategy");
          break;
        }
        case CkptSection::kObs: {
          const bool captured = s.read_u8() != 0;
          if (captured) {
            const std::uint32_t nev = s.read_u32();
            std::vector<obs::Event> events;
            events.reserve(std::min<std::uint32_t>(nev, 1u << 20));
            for (std::uint32_t k = 0; k < nev; ++k) {
              obs::Event e;
              e.t = s.read_f64();
              const std::uint8_t kind = s.read_u8();
              if (kind > kMaxEventKind) {
                throw std::runtime_error{"checkpoint: event kind out of range"};
              }
              e.kind = static_cast<obs::EventKind>(kind);
              e.a = s.read_i32();
              e.b = s.read_i32();
              e.value = s.read_f64();
              events.push_back(e);
            }
            const std::uint64_t dropped = s.read_u64();
            obs::Snapshot snap;
            const std::uint32_t nm = s.read_u32();
            snap.metrics.reserve(std::min<std::uint32_t>(nm, 1024));
            for (std::uint32_t k = 0; k < nm; ++k) {
              obs::MetricValue m;
              m.name = s.read_string();
              const std::uint8_t kind = s.read_u8();
              if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) {
                throw std::runtime_error{"checkpoint: metric kind out of range"};
              }
              m.kind = static_cast<obs::MetricKind>(kind);
              m.count = s.read_u64();
              m.value = s.read_f64();
              m.bounds = s.read_f64_vec();
              const std::uint32_t nbk = s.read_u32();
              if (nbk > kMaxHistogramBuckets) {
                throw std::runtime_error{"checkpoint: bucket count out of range"};
              }
              m.buckets.resize(nbk);
              for (auto& b : m.buckets) b = s.read_u64();
              snap.metrics.push_back(std::move(m));
            }
            // Re-applied only when this run's events are on; with them off
            // the captured state is read (validated) and discarded, as the
            // resumed run will not export events either.
            if (events_on_) {
              events_.restore(std::move(events), dropped);
              restore_metrics(snap);
            }
          }
          require_exhausted(s, "obs");
          break;
        }
      }
      if (tag == static_cast<std::uint8_t>(CkptSection::kCore) ||
          tag == static_cast<std::uint8_t>(CkptSection::kWorld) ||
          tag == static_cast<std::uint8_t>(CkptSection::kFaults)) {
        require_exhausted(s, section_name(tag).data());
      }
    }
    for (std::uint8_t t = 1; t <= kNumSections; ++t) {
      if (!seen[t]) return CkptStatus::kMalformed;
    }
    if (!r.exhausted()) return CkptStatus::kMalformed;
    // The position cache and neighbor index are derived state, rebuilt here
    // rather than serialized (DESIGN.md §11): a rebuild from the restored
    // world is bit-identical to the saved run's cache.
    sync_positions();
    return CkptStatus::kOk;
  } catch (const std::exception&) {
    return CkptStatus::kMalformed;
  }
}

void FleetSim::restore_metrics(const obs::Snapshot& snap) {
  for (const obs::MetricValue& m : snap.metrics) {
    if (m.kind == obs::MetricKind::kHistogram) {
      if (m.bounds.size() >= kMaxHistogramBuckets ||
          !std::is_sorted(m.bounds.begin(), m.bounds.end())) {
        throw std::runtime_error{"checkpoint: histogram bounds out of range"};
      }
      if (m.buckets.size() != m.bounds.size() + 1) {
        throw std::runtime_error{"checkpoint: histogram bucket count mismatch"};
      }
    }
    // train.steps is train_steps_ (kCore); the gauges are read from stats_,
    // so a gauge only says that finalize() had run.
    if (m.kind == obs::MetricKind::kGauge) gauges_published_ = true;
    if (m.name != "chat.duration_s") continue;
    if (m.kind != obs::MetricKind::kHistogram ||
        !std::equal(m.bounds.begin(), m.bounds.end(), kChatDurationBounds.begin(),
                    kChatDurationBounds.end())) {
      throw std::runtime_error{"checkpoint: chat.duration_s shape mismatch"};
    }
    std::copy(m.buckets.begin(), m.buckets.end(), chat_duration_buckets_.begin());
    chat_duration_sum_micro_ = std::llround(m.value * 1e6);
  }
}

}  // namespace lbchat::engine
