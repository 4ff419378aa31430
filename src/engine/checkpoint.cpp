// Checkpoint/restore implementation (see engine/checkpoint.h and DESIGN.md
// §10 for the wire layout). save_checkpoint/restore are FleetSim members, and
// the section field lists live in CheckpointFields, a friend of FleetSim and
// PairSession, so the serializer reaches engine privates without widening
// the public API.
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
#include "svc/json.h"

namespace lbchat::engine {

namespace {

constexpr std::uint8_t kNumSections = 9;
constexpr obs::EventKind kMaxEventKind = obs::EventKind::kStragglerSkip;
/// kObs histogram shape limit: at most this many buckets, overflow included.
constexpr std::uint32_t kMaxHistogramBuckets = 16;

/// Marker byte of the adversary/heterogeneity tails of kCore, kStats and
/// kMetrics: present exactly when the config fingerprints those layers.
constexpr std::uint8_t kTailMarker = 0x5E;
/// Least wire sizes of one element, the bounds of Load::resize: a queued
/// stage, a session (its scalars, a 49-byte Rng, queue count, scratch
/// length), an event and a metric (a sample's is data::kSampleBytes).
constexpr std::size_t kStageBytes = 1 + 4 + 4 + 8 + 4;
constexpr std::size_t kSessionBytes = 4 + 4 + 8 + 1 + 1 + 4 + 8 + 49 + 4 + 4;
constexpr std::size_t kEventBytes = 8 + 1 + 4 + 4 + 8;
constexpr std::size_t kMetricBytes = 4 + 1 + 8 + 8 + 4 + 4;

/// The checkpoint header. A load stops after a version it does not know,
/// which the caller reports as kBadVersion.
template <class Io, FieldsOf<CkptInfo> S>
void fields(Io& io, S& h) {
  io(h.version);
  if constexpr (Io::kLoad) {
    if (h.version != kCheckpointVersion) return;
  }
  io(h.config_fingerprint);
  io(h.seed);
  io(h.num_vehicles);
  io(h.strategy);
  io(h.time_s);
}

/// The one header parser of restore() and inspect_checkpoint(): checks the
/// envelope, reads the header into `info` and leaves `body` at the section
/// count. Throws on a truncated header.
CkptStatus read_header(std::span<const std::uint8_t> bytes, CkptInfo& info, ByteReader& body) {
  const auto dec = frame::decode(bytes);
  if (!dec.ok() || dec.type != frame::FrameType::kCheckpoint) return CkptStatus::kBadFrame;
  body = ByteReader{dec.payload};
  info = CkptInfo{};
  Load io{body};
  fields(io, info);
  return info.version == kCheckpointVersion ? CkptStatus::kOk : CkptStatus::kBadVersion;
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
  Save io{w};
  std::string_view open_tail;
  for_each_member(cfg, [&](std::string_view, const auto& member, const Hashing& h) {
    if (!h.on) return;
    if (h.tail != open_tail) {
      for (const char b : h.tail) io(static_cast<std::uint8_t>(b));
      open_tail = h.tail;
    }
    io(member);
  });
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
  char head[160];
  std::snprintf(head, sizeof head,
                "{\"version\":%u,\"fingerprint\":\"%016llx\",\"seed\":%llu,"
                "\"vehicles\":%u,\"strategy\":\"",
                info.version, static_cast<unsigned long long>(info.config_fingerprint),
                static_cast<unsigned long long>(info.seed), info.num_vehicles);
  std::string out{head};
  // Strategy names are short ASCII identifiers, but a hostile checkpoint can
  // put anything in that field.
  out += svc::json_escape(info.strategy);
  out += "\",\"time_s\":";
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
  try {
    ByteReader r{std::span<const std::uint8_t>{}};
    if (const CkptStatus st = read_header(bytes, info, r); st != CkptStatus::kOk) return st;
    const std::uint32_t nsec = r.read_u32();
    if (nsec > 255) return CkptStatus::kMalformed;
    for (std::uint32_t i = 0; i < nsec; ++i) {
      CkptInfo::Section s;
      s.tag = r.read_u8();
      s.bytes = r.read_view().size();  // skip the blob without copying
      info.sections.push_back(s);
    }
    return r.exhausted() ? CkptStatus::kOk : CkptStatus::kMalformed;
  } catch (const std::exception&) {
    return CkptStatus::kMalformed;
  }
}

// ---------------------------------------------------------------------------
// FleetSim serialization (defined here; declared in engine/fleet.h)
// ---------------------------------------------------------------------------

/// The checkpoint body after the header: one field list per section, each
/// run under Save by save_checkpoint (Sim = const FleetSim) and under Load by
/// restore (Sim = FleetSim). Every section is a u8 tag and a length-prefixed
/// blob that a load must consume exactly.
struct CheckpointFields {
  template <class Io, class Sim>
  static void body(Io& io, Sim& sim) {
    io.exact_count(kNumSections, "checkpoint: section count");
    bool seen[kNumSections + 1] = {};
    for (std::uint8_t i = 1; i <= kNumSections; ++i) {
      std::uint8_t tag = i;
      io(tag);
      if constexpr (Io::kLoad) {
        if (tag < 1 || tag > kNumSections || seen[tag]) {
          throw std::runtime_error{"checkpoint: bad section tag"};
        }
        seen[tag] = true;
      }
      io.blob(section_name(tag).data(),
              [&](auto& s) { section(s, sim, static_cast<CkptSection>(tag)); });
    }
  }

  template <class Io, class Sim>
  static void section(Io& io, Sim& sim, CkptSection tag) {
    switch (tag) {
      case CkptSection::kCore: return core(io, sim);
      case CkptSection::kWorld: return io(sim.world_);
      case CkptSection::kFaults: return io(sim.faults_);
      case CkptSection::kNodes: return nodes(io, sim);
      case CkptSection::kSessions: return sessions(io, sim);
      case CkptSection::kStats: return stats(io, sim);
      case CkptSection::kMetrics: return metrics(io, sim);
      case CkptSection::kStrategy:
        return io.blob("strategy state", [&](auto& s) {
          if constexpr (Io::kLoad) {
            sim.strategy_->load_state(sim, s.reader());
          } else {
            sim.strategy_->save_state(sim, s.writer());
          }
        });
      case CkptSection::kObs: return events(io, sim);
    }
  }

  /// Clock schedule, engine RNG streams, pair maps.
  template <class Io, class Sim>
  static void core(Io& io, Sim& sim) {
    io(sim.prepared_);
    io(sim.next_train_);
    io(sim.next_eval_);
    io(sim.next_prune_);
    long steps = sim.train_steps_.load();
    io(steps);
    if constexpr (Io::kLoad) sim.train_steps_.store(steps);
    io(sim.strategy_rng_);
    pair_map(io, sim.last_chat_);
    pair_map(io, sim.pair_backoff_);
    if (sim.cfg_.robustness_on()) {
      io.exact(kTailMarker, "checkpoint: adversary core tail");
      io(sim.adversary_);
      io(sim.hetero_);
    }
  }

  /// A hash map as its entries sorted by key, so equal state gives equal bytes.
  template <class Io, class Map>
  static void pair_map(Io& io, Map& map) {
    using Value = typename std::remove_const_t<Map>::mapped_type;
    std::vector<std::pair<std::uint64_t, Value>> entries;
    if constexpr (!Io::kLoad) {
      entries.assign(map.begin(), map.end());
      std::sort(entries.begin(), entries.end());
    }
    io.resize(entries, sizeof(std::uint64_t) + sizeof(Value));
    for (auto& [key, value] : entries) {
      io(key);
      io(value);
    }
    if constexpr (Io::kLoad) {
      map.clear();
      for (const auto& [key, value] : entries) map[key] = value;
    }
  }

  /// Shared eval set + per-vehicle model, optimizer, dataset and RNG.
  template <class Io, class Sim>
  static void nodes(Io& io, Sim& sim) {
    const data::BevSpec& bev = sim.cfg_.policy.bev;
    samples(io, sim.eval_set_, bev);
    io.exact_count(sim.nodes_.size(), "checkpoint: node count");
    for (auto& np : sim.nodes_) {
      std::conditional_t<Io::kLoad, VehicleNode, const VehicleNode>& n = *np;
      io(n.rng);
      io(n.model.params());
      io.exact(std::string{n.opt->kind()}, "checkpoint: optimizer kind");
      if constexpr (Io::kLoad) {
        n.opt->load_state(io.reader());
        // Replaying add() in saved order reproduces the weighted dataset's
        // cumulative-weight table bit-exactly.
        std::vector<data::Sample> saved;
        samples(io, saved, bev);
        n.dataset = data::WeightedDataset{bev};
        for (auto& s : saved) n.dataset.add(std::move(s));
      } else {
        n.opt->save_state(io.writer());
        samples(io, n.dataset.samples(), bev);
      }
      samples(io, n.validation, bev);
    }
  }

  template <class Io, class List>
  static void samples(Io& io, List& list, const data::BevSpec& bev) {
    io.resize(list, data::kSampleBytes);
    for (auto& s : list) data::fields(io, s, bev);
  }

  /// In-flight pair sessions with their queued transfers.
  template <class Io, class Sim>
  static void sessions(Io& io, Sim& sim) {
    if constexpr (Io::kLoad) std::fill(sim.busy_.begin(), sim.busy_.end(), nullptr);
    io.resize(sim.sessions_, kSessionBytes);
    for (auto& sp : sim.sessions_) {
      if constexpr (Io::kLoad) sp = std::make_unique<PairSession>();
      std::conditional_t<Io::kLoad, PairSession, const PairSession>& s = *sp;
      session(io, sim, s);
      if constexpr (Io::kLoad) {
        for (const int v : {s.a_, s.b_}) {
          PairSession*& slot = sim.busy_[static_cast<std::size_t>(v)];
          if (slot != nullptr) throw std::runtime_error{"checkpoint: vehicle in two sessions"};
          slot = sp.get();
        }
      }
    }
  }

  template <class Io, class Sim, class Session>
  static void session(Io& io, Sim& sim, Session& s) {
    io(s.a_);
    io(s.b_);
    if constexpr (Io::kLoad) {
      const int n = sim.num_vehicles();
      if (s.a_ < 0 || s.a_ >= n || s.b_ < 0 || s.b_ >= n || s.b_ == s.a_) {
        throw std::runtime_error{"checkpoint: session endpoint out of range"};
      }
    }
    io(s.started_at_);
    io(s.closed_);
    io(s.aborted_);
    io(s.phase);
    io(s.deadline_s);
    io(s.rng_);
    io.resize(s.queue_, kStageBytes);
    for (auto& st : s.queue_) {
      io.enum_u8(st.tag.kind, StageTag::kOther, "checkpoint: stage kind");
      io(st.tag.from);
      io(st.tag.payload);
      std::uint64_t remaining = st.transfer.remaining_bytes();
      io(remaining);
      io(st.payload);
      if constexpr (Io::kLoad) {
        st.transfer = net::Transfer{static_cast<std::size_t>(remaining),
                                    sim.session_radio(s.a_, s.b_)};
      }
    }
    io.blob("session scratch", [&](auto& scratch) {
      if constexpr (Io::kLoad) {
        sim.strategy_->load_session_state(sim, s, scratch.reader());
      } else {
        sim.strategy_->save_session_state(sim, s, scratch.writer());
      }
    });
  }

  /// Fleet + per-vehicle accounting.
  template <class Io, class Sim>
  static void stats(Io& io, Sim& sim) {
    io(sim.stats_);
    io.exact_count(sim.vstats_.size(), "checkpoint: vehicle stats count");
    for (auto& v : sim.vstats_) io(v);
    if (sim.cfg_.robustness_on()) {
      io.exact(kTailMarker, "checkpoint: adversary stats tail");
      adversary_fields(io, sim.stats_);
    }
  }

  /// Loss curves accumulated so far. finalize() fills the transfer and
  /// parameter fields of RunMetrics from live state, so only the curves are
  /// serialized.
  template <class Io, class Sim>
  static void metrics(Io& io, Sim& sim) {
    auto& m = sim.metrics_;
    if constexpr (Io::kLoad) m = RunMetrics{};
    io(m.loss_curve);
    io.resize(m.per_vehicle_loss, 2 * sizeof(std::uint32_t));
    if constexpr (Io::kLoad) {
      if (!m.per_vehicle_loss.empty() && m.per_vehicle_loss.size() != sim.nodes_.size()) {
        throw std::runtime_error{"checkpoint: per-vehicle curve count mismatch"};
      }
    }
    for (auto& ts : m.per_vehicle_loss) io(ts);
    if (sim.cfg_.adversary.enabled()) {
      io.exact(kTailMarker, "checkpoint: cohort metrics tail");
      io(m.honest_loss_curve);
      io(m.attacker_loss_curve);
    }
  }

  /// The run's event ring + metrics snapshot, captured only when its events
  /// are on (with them off both are empty by contract).
  template <class Io, class Sim>
  static void events(Io& io, Sim& sim) {
    bool captured = sim.events_on_;
    io(captured);
    if (!captured) return;
    std::vector<obs::Event> ring;
    std::uint64_t dropped = 0;
    obs::Snapshot snap;
    if constexpr (!Io::kLoad) {
      ring = sim.events_.events();
      dropped = sim.events_.dropped();
      snap = sim.metrics_snapshot();
    }
    io.resize(ring, kEventBytes);
    for (auto& e : ring) {
      io(e.t);
      io.enum_u8(e.kind, kMaxEventKind, "checkpoint: event kind");
      io(e.a);
      io(e.b);
      io(e.value);
    }
    io(dropped);
    io.resize(snap.metrics, kMetricBytes);
    for (auto& m : snap.metrics) {
      io(m.name);
      io.enum_u8(m.kind, obs::MetricKind::kHistogram, "checkpoint: metric kind");
      io(m.count);
      io(m.value);
      io(m.bounds);
      io.resize(m.buckets, sizeof(std::uint64_t));
      for (auto& b : m.buckets) io(b);
      if constexpr (Io::kLoad) restore_metric(sim, m);
    }
    if constexpr (Io::kLoad) {
      if (sim.events_on_) sim.events_.restore(std::move(ring), dropped);
    }
  }

  /// Validates a loaded metric and re-applies it when this run's events are
  /// on. With them off it is discarded, as the resumed run will not export
  /// events either.
  static void restore_metric(FleetSim& sim, const obs::MetricValue& m) {
    const bool histogram = m.kind == obs::MetricKind::kHistogram;
    if (m.buckets.size() > kMaxHistogramBuckets ||
        (histogram && (m.buckets.size() != m.bounds.size() + 1 ||
                       !std::is_sorted(m.bounds.begin(), m.bounds.end())))) {
      throw std::runtime_error{"checkpoint: histogram shape out of range"};
    }
    if (!sim.events_on_) return;
    // train.steps is train_steps_ (kCore); the gauges are read from stats_,
    // so a gauge only says that finalize() had run.
    if (m.kind == obs::MetricKind::kGauge) sim.gauges_published_ = true;
    if (m.name != "chat.duration_s") return;
    const auto& chat_bounds = FleetSim::kChatDurationBounds;
    if (!histogram ||
        !std::equal(m.bounds.begin(), m.bounds.end(), chat_bounds.begin(), chat_bounds.end())) {
      throw std::runtime_error{"checkpoint: chat.duration_s shape mismatch"};
    }
    std::copy(m.buckets.begin(), m.buckets.end(), sim.chat_duration_buckets_.begin());
    sim.chat_duration_sum_micro_ = std::llround(m.value * 1e6);
  }
};

void FleetSim::save_checkpoint(ByteWriter& out) const {
  ByteWriter body;
  Save io{body};
  CkptInfo header{.version = kCheckpointVersion,
                  .config_fingerprint = config_fingerprint(cfg_),
                  .seed = cfg_.seed,
                  .num_vehicles = static_cast<std::uint32_t>(cfg_.num_vehicles),
                  .strategy = std::string{strategy_->name()},
                  .time_s = time_,
                  .sections = {}};
  fields(io, header);
  CheckpointFields::body(io, *this);
  out.append_raw(frame::encode(frame::FrameType::kCheckpoint, body.bytes()));
}

CkptStatus FleetSim::restore(ByteReader& in) {
  try {
    CkptInfo header;
    ByteReader r{std::span<const std::uint8_t>{}};
    if (const CkptStatus st = read_header(in.rest(), header, r); st != CkptStatus::kOk) return st;
    if (header.config_fingerprint != config_fingerprint(cfg_) || header.seed != cfg_.seed ||
        header.num_vehicles != static_cast<std::uint32_t>(cfg_.num_vehicles)) {
      return CkptStatus::kConfigMismatch;
    }
    if (header.strategy != strategy_->name()) return CkptStatus::kStrategyMismatch;
    time_ = header.time_s;
    Load io{r};
    CheckpointFields::body(io, *this);
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

}  // namespace lbchat::engine
