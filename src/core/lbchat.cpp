#include "core/lbchat.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <limits>

#include "common/bytes.h"
#include "common/frame.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "coreset/coreset_io.h"
#include "net/assist_io.h"
#include "nn/int8_policy.h"
#include "nn/model_io.h"
#include "obs/trace.h"

namespace lbchat::core {

using engine::FleetSim;
using engine::PairSession;
using engine::StageTag;

/// Per-session protocol scratch, carried in PairSession::data.
struct LbChatStrategy::ChatData {
  // Coreset snapshots as transmitted (sender side frozen at queue time; the
  // receiver works from the framed wire copy, which round-trips losslessly).
  coreset::Coreset coreset_a;
  coreset::Coreset coreset_b;
  bool a_received_coreset = false;
  bool b_received_coreset = false;
  double contact_estimate_s = 0.0;
};

namespace {
constexpr int kPhaseCoresets = 0;
constexpr int kPhaseModels = 1;

/// Checkpointed coresets are this process's own state, not peer input: their
/// mass grows past the wire cap through repeated merges (DESIGN.md §10).
constexpr double kUncappedLocalWeight = std::numeric_limits<double>::infinity();

frame::FrameType frame_type_for(StageTag::Kind kind) {
  switch (kind) {
    case StageTag::kAssist:
      return frame::FrameType::kAssist;
    case StageTag::kCoreset:
      return frame::FrameType::kCoreset;
    default:
      return frame::FrameType::kModel;
  }
}
}  // namespace

LbChatStrategy::LbChatStrategy(LbChatOptions opts) : opts_(opts) {}

std::string_view LbChatStrategy::name() const {
  if (!opts_.share_model) return "SCO";
  if (!opts_.adaptive_compression) return "LbChat(equal-comp)";
  if (!opts_.coreset_weighted_aggregation) return "LbChat(avg-agg)";
  return "LbChat";
}

const coreset::Coreset& LbChatStrategy::coreset_of(int v) const {
  return vehicles_.at(static_cast<std::size_t>(v)).cs;
}

void LbChatStrategy::setup(FleetSim& sim) {
  vehicles_.clear();
  vehicles_.resize(static_cast<std::size_t>(sim.num_vehicles()));
  for (int v = 0; v < sim.num_vehicles(); ++v) maybe_rebuild_coreset(sim, v, /*force=*/true);
}

void LbChatStrategy::maybe_rebuild_coreset(FleetSim& sim, int v, bool force) {
  VehicleState& st = vehicles_[static_cast<std::size_t>(v)];
  if (!force &&
      sim.time() - st.last_rebuild_s < sim.config().coreset_rebuild_interval_s) {
    return;
  }
  auto& node = sim.node(v);
  coreset::CoresetConfig ccfg;
  ccfg.target_size = sim.config().coreset_size;
  ccfg.penalty = sim.config().penalty;
  st.cs = coreset::build_coreset(opts_.coreset_method, node.dataset, node.model, ccfg,
                                 node.rng, sim.pool());
  st.last_rebuild_s = sim.time();
}

void LbChatStrategy::on_tick(FleetSim& sim) {
  // Periodic full coreset rebuilds (between rebuilds the merge-reduce fast
  // path keeps the coreset fresh after each absorption). Offline vehicles
  // pause maintenance and resume where they left off.
  for (int v = 0; v < sim.num_vehicles(); ++v) {
    if (!sim.is_online(v)) continue;
    maybe_rebuild_coreset(sim, v, false);
  }

  // Encounter initiation: each idle vehicle picks the in-range idle peer
  // with the highest priority score c_ij (Eq. (5)).
  const auto& cfg = sim.config();
  // T_need: a full chat = both coresets + both (uncompressed) models.
  const double needed_s =
      8.0 *
      static_cast<double>(2 * cfg.wire.coreset_bytes(cfg.coreset_size) + 2 * cfg.wire.model_bytes) /
      cfg.radio.bandwidth_bps;
  for (int a = 0; a < sim.num_vehicles(); ++a) {
    if (!sim.is_idle(a)) continue;
    int best = -1;
    double best_score = 0.0;
    net::ContactEstimate best_contact;
    // Grid-backed neighbor query: same candidates, same ascending order as
    // the old all-pairs scan, so the argmax below is unchanged.
    for (const int b : sim.neighbors_in_range(a)) {
      if (!sim.is_idle(b)) continue;
      if (!sim.cooldown_passed(a, b)) continue;
      const net::ContactEstimate contact = sim.estimate_contact_between(a, b);
      const double score =
          net::priority_score(sim.assist_info(a), sim.assist_info(b), contact, needed_s);
      if (score > best_score) {
        best_score = score;
        best = b;
        best_contact = contact;
      }
    }
    if (best >= 0) {
      PairSession& s = sim.start_session(a, best);
      auto chat = std::make_shared<ChatData>();
      chat->contact_estimate_s = best_contact.duration_s;
      // Snapshot both coresets as they leave the senders.
      chat->coreset_a = vehicles_[static_cast<std::size_t>(a)].cs;
      chat->coreset_b = vehicles_[static_cast<std::size_t>(best)].cs;
      s.data = chat;
      s.phase = kPhaseCoresets;
      const auto& wire = cfg.wire;
      // Assist info both ways, then coresets both ways. Every payload ships
      // inside a CRC-checksummed frame envelope; the WireSizeModel byte
      // counts still govern transfer duration (paper-scale sizes).
      ByteWriter assist_a;
      net::write_assist(assist_a, sim.assist_info(a));
      ByteWriter assist_b;
      net::write_assist(assist_b, sim.assist_info(best));
      ByteWriter cs_a;
      coreset::write_coreset(cs_a, chat->coreset_a);
      ByteWriter cs_b;
      coreset::write_coreset(cs_b, chat->coreset_b);
      sim.queue_transfer(s, a, wire.assist_info_bytes, {StageTag::kAssist, a, 0},
                         frame::encode(frame::FrameType::kAssist, assist_a.bytes()));
      sim.queue_transfer(s, best, wire.assist_info_bytes, {StageTag::kAssist, best, 0},
                         frame::encode(frame::FrameType::kAssist, assist_b.bytes()));
      sim.queue_transfer(s, a, wire.coreset_bytes(chat->coreset_a.size()),
                         {StageTag::kCoreset, a, 0},
                         frame::encode(frame::FrameType::kCoreset, cs_a.bytes()));
      sim.queue_transfer(s, best, wire.coreset_bytes(chat->coreset_b.size()),
                         {StageTag::kCoreset, best, 0},
                         frame::encode(frame::FrameType::kCoreset, cs_b.bytes()));
    }
  }
}

void LbChatStrategy::on_transfer_complete(FleetSim& sim, PairSession& s, const StageTag& tag) {
  auto chat = std::static_pointer_cast<ChatData>(s.data);
  if (chat == nullptr) return;
  const bool from_a = tag.from == s.vehicle_a();
  const int receiver = from_a ? s.vehicle_b() : s.vehicle_a();

  // Verify the frame envelope before touching the payload. The fault model
  // may have flipped bits in transit; a bad checksum (or a payload that fails
  // structural validation despite a colliding checksum) means the receiver
  // keeps its local state, records the event, and the pair backs off.
  const frame::Decoded dec = frame::decode(s.delivered_payload());
  bool ok = dec.ok() && dec.type == frame_type_for(tag.kind);
  bool invalid_values = false;
  if (ok) {
    try {
      ByteReader r{dec.payload};
      if (tag.kind == StageTag::kAssist) {
        // Validated but otherwise unused: the engine's contact estimates
        // model continuous beaconing with fresh positions.
        (void)net::read_assist(r, sim.world().map());
      } else if (tag.kind == StageTag::kCoreset) {
        // Receiver absorbs the peer coreset into its local dataset (§III-D)
        // and refreshes its own coreset by merge + reduce. The wire copy
        // round-trips losslessly, so this matches the sender's snapshot.
        const coreset::Coreset received =
            coreset::read_coreset(r, sim.config().policy.bev);
        if (from_a) {
          chat->b_received_coreset = true;
        } else {
          chat->a_received_coreset = true;
        }
        auto& node = sim.node(receiver);
        node.dataset.absorb(received.samples);
        VehicleState& st = vehicles_[static_cast<std::size_t>(receiver)];
        {
          LBCHAT_OBS_SPAN("coreset.merge_reduce");
          st.cs = coreset::reduce_coreset(coreset::merge_coresets(st.cs, received), node.model,
                                          sim.config().coreset_size, node.rng, sim.pool());
        }
        sim.emit(obs::EventKind::kCoresetExchange, receiver, tag.from,
                 static_cast<double>(received.size()));
      } else if (tag.kind == StageTag::kModel) {
        const nn::SparseModel sparse = nn::read_sparse_model(r);
        // A model of another size is rejected before densify() allocates it.
        if (sparse.dim != sim.node(receiver).model.param_count()) {
          throw std::runtime_error{"model dimension mismatch"};
        }
        // Aggregate against the *sender's* coreset (the freshest estimate of
        // the sender's data distribution), merged into the receiver's own.
        aggregate_received(sim, receiver, tag.from, sparse,
                           from_a ? chat->coreset_a : chat->coreset_b);
      }
    } catch (const WireValueError& e) {
      // Structurally valid frame carrying semantically impossible values
      // (non-finite / out-of-range weights) — tracked separately from
      // transport damage.
      LBCHAT_LOG_DEBUG("chat %d<->%d: payload values rejected: %s", s.vehicle_a(),
                       s.vehicle_b(), e.what());
      ok = false;
      invalid_values = true;
    } catch (const std::exception& e) {
      LBCHAT_LOG_DEBUG("chat %d<->%d: payload rejected after decode: %s", s.vehicle_a(),
                       s.vehicle_b(), e.what());
      ok = false;
    }
  }
  if (!ok) {
    sim.note_frame_rejected(receiver, tag.kind == StageTag::kModel, invalid_values);
    sim.note_pair_failure(s.vehicle_a(), s.vehicle_b());
    // A corrupt assist frame leaves the pair without trustworthy planning
    // info — degrade gracefully by ending the chat before the bulk stages.
    if (tag.kind == StageTag::kAssist) s.close();
    return;
  }
  if (tag.kind != StageTag::kAssist) sim.note_pair_success(s.vehicle_a(), s.vehicle_b());
}

void LbChatStrategy::on_session_aborted(FleetSim& sim, PairSession& s) {
  // An aborted chat (range loss, blackout, churn) counts as a pair failure
  // for the exponential-backoff policy; with chat_backoff off this is a
  // no-op and stock behaviour is unchanged.
  sim.note_pair_failure(s.vehicle_a(), s.vehicle_b());
}

void LbChatStrategy::on_session_idle(FleetSim& sim, PairSession& s) {
  if (s.phase == kPhaseCoresets) {
    auto chat = std::static_pointer_cast<ChatData>(s.data);
    if (chat == nullptr || !chat->a_received_coreset || !chat->b_received_coreset ||
        !opts_.share_model) {
      s.close();
      return;
    }
    begin_model_phase(sim, s);
  } else {
    s.close();
  }
}

void LbChatStrategy::begin_model_phase(FleetSim& sim, PairSession& s) {
  auto chat = std::static_pointer_cast<ChatData>(s.data);
  const auto& cfg = sim.config();
  const int a = s.vehicle_a();
  const int b = s.vehicle_b();
  auto& node_a = sim.node(a);
  auto& node_b = sim.node(b);

  double psi_a = 0.0;
  double psi_b = 0.0;
  // Re-estimate the contact with fresh positions (the coreset exchange took
  // a few seconds) — LbChat's route sharing makes this estimate reliable.
  const net::ContactEstimate contact = sim.estimate_contact_between(a, b);
  const double contact_left = contact.duration_s;

  if (opts_.adaptive_compression) {
    // Evaluate both models on both coresets, build the phi mappings, and
    // solve Eq. (7). (Compute time is not charged, matching the paper.)
    const coreset::Coreset ca = subsample_coreset(chat->coreset_a, opts_.eval_cap);
    const coreset::Coreset cb = subsample_coreset(chat->coreset_b, opts_.eval_cap);
    CompressionProblem prob;
    // Value scoring optionally runs through int8 snapshots (DESIGN.md §15):
    // chat handshakes only need inference-grade estimates of Eq. (7)'s loss
    // terms, and these evaluations dominate handshake compute at scale.
    const bool int8 = cfg.int8_eval.enabled;
    // The two directions are independent: sending x_s to the receiver needs
    // the receiver's loss on the sender's coreset and the sender's phi
    // mapping, both over that coreset. Each direction is one task writing
    // only its own fields of `prob`; it unfolds the sender's coreset once
    // and scores the receiver and every psi of the sweep on that batch.
    const auto direction = [&](const nn::DrivingPolicy& sender,
                               const nn::DrivingPolicy& receiver,
                               const coreset::Coreset& sender_cs, double& receiver_loss,
                               PhiMapping& sender_phi) {
      nn::ScoringBatch batch;
      const auto score = [&](const auto& model) {
        batch = nn::ScoringBatch{model, sender_cs.samples};
        receiver_loss = normalized_coreset_loss(model, sender_cs, batch, cfg.penalty);
      };
      {
        LBCHAT_OBS_SPAN("core.value_score");
        if (int8) {
          score(nn::Int8Policy{receiver});
        } else {
          score(receiver);
        }
      }
      sender_phi = PhiMapping::build(sender, sender_cs, batch, cfg.penalty);
    };
    parallel_invoke(
        sim.pool(),
        [&] { direction(node_a.model, node_b.model, ca, prob.loss_j_on_ci, prob.phi_i); },
        [&] { direction(node_b.model, node_a.model, cb, prob.loss_i_on_cj, prob.phi_j); });
    prob.model_bytes = static_cast<double>(cfg.wire.model_bytes);
    // Loss-aware sizing: budget transfer time against the *expected goodput*
    // along the predicted trajectory (with a small safety margin), not the
    // raw bandwidth — this is what keeps LbChat's receiving rate high under
    // wireless loss while the blind baselines overrun their windows.
    prob.bandwidth_bps =
        cfg.radio.bandwidth_bps * std::max(contact.mean_goodput, 0.05) * 0.9;
    prob.time_budget_s = cfg.time_budget_s;
    prob.contact_s = contact_left;
    prob.lambda_c = cfg.lambda_c;
    const CompressionDecision d = optimize_compression(prob);
    psi_a = d.psi_i;
    psi_b = d.psi_j;
    LBCHAT_LOG_DEBUG(
        "chat %d<->%d: f(a;Cb)=%.4f f(b;Ca)=%.4f phi_a(1)=%.4f phi_b(1)=%.4f -> "
        "psi=(%.2f,%.2f) gains=(%.4f,%.4f) Tc=%.1fs window=%.1fs",
        a, b, prob.loss_i_on_cj, prob.loss_j_on_ci, prob.phi_i.sample_losses().back(),
        prob.phi_j.sample_losses().back(), psi_a, psi_b, d.gain_to_j, d.gain_to_i,
        d.exchange_time_s, std::min(cfg.time_budget_s, contact_left));
    s.deadline_s = sim.time() + std::min(cfg.time_budget_s, contact_left) + 2.0;
  } else {
    s.deadline_s =
        sim.time() + std::min(cfg.time_budget_s, std::max(contact_left, cfg.tick_s));
    // Table V ablation: equal compression ratios, blindly sized so both
    // directions fit the available window.
    const double window = std::min(cfg.time_budget_s, contact_left);
    const double full_time =
        2.0 * static_cast<double>(cfg.wire.model_bytes) * 8.0 / cfg.radio.bandwidth_bps;
    const double psi = full_time > 0.0 ? std::clamp(window / full_time, 0.0, 1.0) : 0.0;
    psi_a = psi;
    psi_b = psi;
  }

  if (psi_a <= 0.0 && psi_b <= 0.0) {
    s.close();
    return;
  }
  s.phase = kPhaseModels;
  if (psi_a > 0.0) {
    const nn::SparseModel m = nn::compress_for_psi(node_a.model.params(), psi_a);
    ByteWriter w;
    nn::write_sparse_model(w, m);
    sim.queue_transfer(s, a, cfg.wire.model_bytes_at(psi_a), {StageTag::kModel, a, 0},
                       frame::encode(frame::FrameType::kModel, w.bytes()));
  }
  if (psi_b > 0.0) {
    const nn::SparseModel m = nn::compress_for_psi(node_b.model.params(), psi_b);
    ByteWriter w;
    nn::write_sparse_model(w, m);
    sim.queue_transfer(s, b, cfg.wire.model_bytes_at(psi_b), {StageTag::kModel, b, 0},
                       frame::encode(frame::FrameType::kModel, w.bytes()));
  }
}

void LbChatStrategy::aggregate_received(FleetSim& sim, int receiver, int sender,
                                        const nn::SparseModel& sparse,
                                        const coreset::Coreset& peer_coreset) {
  auto& node = sim.node(receiver);
  const std::vector<float> peer_params = sparse.densify();

  double w_self = 0.5;
  double w_peer = 0.5;
  if (opts_.coreset_weighted_aggregation) {
    // Eq. (8) on D_i union C_j, approximated by the coreset fast path
    // f(x; C_i union C_j) (§III-D). Cross-weighted: the better-performing
    // model (lower loss) receives the larger weight.
    const coreset::Coreset joint = subsample_coreset(
        coreset::merge_coresets(vehicles_[static_cast<std::size_t>(receiver)].cs, peer_coreset),
        2 * opts_.eval_cap);
    nn::DrivingPolicy peer_model = node.model;  // same layout; set_params overwrites all
    peer_model.set_params(peer_params);
    // Self and peer are scored as two tasks, one slot each, on one batch.
    double loss_self = 0.0;
    double loss_peer = 0.0;
    const coreset::PenaltyConfig& penalty = sim.config().penalty;
    const auto score = [&](const auto& self, const auto& peer) {
      const nn::ScoringBatch batch{self, joint.samples};
      parallel_invoke(
          sim.pool(), [&] { loss_self = normalized_coreset_loss(self, joint, batch, penalty); },
          [&] { loss_peer = normalized_coreset_loss(peer, joint, batch, penalty); });
    };
    if (sim.config().int8_eval.enabled) {
      score(nn::Int8Policy{node.model}, nn::Int8Policy{peer_model});
    } else {
      score(node.model, peer_model);
    }
    // The logical end of "larger weights to better-performing models": a
    // received model that is clearly worse than the local one (e.g. damaged
    // by compression beyond what the phi mapping predicted) is not merged at
    // all — the coreset evaluation is what detects this.
    if (loss_peer > 2.0 * loss_self) return;
    const double denom = loss_self + loss_peer;
    if (denom > 1e-12) {
      w_self = loss_peer / denom;
      w_peer = loss_self / denom;
    }
  }
  auto params = node.model.params();
  for (std::size_t k = 0; k < params.size(); ++k) {
    params[k] = static_cast<float>(w_self * params[k] + w_peer * peer_params[k]);
  }
  sim.note_aggregate(receiver, sender, w_peer);
}

template <class Io, class Self, class Sim>
void LbChatStrategy::state(Io&& io, Self& self, Sim& sim) {
  echo_tunables(io, self.opts_);
  io.exact_count(sim.num_vehicles(), "LbChat::load_state: vehicle count");
  if constexpr (Io::kLoad) self.vehicles_.assign(static_cast<std::size_t>(sim.num_vehicles()), {});
  for (auto& st : self.vehicles_) {
    coreset::fields(io, st.cs, sim.config().policy.bev, kUncappedLocalWeight);
    io(st.last_rebuild_s);
  }
}

template <class Io, class Session, class Sim>
void LbChatStrategy::session_state(Io&& io, Session& s, Sim& sim) {
  bool has_chat = s.data != nullptr;
  io(has_chat);
  if (!has_chat) return;
  if constexpr (Io::kLoad) s.data = std::make_shared<ChatData>();
  std::conditional_t<Io::kLoad, ChatData, const ChatData>& chat =
      *static_cast<ChatData*>(s.data.get());
  coreset::fields(io, chat.coreset_a, sim.config().policy.bev, kUncappedLocalWeight);
  coreset::fields(io, chat.coreset_b, sim.config().policy.bev, kUncappedLocalWeight);
  io(chat.a_received_coreset);
  io(chat.b_received_coreset);
  io(chat.contact_estimate_s);
}

void LbChatStrategy::save_state(const FleetSim& sim, ByteWriter& w) const {
  state(Save{w}, *this, sim);
}

void LbChatStrategy::load_state(FleetSim& sim, ByteReader& r) { state(Load{r}, *this, sim); }

void LbChatStrategy::save_session_state(const FleetSim& sim, const PairSession& s,
                                        ByteWriter& w) const {
  session_state(Save{w}, s, sim);
}

void LbChatStrategy::load_session_state(FleetSim& sim, PairSession& s, ByteReader& r) {
  session_state(Load{r}, s, sim);
}

}  // namespace lbchat::core
