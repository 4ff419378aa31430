#include "baselines/gossip_base.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "common/bytes.h"
#include "common/frame.h"
#include "nn/model_io.h"

namespace lbchat::baselines {

using engine::FleetSim;
using engine::PairSession;
using engine::StageTag;

std::vector<std::uint8_t> encode_exchange(const ModelExchange& x) {
  ByteWriter w;
  Save{w}(x);
  return frame::encode(frame::FrameType::kModel, w.bytes());
}

bool GossipBaseStrategy::start_exchange(FleetSim& sim, int a, int b) {
  const auto& cfg = sim.config();
  // Contact estimated WITHOUT shared routes (constant-velocity fallback).
  const net::ContactEstimate contact = sim.estimate_contact_between(a, b, /*share_routes=*/false);
  const double window = std::min(cfg.time_budget_s, contact.duration_s);
  const double full_time =
      2.0 * static_cast<double>(cfg.wire.model_bytes) * 8.0 / cfg.radio.bandwidth_bps;
  const double psi = full_time > 0.0 ? std::clamp(window / full_time, 0.0, 1.0) : 0.0;
  if (psi < 0.02) return false;  // not worth initiating

  PairSession& s = sim.start_session(a, b);
  // The pair decouples once the planned window elapses (time-budget
  // semantics); under wireless loss the blindly-sized transfer overruns and
  // fails — the mechanism behind these baselines' low receiving rates.
  s.deadline_s = sim.time() + window;
  sim.queue_transfer(
      s, a, cfg.wire.model_bytes_at(psi), {StageTag::kModel, a, 0},
      encode_exchange({nn::compress_for_psi(sim.node(a).model.params(), psi),
                       composition_of(sim, a)}));
  sim.queue_transfer(
      s, b, cfg.wire.model_bytes_at(psi), {StageTag::kModel, b, 0},
      encode_exchange({nn::compress_for_psi(sim.node(b).model.params(), psi),
                       composition_of(sim, b)}));
  return true;
}

void GossipBaseStrategy::on_transfer_complete(FleetSim& sim, PairSession& s,
                                              const StageTag& tag) {
  if (tag.kind != StageTag::kModel) return;
  const bool from_a = tag.from == s.vehicle_a();
  const int receiver = from_a ? s.vehicle_b() : s.vehicle_a();
  const int sender = from_a ? s.vehicle_a() : s.vehicle_b();
  // Envelope verification before deserializing — a corrupt frame is dropped
  // (the receiver keeps its current model) rather than aggregated.
  const frame::Decoded dec = frame::decode(s.delivered_payload());
  if (dec.ok() && dec.type == frame::FrameType::kModel) {
    try {
      ByteReader r{dec.payload};
      ModelExchange x;
      Load{r}(x);
      // A model of another size is rejected before densify() allocates it.
      if (x.model.dim != sim.node(receiver).model.param_count()) {
        throw std::runtime_error{"model dimension mismatch"};
      }
      aggregate(sim, receiver, sender, x.model.densify(), x.composition);
      return;
    } catch (const WireValueError&) {
      sim.note_frame_rejected(receiver, /*is_model=*/true, /*invalid_values=*/true);
      sim.note_pair_failure(s.vehicle_a(), s.vehicle_b());
      return;
    } catch (const std::exception&) {
      // fall through to the rejection path
    }
  }
  sim.note_frame_rejected(receiver, /*is_model=*/true);
  sim.note_pair_failure(s.vehicle_a(), s.vehicle_b());
}

}  // namespace lbchat::baselines
