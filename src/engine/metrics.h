// Per-run measurements: the training-loss curve (Figs. 2-3), the successful
// model receiving rate (§IV-C), and byte accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/stats.h"

namespace lbchat::engine {

struct TransferStats {
  int model_sends_started = 0;
  int model_sends_completed = 0;
  int coreset_sends_started = 0;
  int coreset_sends_completed = 0;
  int sessions_started = 0;
  int sessions_aborted = 0;
  std::uint64_t bytes_delivered = 0;

  // --- Robustness / fault-model observability (all zero with faults off) ---
  /// Delivered frames whose envelope failed verification (any payload kind).
  int frames_rejected = 0;
  /// Model frames among `frames_rejected` (they complete at the link layer
  /// but carry no usable model — see effective_model_receiving_rate()).
  int model_frames_rejected = 0;
  /// Session aborts that happened while an interference burst blacked out
  /// the link (subset of `sessions_aborted`).
  int sessions_lost_to_blackout = 0;
  /// Times a pair's chat cooldown was exponentially extended after a
  /// reported failure (FaultConfig::chat_backoff).
  int backoff_retries = 0;
  /// Integrated vehicle-seconds spent offline due to churn.
  double offline_vehicle_seconds = 0.0;

  // --- Adversary / heterogeneity observability (all zero when both off) ---
  /// Payloads a Byzantine sender mutated before the wire (CRC stays valid).
  int byzantine_payloads_sent = 0;
  /// Train intervals skipped by compute stragglers (HeteroConfig).
  long straggler_train_skips = 0;
  /// Delivered frames rejected because a structurally valid payload carried
  /// semantically impossible values (non-finite / out-of-range weights) —
  /// a subset of `frames_rejected`. Checkpointed only when the adversary or
  /// heterogeneity layer is configured (it cannot become nonzero otherwise
  /// short of a CRC collision).
  int frames_rejected_invalid = 0;
  /// Aggregate peer-weight mass honest receivers granted, split by whether
  /// the sender was Byzantine. attacker_weight_share() is the headline: the
  /// fraction of merged peer influence attackers captured (uniform baseline
  /// = the Byzantine fraction; a value-scoring defense pushes it lower).
  double attacker_peer_weight = 0.0;
  double total_peer_weight = 0.0;

  [[nodiscard]] double attacker_weight_share() const {
    return total_peer_weight > 0.0 ? attacker_peer_weight / total_peer_weight : 0.0;
  }

  /// §IV-C: "successful model receiving rate on average".
  [[nodiscard]] double model_receiving_rate() const {
    return model_sends_started > 0
               ? static_cast<double>(model_sends_completed) / model_sends_started
               : 0.0;
  }

  /// Receiving rate counting only models that also passed envelope
  /// verification — the robustness headline under payload corruption.
  /// Equals model_receiving_rate() when no frames were rejected.
  [[nodiscard]] double effective_model_receiving_rate() const {
    return model_sends_started > 0
               ? static_cast<double>(model_sends_completed - model_frames_rejected) /
                     model_sends_started
               : 0.0;
  }
};

/// The base TransferStats counters in wire order, each with its export
/// name: f(name, member). fields() runs it for the checkpoint's kStats
/// section and the bench cache; the metric snapshots export every entry as
/// transfer.<name> and run.<name>. A counter added here reaches them all.
template <FieldsOf<TransferStats> S, class F>
void named_counters(S& t, F&& f) {
  f("model_sends_started", t.model_sends_started);
  f("model_sends_completed", t.model_sends_completed);
  f("coreset_sends_started", t.coreset_sends_started);
  f("coreset_sends_completed", t.coreset_sends_completed);
  f("sessions_started", t.sessions_started);
  f("sessions_aborted", t.sessions_aborted);
  f("bytes_delivered", t.bytes_delivered);
  f("frames_rejected", t.frames_rejected);
  f("model_frames_rejected", t.model_frames_rejected);
  f("sessions_lost_to_blackout", t.sessions_lost_to_blackout);
  f("backoff_retries", t.backoff_retries);
  f("offline_vehicle_seconds", t.offline_vehicle_seconds);
}

/// Field list of the base TransferStats counters (common/bytes.h): the
/// names are for export only, so the wire carries just the values.
template <class Io, FieldsOf<TransferStats> S>
void fields(Io& io, S& t) {
  named_counters(t, [&io](const char*, auto& member) { io(member); });
}

/// The adversary/heterogeneity counters: a checkpoint writes them in its
/// 0x5E tail only when those layers are configured, the bench cache always.
template <class Io, FieldsOf<TransferStats> S>
void adversary_fields(Io& io, S& t) {
  io(t.byzantine_payloads_sent);
  io(t.straggler_train_skips);
  io(t.frames_rejected_invalid);
  io(t.attacker_peer_weight);
  io(t.total_peer_weight);
}

/// Per-vehicle slice of the fleet accounting. Updated from the engine's
/// single-threaded tick path, so it is deterministic and always on (the
/// counters are cheap enough not to need a flag) — the run-report exporters
/// read it without requiring tracing.
struct VehicleTransferStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  int chats_started = 0;
  int chats_completed = 0;
  int chats_aborted = 0;
  /// Model transfers addressed to this vehicle.
  int model_recv_started = 0;
  int model_recv_completed = 0;
  /// Delivered frames this vehicle rejected at verification.
  int frames_rejected = 0;
  int model_frames_rejected = 0;
  /// Seconds spent offline due to churn.
  double offline_seconds = 0.0;

  /// Per-vehicle analogue of TransferStats::effective_model_receiving_rate().
  [[nodiscard]] double effective_model_receiving_rate() const {
    return model_recv_started > 0
               ? static_cast<double>(model_recv_completed - model_frames_rejected) /
                     model_recv_started
               : 0.0;
  }
};

template <class Io, FieldsOf<VehicleTransferStats> S>
void fields(Io& io, S& v) {
  io(v.bytes_sent);
  io(v.bytes_received);
  io(v.chats_started);
  io(v.chats_completed);
  io(v.chats_aborted);
  io(v.model_recv_started);
  io(v.model_recv_completed);
  io(v.frames_rejected);
  io(v.model_frames_rejected);
  io(v.offline_seconds);
}

struct RunMetrics {
  /// Mean held-out loss of all vehicles' models vs simulated time.
  TimeSeries loss_curve;
  /// Cohort split of the loss curve, recorded only when an adversary is
  /// configured (both empty otherwise): mean held-out loss of the honest
  /// vehicles' models and of the Byzantine vehicles' models. The honest
  /// curve is the robustness headline — what collaboration is worth to a
  /// vehicle that is *not* attacking.
  TimeSeries honest_loss_curve;
  TimeSeries attacker_loss_curve;
  TransferStats transfers;
  /// Per-vehicle byte/chat/reception accounting (index = vehicle id).
  std::vector<VehicleTransferStats> per_vehicle;
  /// Per-vehicle held-out loss at each evaluation point (index = vehicle id).
  std::vector<TimeSeries> per_vehicle_loss;
  /// Final model parameters, one vector per vehicle.
  std::vector<std::vector<float>> final_params;
  /// Number of local SGD steps executed across the fleet.
  long train_steps = 0;
};

}  // namespace lbchat::engine
