// Wireless communication substrate (paper §IV-A):
//  * distance -> packet-loss lookup table (shape follows the V2X PHY
//    evaluations of [13]: low loss near, steep rise toward max range);
//  * packet-level transfer progress with retransmissions and bandwidth;
//  * the WireSizeModel that maps logical payloads to paper-scale wire bytes
//    (52 MB model, 0.6 MB coreset, 184 B assist info) so transfer timings
//    match the paper even though the computational substrate is miniature.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace lbchat::net {

struct RadioConfig {
  double bandwidth_bps = 31e6;  ///< 31 Mbps max bandwidth
  int packet_bytes = 1500;
  int max_retransmissions = 3;  ///< per packet, upon losses
  /// Maximum communication range. The paper states 500 m in CARLA's city,
  /// where buildings and traffic shadow the link; on this simulator's open
  /// plane a shorter nominal range reproduces the same contact-duration
  /// statistics (tens of seconds, §I) that make the time budget binding.
  double max_range_m = 180.0;

  [[nodiscard]] double packets_per_second() const {
    return bandwidth_bps / (8.0 * static_cast<double>(packet_bytes));
  }
};

/// RadioConfig's named member list (engine/scenario.h).
template <FieldsOf<RadioConfig> S, class F>
void config_members(S& r, F&& f) {
  f("bandwidth_bps", r.bandwidth_bps);
  f("packet_bytes", r.packet_bytes);
  f("max_retransmissions", r.max_retransmissions);
  f("max_range_m", r.max_range_m);
}

/// Distance-based per-packet loss probability via a lookup table with linear
/// interpolation (paper: "a distance-loss lookup table based on [13]").
class WirelessLossModel {
 public:
  WirelessLossModel(std::vector<double> distances, std::vector<double> losses);
  /// The default table used throughout the experiments, with its distance
  /// axis scaled to `max_range_m` (the loss *shape* is range-independent).
  static WirelessLossModel default_table(double max_range_m = 500.0);

  /// Per-packet loss probability at `distance` (1.0 beyond the table).
  [[nodiscard]] double packet_loss(double distance) const;

  /// Probability a packet is delivered within 1 + max_retransmissions
  /// attempts.
  [[nodiscard]] double delivery_probability(double distance, int max_retransmissions) const;

  /// Loss probability at a distance sampled uniformly from the table's
  /// support — the paper's model for infrastructure links ("a wireless loss
  /// uniformly sampled from the distance-loss lookup table").
  [[nodiscard]] double sample_uniform_loss(Rng& rng) const;

  [[nodiscard]] double max_distance() const { return distances_.back(); }

 private:
  std::vector<double> distances_;
  std::vector<double> losses_;
};

/// Paper-scale wire sizes for the logical payloads (see DESIGN.md).
struct WireSizeModel {
  std::size_t model_bytes = 52ull * 1024 * 1024;  ///< uncompressed model, 52 MB
  std::size_t coreset_bytes_per_sample = 4096;    ///< 150 samples ~ 0.6 MB
  std::size_t assist_info_bytes = 184;            ///< route + bandwidth info

  [[nodiscard]] std::size_t coreset_bytes(std::size_t num_samples) const {
    return num_samples * coreset_bytes_per_sample;
  }
  /// Wire bytes of a model compressed to reciprocal ratio psi. Rounded *up*
  /// so any nonzero psi costs at least one byte: truncation toward zero let a
  /// tiny psi map to a 0-byte — instantly "complete" — transfer.
  [[nodiscard]] std::size_t model_bytes_at(double psi) const {
    if (psi <= 0.0) return 0;
    if (psi >= 1.0) return model_bytes;
    return static_cast<std::size_t>(std::ceil(psi * static_cast<double>(model_bytes)));
  }
};

/// WireSizeModel's named member list (engine/scenario.h).
template <FieldsOf<WireSizeModel> S, class F>
void config_members(S& w, F&& f) {
  f("model_bytes", w.model_bytes);
  f("coreset_bytes_per_sample", w.coreset_bytes_per_sample);
  f("assist_info_bytes", w.assist_info_bytes);
}

/// One in-flight point-to-point transfer. Progress is fluid per tick:
/// the expected goodput at the current distance is bandwidth * (1 - p) with
/// binomial packet noise (failed packets are re-queued by the link layer; the
/// retransmission cap enters the completion-probability *estimates*, matching
/// the paper's usage of [7]). A transfer fails when the pair leaves radio
/// range before completion.
class Transfer {
 public:
  Transfer(std::size_t total_bytes, const RadioConfig& radio) : radio_(radio),
                                                                remaining_(total_bytes) {}

  /// Advance by `dt` seconds at `distance`; `loss` is the per-packet loss
  /// model. `extra_loss` is an additional, independent per-packet loss
  /// probability (interference bursts from the fault model; 1.0 = the link
  /// is blacked out). Returns bytes delivered this tick.
  std::size_t tick(double distance, double dt, const WirelessLossModel& loss, Rng& rng,
                   double extra_loss = 0.0);

  [[nodiscard]] bool complete() const { return remaining_ == 0; }
  [[nodiscard]] std::size_t remaining_bytes() const { return remaining_; }

 private:
  RadioConfig radio_;
  std::size_t remaining_;
};

}  // namespace lbchat::net
