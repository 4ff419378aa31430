#include "net/wireless.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/interpolation.h"
#include "obs/trace.h"

namespace lbchat::net {

WirelessLossModel::WirelessLossModel(std::vector<double> distances, std::vector<double> losses)
    : distances_(std::move(distances)), losses_(std::move(losses)) {
  if (distances_.size() != losses_.size() || distances_.size() < 2) {
    throw std::invalid_argument{"WirelessLossModel: bad table"};
  }
  for (std::size_t i = 1; i < distances_.size(); ++i) {
    if (distances_[i] <= distances_[i - 1]) {
      throw std::invalid_argument{"WirelessLossModel: distances must increase"};
    }
  }
  for (const double l : losses_) {
    if (l < 0.0 || l > 1.0) throw std::invalid_argument{"WirelessLossModel: loss out of [0,1]"};
  }
}

WirelessLossModel WirelessLossModel::default_table(double max_range_m) {
  // Qualitative shape of the 802.11bd-class V2X PHY evaluations in [13]:
  // near-zero loss close in, a knee in the mid range, steep rise toward the
  // maximum communication range.
  std::vector<double> distances{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  for (double& d : distances) d *= max_range_m;
  return WirelessLossModel{std::move(distances),
                           {0.02, 0.05, 0.10, 0.15, 0.22, 0.30, 0.40, 0.55, 0.70, 0.85, 0.95}};
}

double WirelessLossModel::packet_loss(double distance) const {
  if (distance >= distances_.back()) return 1.0;
  return lerp_table(distances_, losses_, distance);
}

double WirelessLossModel::delivery_probability(double distance, int max_retransmissions) const {
  const double p = packet_loss(distance);
  return 1.0 - std::pow(p, static_cast<double>(max_retransmissions + 1));
}

double WirelessLossModel::sample_uniform_loss(Rng& rng) const {
  return packet_loss(rng.uniform(distances_.front(), distances_.back()));
}

std::size_t Transfer::tick(double distance, double dt, const WirelessLossModel& loss, Rng& rng,
                           double extra_loss) {
  LBCHAT_OBS_SPAN("net.transfer_tick");
  if (remaining_ == 0 || dt <= 0.0) return 0;
  if (distance > radio_.max_range_m) return 0;
  // Independent loss processes compose: p = 1 - (1-p_dist)(1-p_extra).
  // extra_loss == 0 reduces to p_dist exactly (bit-identical to a run
  // without the fault model).
  const double p_dist = loss.packet_loss(distance);
  const double p = p_dist + extra_loss - p_dist * extra_loss;
  const double attempts = radio_.packets_per_second() * dt;
  if (attempts <= 0.0 || p >= 1.0) return 0;
  // Expected successes with normal-approximated binomial noise; each failed
  // attempt is re-queued, so goodput per attempt is (1 - p).
  const double mean_ok = attempts * (1.0 - p);
  const double sd = std::sqrt(std::max(attempts * p * (1.0 - p), 0.0));
  const double ok = std::max(0.0, rng.normal(mean_ok, sd));
  auto bytes = static_cast<std::size_t>(ok * static_cast<double>(radio_.packet_bytes));
  bytes = std::min(bytes, remaining_);
  remaining_ -= bytes;
  return bytes;
}

}  // namespace lbchat::net
