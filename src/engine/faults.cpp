#include "engine/faults.h"

#include <algorithm>
#include <stdexcept>

#include "common/bytes.h"

#include "obs/trace.h"

namespace lbchat::engine {

FaultInjector::FaultInjector(const FaultConfig& cfg, std::uint64_t seed, double extent_m,
                             int num_vehicles)
    : cfg_(cfg),
      extent_m_(extent_m),
      burst_rng_(Rng{seed}.fork("fault-burst")),
      churn_rng_(Rng{seed}.fork("fault-churn")),
      corrupt_rng_(Rng{seed}.fork("fault-corrupt")),
      offline_until_(static_cast<std::size_t>(num_vehicles), 0.0) {}

void FaultInjector::advance(double time, double dt, obs::EventTracer* events) {
  time_ = time;
  went_offline_.clear();
  const auto emit = [events, time](obs::EventKind kind, int a, int b, double value) {
    if (events != nullptr) events->emit(obs::Event{time, kind, a, b, value});
  };

  if (cfg_.burst_rate_per_min > 0.0) {
    // Expire first so a burst lasts its sampled duration, not duration + dt.
    bursts_.erase(std::remove_if(bursts_.begin(), bursts_.end(),
                                 [time, &emit](const Burst& b) {
                                   if (time >= b.until_s) {
                                     emit(obs::EventKind::kBurstEnd, -1, -1, b.extra_loss);
                                     return true;
                                   }
                                   return false;
                                 }),
                  bursts_.end());
    const double p_spawn = std::min(cfg_.burst_rate_per_min / 60.0 * dt, 1.0);
    if (burst_rng_.chance(p_spawn)) {
      Burst b;
      b.center = Vec2{burst_rng_.uniform(0.0, extent_m_), burst_rng_.uniform(0.0, extent_m_)};
      b.radius_m = cfg_.burst_radius_m;
      b.extra_loss = std::clamp(cfg_.burst_extra_loss, 0.0, 1.0);
      b.until_s = time + cfg_.burst_duration_s * burst_rng_.uniform(0.5, 1.5);
      emit(obs::EventKind::kBurstBegin, -1, -1, b.until_s);
      bursts_.push_back(b);
    }
  }

  if (cfg_.churn_rate_per_min > 0.0) {
    const double p_drop = std::min(cfg_.churn_rate_per_min / 60.0 * dt, 1.0);
    for (std::size_t v = 0; v < offline_until_.size(); ++v) {
      if (offline_until_[v] > 0.0) {
        if (time >= offline_until_[v]) {
          // Rejoin: the vehicle's node state (model, optimizer, dataset,
          // RNG) was never touched, so it resumes where it left off.
          offline_until_[v] = 0.0;
          --offline_count_;
          emit(obs::EventKind::kChurnOnline, static_cast<int>(v), -1, 0.0);
        }
        continue;
      }
      if (churn_rng_.chance(p_drop)) {
        const double dur = cfg_.churn_offline_mean_s * churn_rng_.uniform(0.5, 1.5);
        offline_until_[v] = time + std::max(dur, dt);
        ++offline_count_;
        went_offline_.push_back(static_cast<int>(v));
        emit(obs::EventKind::kChurnOffline, static_cast<int>(v), -1, offline_until_[v]);
      }
    }
  }
}

double FaultInjector::extra_loss(const Vec2& a, const Vec2& b) const {
  double worst = 0.0;
  for (const Burst& burst : bursts_) {
    if (distance(a, burst.center) <= burst.radius_m ||
        distance(b, burst.center) <= burst.radius_m) {
      worst = std::max(worst, burst.extra_loss);
    }
  }
  return worst;
}

bool FaultInjector::corrupt_delivery(double distance_m, double max_range_m) {
  const double near = cfg_.corrupt_prob_near;
  const double far = cfg_.corrupt_prob_far;
  if (near <= 0.0 && far <= 0.0) return false;
  const double t =
      max_range_m > 0.0 ? std::clamp(distance_m / max_range_m, 0.0, 1.0) : 0.0;
  const double p = std::clamp(near + (far - near) * t, 0.0, 1.0);
  return corrupt_rng_.chance(p);
}

void FaultInjector::corrupt_payload(std::vector<std::uint8_t>& payload) {
  if (payload.empty()) return;
  const auto flips = static_cast<int>(1 + corrupt_rng_.uniform_index(4));
  for (int i = 0; i < flips; ++i) {
    const std::size_t bit = static_cast<std::size_t>(
        corrupt_rng_.uniform_index(static_cast<std::uint64_t>(payload.size()) * 8));
    payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

template <class Io, class S>
void FaultInjector::fields(Io& io, S& f) {
  io(f.time_);
  io(f.burst_rng_);
  io(f.churn_rng_);
  io(f.corrupt_rng_);
  io.resize(f.bursts_, 5 * sizeof(double));
  for (auto& b : f.bursts_) {
    io(b.center);
    io(b.radius_m);
    io(b.extra_loss);
    io(b.until_s);
  }
  io.exact_count(f.offline_until_.size(), "FaultInjector::load: vehicle count");
  for (auto& until : f.offline_until_) io(until);
  io(f.went_offline_);
  if constexpr (Io::kLoad) {
    const int n = static_cast<int>(f.offline_until_.size());
    for (const int v : f.went_offline_) {
      if (v < 0 || v >= n) throw std::runtime_error{"FaultInjector::load: vehicle out of range"};
    }
    f.offline_count_ = static_cast<int>(std::count_if(f.offline_until_.begin(), f.offline_until_.end(),
                                                       [](double t) { return t > 0.0; }));
  }
}

void FaultInjector::save(ByteWriter& w) const {
  Save io{w};
  fields(io, *this);
}

void FaultInjector::load(ByteReader& r) {
  Load io{r};
  fields(io, *this);
}

}  // namespace lbchat::engine
