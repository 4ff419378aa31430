// Golden-scenario definitions shared by the regression test (golden_test.cpp)
// and the regeneration tool (tools/golden_regen.cpp).
//
// Each scenario is a tiny fixed-seed run whose behavioural digest — loss
// curve bits, event-log CRC, checkpoint CRC — is committed under
// tests/goldens/. The digest pins end-to-end engine behaviour bit-exactly
// across PRs: any change to world stepping, training, the protocol, fault
// injection, event emission, or the checkpoint wire format shows up as a
// digest mismatch.
//
// Each digest is a function of its scenario alone: the run records its own
// events and metrics (FleetSim::enable_events), so scenarios may run in any
// order and in any process.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/bytes.h"
#include "common/frame.h"
#include "engine/fleet.h"
#include "nn/kernel_dispatch.h"
#include "obs/export.h"

namespace lbchat::golden {

struct GoldenScenario {
  const char* name;      ///< golden file stem (tests/goldens/<name>.golden)
  const char* approach;  ///< registry name
  std::uint64_t seed;
  bool faults;
  /// > 0: run at this metro-scaled fleet size (apply_metro_scale tiles the
  /// town so vehicle density stays constant).
  int metro = 0;
};

/// The scenarios with a committed golden each. Three cover the paper's
/// protocol, a payload strategy without session scratch, and a
/// synchronous-round baseline; the fourth pins a metro-scaled fleet
/// (DESIGN.md §11).
inline constexpr GoldenScenario kGoldenScenarios[] = {
    {"lbchat_s7", "LbChat", 7, false},
    {"dp_s11_faults", "DP", 11, true},
    {"dfl_dds_s3_faults", "DFL-DDS", 3, true},
    {"dp_metro64_s5_faults", "DP", 5, true, 64},
};

/// Micro scenario: small fleet, short horizon — a few seconds of wall clock.
inline engine::ScenarioConfig golden_config(std::uint64_t seed, bool faults) {
  engine::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_vehicles = 4;
  cfg.world.num_background_cars = 6;
  cfg.world.num_pedestrians = 10;
  cfg.collect_duration_s = 60.0;
  cfg.collect_fps = 1.0;
  cfg.eval_frames_per_vehicle = 4;
  cfg.duration_s = 90.0;
  cfg.eval_interval_s = 30.0;
  cfg.train_interval_s = 4.0;
  cfg.batch_size = 8;
  cfg.coreset_size = 24;
  cfg.pair_cooldown_s = 10.0;
  cfg.time_budget_s = 10.0;
  cfg.radio.max_range_m = 400.0;  // dense contacts on the tiny map
  cfg.wire.model_bytes = 8ull * 1024 * 1024;
  cfg.wire.coreset_bytes_per_sample = 2048;
  if (faults) {
    cfg.faults.burst_rate_per_min = 4.0;
    cfg.faults.burst_duration_s = 10.0;
    cfg.faults.burst_radius_m = 200.0;
    cfg.faults.burst_extra_loss = 0.8;
    cfg.faults.churn_rate_per_min = 1.0;
    cfg.faults.churn_offline_mean_s = 10.0;
    cfg.faults.corrupt_prob_near = 0.02;
    cfg.faults.corrupt_prob_far = 0.2;
    cfg.faults.chat_backoff = true;
  }
  return cfg;
}

/// Metro twin of golden_config: the same tiny scenario tiled up to
/// `vehicles`, horizons trimmed so the run stays a few wall-clock seconds.
inline engine::ScenarioConfig golden_metro_config(std::uint64_t seed, bool faults,
                                                  int vehicles) {
  engine::ScenarioConfig cfg = golden_config(seed, faults);
  cfg.collect_duration_s = 30.0;
  cfg.duration_s = 60.0;
  cfg.eval_interval_s = 30.0;
  engine::apply_metro_scale(cfg, vehicles);
  return cfg;
}

inline std::uint64_t fnv64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Run one scenario with event tracing on and return its digest as
/// deterministic `key=value` lines (the golden file format).
inline std::string run_golden_scenario(const GoldenScenario& sc) {
  // The committed digests pin the scalar kernel numerics; force that path so
  // the suite passes on any machine regardless of the runtime CPUID dispatch
  // (DESIGN.md §15). LBCHAT_KERNEL still governs every non-golden run.
  nn::ScopedKernelPath kernel_guard{nn::KernelPath::kScalar};
  engine::FleetSim sim{sc.metro > 0 ? golden_metro_config(sc.seed, sc.faults, sc.metro)
                                    : golden_config(sc.seed, sc.faults),
                       baselines::registry().make(sc.approach)};
  sim.enable_events();
  sim.prepare();
  sim.run_until(sim.config().duration_s);
  ByteWriter ckpt;
  sim.save_checkpoint(ckpt);
  const engine::RunMetrics m = sim.finalize();

  std::uint64_t curve = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    curve = fnv64(curve, std::bit_cast<std::uint64_t>(m.loss_curve.times[i]));
    curve = fnv64(curve, std::bit_cast<std::uint64_t>(m.loss_curve.values[i]));
  }
  const std::string events = obs::events_jsonl(sim.events().events(), sim.events().dropped());
  const std::vector<std::uint8_t> events_bytes{events.begin(), events.end()};

  char buf[64];
  std::string out;
  out += "scenario=" + std::string{sc.name} + "\n";
  std::snprintf(buf, sizeof buf, "curve_fnv64=%016llx\n",
                static_cast<unsigned long long>(curve));
  out += buf;
  std::snprintf(buf, sizeof buf, "final_loss_bits=%016llx\n",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(m.loss_curve.values.back())));
  out += buf;
  std::snprintf(buf, sizeof buf, "events_crc32=%08x\n", frame::crc32(events_bytes));
  out += buf;
  std::snprintf(buf, sizeof buf, "events_bytes=%zu\n", events_bytes.size());
  out += buf;
  std::snprintf(buf, sizeof buf, "checkpoint_crc32=%08x\n", frame::crc32(ckpt.bytes()));
  out += buf;
  std::snprintf(buf, sizeof buf, "checkpoint_bytes=%zu\n", ckpt.size());
  out += buf;
  return out;
}

}  // namespace lbchat::golden
