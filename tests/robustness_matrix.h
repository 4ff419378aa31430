// Scenario × strategy robustness matrix, shared by the regression test
// (robustness_matrix_test.cpp) and the runner tool
// (tools/run_robustness_matrix.cpp).
//
// Rows are adversary/heterogeneity scenarios — clean, 12%- and 25%-Byzantine,
// a straggler-heavy heterogeneous fleet, and Byzantine-plus-radio-faults —
// and columns are the three head-to-head strategies (LbChat, DP, DFL-DDS).
// Every cell is a small fixed-seed run whose behavioural digest (loss-curve
// bits, honest-cohort final loss, attacker weight share, adversary counters,
// checkpoint CRC) is committed in tests/goldens/robustness_matrix.golden.
//
// Cells run with event tracing OFF, so each cell is independent of process
// history (no per-process metric accumulation, unlike golden_scenarios.h)
// and the matrix can be run in any order or subset.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "baselines/registry.h"
#include "common/bytes.h"
#include "common/frame.h"
#include "engine/fleet.h"
#include "nn/kernel_dispatch.h"

namespace lbchat::robustness {

inline constexpr const char* kApproaches[] = {"LbChat", "DP", "DFL-DDS"};

struct MatrixScenario {
  const char* name;
  double byzantine_frac;  ///< AdversaryConfig::byzantine_frac
  double straggler_frac;  ///< HeteroConfig::straggler_frac (plus radio/data skew)
  bool faults;            ///< golden-style radio faults (bursts, churn, corruption)
};

/// Append new scenarios LAST and regenerate the committed golden — the file
/// lists cells in this order.
inline constexpr MatrixScenario kMatrixScenarios[] = {
    {"clean", 0.0, 0.0, false},
    {"byz12", 0.125, 0.0, false},
    {"byz25", 0.25, 0.0, false},
    {"stragglers", 0.0, 0.5, false},
    {"byzfaults", 0.25, 0.0, true},
};

/// One matrix cell config: golden_config-like micro run, doubled to 8
/// vehicles so the Byzantine fractions quantize to whole attackers
/// (12.5% -> 1, 25% -> 2) with an honest majority left to measure.
inline engine::ScenarioConfig matrix_config(const MatrixScenario& sc) {
  engine::ScenarioConfig cfg;
  cfg.seed = 21;
  cfg.num_vehicles = 8;
  cfg.world.num_background_cars = 6;
  cfg.world.num_pedestrians = 10;
  cfg.collect_duration_s = 60.0;
  cfg.collect_fps = 1.0;
  cfg.eval_frames_per_vehicle = 4;
  cfg.duration_s = 120.0;
  cfg.eval_interval_s = 30.0;
  cfg.train_interval_s = 4.0;
  cfg.batch_size = 8;
  cfg.coreset_size = 24;
  cfg.pair_cooldown_s = 10.0;
  cfg.time_budget_s = 10.0;
  cfg.radio.max_range_m = 400.0;
  cfg.wire.model_bytes = 8ull * 1024 * 1024;
  cfg.wire.coreset_bytes_per_sample = 2048;
  if (sc.faults) {
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
  cfg.adversary.byzantine_frac = sc.byzantine_frac;
  // Moderate sign flip: the regime that separates the defenses. A heavily
  // scaled flip (the 3.0 default) inflates the poisoned model's validation
  // loss so much that even DP's blind log1p weighting hands it a vanishing
  // alpha and everybody survives; at 1.5 the flipped model looks only
  // moderately bad, which still earns it a substantial merge weight from the
  // hold-out-loss weighting (DP) and the entropy weighting (DFL-DDS), while
  // LbChat's coreset evaluation — sharper because the merged coreset carries
  // the sender's own data distribution — rejects or heavily down-weights it.
  cfg.adversary.poison_scale = 1.5;
  if (sc.straggler_frac > 0.0) {
    cfg.hetero.straggler_frac = sc.straggler_frac;
    cfg.hetero.slow_radio_frac = sc.straggler_frac;
    cfg.hetero.dataset_skew = 0.5;
  }
  return cfg;
}

struct CellResult {
  std::string scenario;
  std::string approach;
  double final_loss = 0.0;
  /// Final mean held-out loss of the honest cohort (== final_loss when the
  /// cell has no adversary).
  double honest_final_loss = 0.0;
  /// Fraction of merged peer-weight mass honest receivers granted to
  /// Byzantine senders (0 when the cell has no adversary).
  double attacker_share = 0.0;
  int byzantine_payloads = 0;
  long straggler_skips = 0;
  int frames_rejected = 0;
  std::string digest;  ///< one `cell=... key=value ...` golden line
};

inline std::uint64_t fnv64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Run one cell (event tracing off) and digest it.
inline CellResult run_matrix_cell(const MatrixScenario& sc, const char* approach) {
  // Pinned digests assume the scalar kernel path (DESIGN.md §15), same as
  // the golden-scenario suite.
  nn::ScopedKernelPath kernel_guard{nn::KernelPath::kScalar};
  engine::FleetSim sim{matrix_config(sc),
                       baselines::registry().make(approach)};
  sim.prepare();
  sim.run_until(sim.config().duration_s);
  ByteWriter ckpt;
  sim.save_checkpoint(ckpt);
  const engine::RunMetrics m = sim.finalize();

  CellResult out;
  out.scenario = sc.name;
  out.approach = approach;
  out.final_loss = m.loss_curve.values.back();
  out.honest_final_loss = m.honest_loss_curve.values.empty()
                              ? out.final_loss
                              : m.honest_loss_curve.values.back();
  out.attacker_share = m.transfers.attacker_weight_share();
  out.byzantine_payloads = m.transfers.byzantine_payloads_sent;
  out.straggler_skips = m.transfers.straggler_train_skips;
  out.frames_rejected = m.transfers.frames_rejected;

  std::uint64_t curve = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    curve = fnv64(curve, std::bit_cast<std::uint64_t>(m.loss_curve.times[i]));
    curve = fnv64(curve, std::bit_cast<std::uint64_t>(m.loss_curve.values[i]));
  }
  for (std::size_t i = 0; i < m.honest_loss_curve.size(); ++i) {
    curve = fnv64(curve, std::bit_cast<std::uint64_t>(m.honest_loss_curve.values[i]));
    curve = fnv64(curve, std::bit_cast<std::uint64_t>(m.attacker_loss_curve.values[i]));
  }

  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "cell=%s/%s curve_fnv64=%016llx final_loss_bits=%016llx "
      "honest_final_loss_bits=%016llx attacker_share_bits=%016llx byz_payloads=%d "
      "straggler_skips=%ld frames_rejected=%d checkpoint_crc32=%08x checkpoint_bytes=%zu",
      sc.name, approach, static_cast<unsigned long long>(curve),
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(out.final_loss)),
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(out.honest_final_loss)),
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(out.attacker_share)),
      out.byzantine_payloads, out.straggler_skips, out.frames_rejected,
      frame::crc32(ckpt.bytes()), ckpt.size());
  out.digest = buf;
  return out;
}

}  // namespace lbchat::robustness
