// Pins the shared fingerprint implementation (common/fingerprint.h and
// engine::scenario_fingerprint) that both the bench result cache and the
// fleet service's ResultCache key on.
// The digests below are frozen: a change means every cached result on disk
// is silently mis-keyed, so treat a failure here as a cache-format break and
// bump kScenarioFingerprintVersion rather than updating the constants.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/fingerprint.h"
#include "engine/checkpoint.h"
#include "engine/scenario.h"
#include "nn/kernel_dispatch.h"

namespace lbchat {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Fnv1aTest, PinnedVectors) {
  // Offset basis: the hash of the empty input.
  EXPECT_EQ(fnv1a({}), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a({}), kFnvOffsetBasis);
  // Published FNV-1a 64-bit test vector.
  EXPECT_EQ(fnv1a(bytes_of("foobar")), 0x85944171F73967E8ull);
  // Chaining splits arbitrarily.
  EXPECT_EQ(fnv1a(bytes_of("bar"), fnv1a(bytes_of("foo"))), fnv1a(bytes_of("foobar")));
}

TEST(FnvHasherTest, PinnedByteLayout) {
  // Freezes the typed add() byte layout (little-endian via ByteWriter,
  // strings length-prefixed). Recorded from the initial implementation.
  FnvHasher h;
  h.add(1.5);
  h.add(std::uint64_t{42});
  h.add(int{-7});
  h.add(true);
  h.add(std::string_view{"lbchat"});
  EXPECT_EQ(h.digest(), 0xBA1E97E39EF06B0Dull);
}

TEST(FnvHasherTest, EmptyDigestIsOffsetBasis) {
  EXPECT_EQ(FnvHasher{}.digest(), kFnvOffsetBasis);
}

TEST(ScenarioFingerprintTest, PinnedDefaults) {
  // Frozen digests of the default scenario under two approaches, exactly as
  // the bench cache has keyed them since kScenarioFingerprintVersion = 5.
  const engine::ScenarioConfig cfg;
  EXPECT_EQ(scenario_fingerprint(cfg, "LbChat"), 0xEA6C4D563455561Eull);
  EXPECT_EQ(scenario_fingerprint(cfg, "ProxSkip"), 0x905CE01E78BF388Cull);
  engine::ScenarioConfig seeded = cfg;
  seeded.seed = 2;
  EXPECT_EQ(scenario_fingerprint(seeded, "LbChat"), 0x8E630F7637C61BE7ull);
}

TEST(ScenarioFingerprintTest, SensitiveToBehaviourShapingFields) {
  const engine::ScenarioConfig base;
  const std::uint64_t fp = scenario_fingerprint(base, "LbChat");

  engine::ScenarioConfig c = base;
  c.seed = 99;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp);

  c = base;
  c.duration_s += 1.0;  // a cache entry answers one exact horizon
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp);

  c = base;
  c.num_vehicles += 1;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp);

  c = base;
  c.adversary.byzantine_frac = 0.25;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp);

  c = base;
  c.world.town.extent_m += 100.0;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp);

  EXPECT_NE(scenario_fingerprint(base, "DP"), fp);
}

// One single-field change of a ScenarioConfig, for the drift check below.
using Cfg = engine::ScenarioConfig;
struct Perturbation {
  const char* field;
  void (*apply)(Cfg&);
};

TEST(ScenarioFingerprintTest, MovesExactlyWithConfigFingerprint) {
  // The result-cache key and the checkpoint key must agree on which fields
  // shape a run: over one or more fields of every group, the scenario
  // fingerprint changes if and only if the config fingerprint does.
  const Perturbation live[] = {
      {"seed", [](Cfg& c) { c.seed = 7; }},
      {"num_vehicles", [](Cfg& c) { c.num_vehicles = 9; }},
      {"coreset_size", [](Cfg& c) { c.coreset_size = 40; }},
      {"learning_rate", [](Cfg& c) { c.learning_rate = 3e-3; }},
      {"wireless_loss", [](Cfg& c) { c.wireless_loss = false; }},
      {"world.num_background_cars", [](Cfg& c) { c.world.num_background_cars += 1; }},
      {"world.car_max_speed", [](Cfg& c) { c.world.car_max_speed *= 1.5; }},
      {"world.perturb_prob", [](Cfg& c) { c.world.perturb_prob = 0.5; }},
      {"world.town.extent_m", [](Cfg& c) { c.world.town.extent_m += 100.0; }},
      {"world.town.urban_grid", [](Cfg& c) { c.world.town.urban_grid += 1; }},
      {"world.town.edge_drop_prob", [](Cfg& c) { c.world.town.edge_drop_prob = 0.3; }},
      {"world.bev.cell_m", [](Cfg& c) { c.world.bev.cell_m *= 2.0; }},
      {"policy.bev.height", [](Cfg& c) { c.policy.bev.height += 8; }},
      {"radio.bandwidth_bps", [](Cfg& c) { c.radio.bandwidth_bps *= 2.0; }},
      {"radio.max_range_m", [](Cfg& c) { c.radio.max_range_m += 10.0; }},
      {"wire.model_bytes", [](Cfg& c) { c.wire.model_bytes += 1; }},
      {"policy.fc_dim", [](Cfg& c) { c.policy.fc_dim += 1; }},
      {"penalty.lambda1", [](Cfg& c) { c.penalty.lambda1 += 0.5; }},
      {"faults.burst_rate_per_min", [](Cfg& c) { c.faults.burst_rate_per_min = 1.0; }},
      {"faults.chat_backoff", [](Cfg& c) { c.faults.chat_backoff = !c.faults.chat_backoff; }},
      {"adversary.byzantine_frac", [](Cfg& c) { c.adversary.byzantine_frac = 0.25; }},
      {"hetero.straggler_frac", [](Cfg& c) { c.hetero.straggler_frac = 0.5; }},
      {"int8_eval.enabled", [](Cfg& c) { c.int8_eval.enabled = true; }},
  };
  // Knobs of a disabled group are inert, so neither key may see them; the
  // wall-clock knob is inert by the determinism contract.
  const Perturbation inert[] = {
      {"num_threads", [](Cfg& c) { c.num_threads = 8; }},
      {"adversary.poison_scale", [](Cfg& c) { c.adversary.poison_scale = 99.0; }},
      {"hetero.straggler_rate", [](Cfg& c) { c.hetero.straggler_rate = 0.9; }},
      {"hetero.dataset_keep_min", [](Cfg& c) { c.hetero.dataset_keep_min = 0.9; }},
      {"int8_eval.value_scoring", [](Cfg& c) { c.int8_eval.value_scoring = false; }},
  };

  const engine::ScenarioConfig base;
  const std::uint64_t config_fp = engine::config_fingerprint(base);
  const std::uint64_t scenario_fp = scenario_fingerprint(base, "LbChat");
  for (const Perturbation& p : live) {
    engine::ScenarioConfig c = base;
    p.apply(c);
    EXPECT_NE(engine::config_fingerprint(c), config_fp) << p.field;
    EXPECT_NE(scenario_fingerprint(c, "LbChat"), scenario_fp) << p.field;
  }
  for (const Perturbation& p : inert) {
    engine::ScenarioConfig c = base;
    p.apply(c);
    EXPECT_EQ(engine::config_fingerprint(c), config_fp) << p.field;
    EXPECT_EQ(scenario_fingerprint(c, "LbChat"), scenario_fp) << p.field;
  }

  // The one field in the cache key only: a resumed run may extend the
  // horizon, but a cached result answers one exact horizon.
  engine::ScenarioConfig c = base;
  c.duration_s += 1.0;
  EXPECT_EQ(engine::config_fingerprint(c), config_fp);
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), scenario_fp);
}

TEST(ScenarioFingerprintTest, InsensitiveToWallClockKnobs) {
  // num_threads changes wall-clock behaviour only — runs are bit-identical —
  // so it must not split cache keys.
  const engine::ScenarioConfig base;
  engine::ScenarioConfig c = base;
  c.num_threads = 8;
  EXPECT_EQ(scenario_fingerprint(c, "LbChat"), scenario_fingerprint(base, "LbChat"));
}

TEST(ScenarioFingerprintTest, InertRobustnessLayerDoesNotSplitKeys) {
  // An all-off adversary/hetero config is bit-inert, so it hashes like a
  // scenario from before the robustness layer existed: toggling a knob that
  // stays disabled (enabled() == false) must not change the key.
  const engine::ScenarioConfig base;
  engine::ScenarioConfig c = base;
  c.adversary.poison_scale = 99.0;  // ignored while byzantine_frac == 0
  EXPECT_EQ(scenario_fingerprint(c, "LbChat"), scenario_fingerprint(base, "LbChat"));
}

TEST(ScenarioFingerprintTest, EmptyOptionsKeepLegacyKeys) {
  // The options tail is conditional: no options (the pre-registry world)
  // hashes byte-identically to the 2-arg overload, so every cached result on
  // disk keeps its key across the registry migration.
  const engine::ScenarioConfig cfg;
  EXPECT_EQ(scenario_fingerprint(cfg, "LbChat", {}), scenario_fingerprint(cfg, "LbChat"));
  EXPECT_EQ(scenario_fingerprint(cfg, "LbChat", {}), 0xEA6C4D563455561Eull);
}

TEST(ScenarioFingerprintTest, NonDefaultOptionsSplitKeys) {
  const engine::ScenarioConfig cfg;
  const std::vector<StrategyOptionKv> opts{{"divergence_bound", 2e-4}};
  const std::uint64_t with = scenario_fingerprint(cfg, "DynThresh", opts);
  EXPECT_NE(with, scenario_fingerprint(cfg, "DynThresh"));

  // Key order and values both matter.
  const std::vector<StrategyOptionKv> opts2{{"divergence_bound", 3e-4}};
  EXPECT_NE(scenario_fingerprint(cfg, "DynThresh", opts2), with);
}

TEST(ScenarioFingerprintTest, DisabledInt8EvalKeepsLegacyKeys) {
  // Same conditional-tail contract as the robustness layer: the Int8EvalConfig
  // member's existence must not move any historical key, and its sub-knobs
  // are dead while enabled == false.
  const engine::ScenarioConfig base;
  EXPECT_EQ(scenario_fingerprint(base, "LbChat"), 0xEA6C4D563455561Eull);
  engine::ScenarioConfig c = base;
  c.int8_eval.value_scoring = false;  // ignored while !enabled
  c.int8_eval.eval_loss = false;
  EXPECT_EQ(scenario_fingerprint(c, "LbChat"), scenario_fingerprint(base, "LbChat"));
}

TEST(ScenarioFingerprintTest, EnabledInt8EvalSplitsKeys) {
  const engine::ScenarioConfig base;
  engine::ScenarioConfig on = base;
  on.int8_eval.enabled = true;
  const std::uint64_t fp_on = scenario_fingerprint(on, "LbChat");
  EXPECT_NE(fp_on, scenario_fingerprint(base, "LbChat"));

  // The sub-knobs are live once enabled — each changes the measurement, so
  // each must change the key.
  engine::ScenarioConfig c = on;
  c.int8_eval.value_scoring = false;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp_on);
  c = on;
  c.int8_eval.eval_loss = false;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp_on);
}

TEST(ScenarioFingerprintTest, KernelPathDoesNotEnterScenarioFingerprint) {
  // scenario_fingerprint hashes configuration, not runtime state; the active
  // GEMM backend enters cache keys only via nn::salt_with_kernel_path at the
  // call sites that cache run *results*.
  const engine::ScenarioConfig cfg;
  const std::uint64_t fp = scenario_fingerprint(cfg, "LbChat");
  for (const nn::KernelPath p : {nn::KernelPath::kScalar, nn::KernelPath::kAvx2}) {
    if (!nn::kernel_path_available(p)) continue;
    nn::ScopedKernelPath guard{p};
    EXPECT_EQ(scenario_fingerprint(cfg, "LbChat"), fp);
  }
}

}  // namespace
}  // namespace lbchat
