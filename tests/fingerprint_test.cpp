// Pins the shared fingerprint implementation (common/fingerprint.h and
// engine::scenario_fingerprint) that both the bench result cache and the
// fleet service's ResultCache key on.
// The digests below are frozen: a change means every cached result on disk
// is silently mis-keyed, so treat a failure here as a cache-format break and
// bump kScenarioFingerprintVersion rather than updating the constants.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
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

// A changed value of one config leaf: a flipped bool, or a number moved off
// its value.
template <class T>
void perturb(T& x) {
  if constexpr (std::is_same_v<T, bool>) {
    x = !x;
  } else if constexpr (std::is_integral_v<T>) {
    x += 1;
  } else {
    x = x * 1.5 + 0.25;
  }
}

// Whether config_fingerprint hashes the leaf at `path` of `cfg`.
bool hashed(const engine::ScenarioConfig& cfg, std::string_view path) {
  bool on = false;
  engine::for_each_member(cfg, [&](std::string_view p, const auto&, const engine::Hashing& h) {
    if (p == path) on = h.on;
  });
  return on;
}

TEST(ScenarioFingerprintTest, MovesExactlyWithConfigFingerprint) {
  // The result-cache key and the checkpoint key must agree on which members
  // shape a run. Every leaf of ScenarioConfig's member list, changed alone,
  // moves both keys when it is hashed before or after the change: a member
  // of a conditional tail that stays off moves neither, and so does the
  // wall-clock knob num_threads. duration_s is the one member in the cache
  // key only: a resumed run may extend the horizon, but a cached result
  // answers one exact horizon. Run from the defaults (tails off) and with
  // every tail on.
  engine::ScenarioConfig tails_on;
  tails_on.adversary.byzantine_frac = 0.25;
  tails_on.hetero.straggler_frac = 0.5;
  tails_on.int8_eval.enabled = true;
  for (const engine::ScenarioConfig& base : {engine::ScenarioConfig{}, tails_on}) {
    const std::uint64_t config_fp = engine::config_fingerprint(base);
    const std::uint64_t scenario_fp = scenario_fingerprint(base, "LbChat");
    std::vector<std::string> paths;
    engine::for_each_member(base, [&](std::string_view p, const auto&, const engine::Hashing&) {
      paths.emplace_back(p);
    });
    EXPECT_EQ(paths.size(), 99u);
    int moved = 0;
    for (const std::string& path : paths) {
      engine::ScenarioConfig c = base;
      engine::for_each_member(c, [&](std::string_view p, auto& m, const engine::Hashing&) {
        if (p == path) perturb(m);
      });
      const bool moves = hashed(base, path) || hashed(c, path);
      moved += moves ? 1 : 0;
      EXPECT_EQ(engine::config_fingerprint(c) != config_fp, moves) << path;
      EXPECT_EQ(scenario_fingerprint(c, "LbChat") != scenario_fp, moves || path == "duration_s")
          << path;
    }
    // Off, the tails' 15 members hide all but the 5 that switch a tail on.
    EXPECT_EQ(moved, base.robustness_on() ? 97 : 97 - 15 + 5);
  }
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
  // member's existence must not move any historical key.
  const engine::ScenarioConfig base;
  EXPECT_EQ(scenario_fingerprint(base, "LbChat"), 0xEA6C4D563455561Eull);
}

TEST(ScenarioFingerprintTest, EnabledInt8EvalSplitsKeys) {
  const engine::ScenarioConfig base;
  engine::ScenarioConfig on = base;
  on.int8_eval.enabled = true;
  const std::uint64_t fp_on = scenario_fingerprint(on, "LbChat");
  EXPECT_NE(fp_on, scenario_fingerprint(base, "LbChat"));
  // The 0x18 tail's bytes are pinned: int8 results stay keyed as before.
  EXPECT_EQ(fp_on, 0x63113181695A7029ull);
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
