// Tests for the fleet-scaling layer (DESIGN.md §11): the uniform spatial
// grid and neighbor index (exactness against the brute-force scan, including
// cell boundaries and degenerate geometry, and during a run), thread-count
// bit-identity of metro-scale runs (snapshot mobility + parallel sessions +
// faults), metro checkpoint resume across pair-map sweeps, and the pair-map
// plateau at 1,024 vehicles.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/spatial_grid.h"
#include "engine/checkpoint.h"
#include "engine/fleet.h"
#include "net/spatial_index.h"

namespace lbchat {
namespace {

using engine::FleetSim;
using engine::PairSession;
using engine::ScenarioConfig;
using engine::StageTag;
using engine::Strategy;

std::vector<int> brute_neighbors(const std::vector<Vec2>& pos, int v, double range) {
  std::vector<int> out;
  for (int b = 0; b < static_cast<int>(pos.size()); ++b) {
    if (b != v && distance(pos[static_cast<std::size_t>(v)],
                           pos[static_cast<std::size_t>(b)]) <= range) {
      out.push_back(b);
    }
  }
  return out;
}

TEST(UniformGridTest, CandidatesAreASupersetOfTheDisc) {
  Rng rng{101};
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 200.0));
    const double span = rng.uniform(10.0, 5000.0);
    std::vector<Vec2> pts(static_cast<std::size_t>(n));
    for (auto& p : pts) p = Vec2{rng.uniform(-span, span), rng.uniform(-span, span)};
    const double cell = rng.uniform(1.0, span);
    UniformGrid grid;
    grid.rebuild(pts, cell);
    // Query centers both inside and far outside the point bounding box.
    for (int q = 0; q < 10; ++q) {
      const Vec2 c{rng.uniform(-2.0 * span, 2.0 * span), rng.uniform(-2.0 * span, 2.0 * span)};
      const double radius = rng.uniform(0.0, cell * 3.0);
      std::set<int> cand;
      grid.for_each_candidate(c, radius, [&](int id) { cand.insert(id); });
      for (int i = 0; i < n; ++i) {
        if (distance(pts[static_cast<std::size_t>(i)], c) <= radius) {
          EXPECT_TRUE(cand.count(i)) << "point " << i << " inside the disc missed";
        }
      }
    }
  }
}

TEST(NeighborIndexTest, MatchesBruteForceOnRandomFleets) {
  Rng rng{202};
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform(0.0, 300.0));
    const double span = rng.uniform(50.0, 4000.0);
    std::vector<Vec2> pos(static_cast<std::size_t>(n));
    for (auto& p : pos) p = Vec2{rng.uniform(-span, span), rng.uniform(-span, span)};
    // Exercise coincident points too.
    if (n > 4) pos[1] = pos[0];
    const double range = rng.uniform(1.0, span);
    net::NeighborIndex index;
    index.rebuild(pos, range);
    std::vector<int> out;
    for (int v = 0; v < n; ++v) {
      index.query(v, out);
      EXPECT_EQ(out, brute_neighbors(pos, v, range)) << "trial " << trial << " v " << v;
    }
  }
}

TEST(NeighborIndexTest, InclusiveOnExactCellAndRangeBoundaries) {
  // A lattice with spacing exactly equal to the range: axis-aligned
  // neighbors sit at distance == range (must be included — the same
  // inclusive <= as FleetSim::in_range), diagonal ones at range*sqrt(2)
  // (must not). Lattice lines coincide with grid cell boundaries, the
  // classic off-by-one-cell trap.
  const double range = 100.0;
  std::vector<Vec2> pos;
  for (int i = -2; i <= 2; ++i) {
    for (int j = -2; j <= 2; ++j) {
      pos.push_back(Vec2{i * range, j * range});
    }
  }
  net::NeighborIndex index;
  index.rebuild(pos, range);
  std::vector<int> out;
  for (int v = 0; v < static_cast<int>(pos.size()); ++v) {
    index.query(v, out);
    EXPECT_EQ(out, brute_neighbors(pos, v, range)) << "lattice vertex " << v;
  }
  // The center vertex has exactly its 4 axis-aligned neighbors.
  const int center = 12;  // (0,0) in the 5x5 row-major lattice
  index.query(center, out);
  EXPECT_EQ(out.size(), 4u);
}

TEST(NeighborIndexTest, AscendingIdOrder) {
  Rng rng{303};
  std::vector<Vec2> pos(64);
  for (auto& p : pos) p = Vec2{rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)};
  net::NeighborIndex index;
  index.rebuild(pos, 200.0);
  std::vector<int> out;
  for (int v = 0; v < 64; ++v) {
    index.query(v, out);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_TRUE(std::find(out.begin(), out.end(), v) == out.end());
  }
}

/// Minimal no-NN scenario: no background traffic, no training, no eval.
ScenarioConfig lean_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.world.num_background_cars = 0;
  cfg.world.num_pedestrians = 0;
  cfg.collect_duration_s = 10.0;
  cfg.collect_fps = 0.5;
  cfg.eval_frames_per_vehicle = 0;
  cfg.validation_fraction = 0.0;
  cfg.train_interval_s = 1e9;
  cfg.eval_interval_s = 1e9;
  cfg.policy.bev = data::BevSpec{4, 8, 8, 4.0};
  cfg.policy.conv1_channels = 2;
  cfg.policy.conv2_channels = 2;
  cfg.policy.fc_dim = 8;
  cfg.policy.branch_hidden = 4;
  cfg.world.bev = cfg.policy.bev;
  return cfg;
}

/// Chats every idle vehicle with its first idle in-range peer (one small
/// transfer each way), exercising neighbor queries and session machinery.
class ChatNeighborStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "chat-neighbor"; }
  void local_train(FleetSim& sim, int v) override {
    (void)sim;
    (void)v;
  }
  void on_tick(FleetSim& sim) override {
    for (int a = 0; a < sim.num_vehicles(); ++a) {
      if (!sim.is_idle(a)) continue;
      for (const int b : sim.neighbors_in_range(a)) {
        if (!sim.is_idle(b) || !sim.cooldown_passed(a, b)) continue;
        PairSession& s = sim.start_session(a, b);
        sim.queue_transfer(s, a, 32 * 1024, StageTag{});
        sim.queue_transfer(s, b, 32 * 1024, StageTag{});
        break;
      }
    }
  }
};

/// Compares neighbors_in_range (grid-backed) against a brute in_range scan
/// every tick, over live (moving) vehicle positions.
class ProbeStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "probe"; }
  void local_train(FleetSim& sim, int v) override {
    (void)sim;
    (void)v;
  }
  void on_tick(FleetSim& sim) override {
    for (int v = 0; v < sim.num_vehicles(); ++v) {
      const std::vector<int> got = sim.neighbors_in_range(v);  // copy the scratch
      std::vector<int> want;
      for (int b = 0; b < sim.num_vehicles(); ++b) {
        if (b != v && sim.in_range(v, b)) want.push_back(b);
      }
      EXPECT_EQ(got, want) << "t=" << sim.time() << " v=" << v;
      ++probes;
    }
  }
  long probes = 0;
};

TEST(SpatialEngineTest, GridNeighborsMatchBruteForceDuringRun) {
  ScenarioConfig cfg = lean_config(5);
  cfg.num_vehicles = 24;
  cfg.duration_s = 40.0;
  cfg.radio.max_range_m = 250.0;
  auto strategy = std::make_unique<ProbeStrategy>();
  ProbeStrategy* probe = strategy.get();
  FleetSim sim{cfg, std::move(strategy)};
  sim.prepare();
  sim.run_until(cfg.duration_s);
  EXPECT_GT(probe->probes, 0);
}

std::vector<std::uint8_t> run_and_checkpoint(const ScenarioConfig& cfg, double horizon) {
  FleetSim sim{cfg, std::make_unique<ChatNeighborStrategy>()};
  sim.prepare();
  sim.run_until(horizon);
  ByteWriter w;
  sim.save_checkpoint(w);
  return {w.bytes().begin(), w.bytes().end()};
}

TEST(MetroScaleTest, TilingHoldsDensityConstantAndEnablesScaling) {
  ScenarioConfig base;
  const double base_density = base.num_vehicles / (base.world.town.extent_m *
                                                   base.world.town.extent_m);
  const double base_bg = base.world.num_background_cars;
  ScenarioConfig cfg = base;
  engine::apply_metro_scale(cfg, 256);
  EXPECT_EQ(cfg.num_vehicles, 256);
  const double density =
      cfg.num_vehicles / (cfg.world.town.extent_m * cfg.world.town.extent_m);
  EXPECT_NEAR(density / base_density, 1.0, 1e-9);
  EXPECT_NEAR(cfg.world.num_background_cars / base_bg, 16.0, 0.1);
  // Scaling up is part of the checkpoint config fingerprint (the scaled
  // world differs), so mismatched resumes are rejected.
  EXPECT_NE(engine::config_fingerprint(cfg), engine::config_fingerprint(base));
}

ScenarioConfig metro_config(std::uint64_t seed, int vehicles, bool faults) {
  ScenarioConfig cfg = lean_config(seed);
  if (faults) {
    cfg.faults.burst_rate_per_min = 3.0;
    cfg.faults.burst_duration_s = 8.0;
    cfg.faults.burst_radius_m = 300.0;
    cfg.faults.burst_extra_loss = 0.9;
    cfg.faults.churn_rate_per_min = 2.0;
    cfg.faults.churn_offline_mean_s = 10.0;
    cfg.faults.corrupt_prob_near = 0.02;
    cfg.faults.corrupt_prob_far = 0.2;
    cfg.faults.chat_backoff = true;
  }
  engine::apply_metro_scale(cfg, vehicles);
  return cfg;
}

TEST(MetroScaleTest, KiloFleetBitIdenticalAcrossThreadCounts) {
  // The scaling determinism claim: with the parallel world and session
  // phases fanned out and fault injection on, a 1,024-vehicle run must be
  // bit-identical for any worker-lane count.
  ScenarioConfig cfg = metro_config(21, 1024, /*faults=*/true);
  cfg.duration_s = 30.0;
  cfg.num_threads = 1;
  const auto one_thread = run_and_checkpoint(cfg, cfg.duration_s);
  cfg.num_threads = 4;
  const auto four_threads = run_and_checkpoint(cfg, cfg.duration_s);
  ASSERT_EQ(one_thread, four_threads);
}

TEST(MetroScaleTest, CheckpointResumeBitIdentical) {
  // Interrupt a metro run (per-session RNG streams in flight) and resume it:
  // the resumed half must land on the same bytes as the uninterrupted run.
  ScenarioConfig cfg = metro_config(33, 64, /*faults=*/true);
  cfg.duration_s = 80.0;
  cfg.num_threads = 2;

  FleetSim full{cfg, std::make_unique<ChatNeighborStrategy>()};
  full.prepare();
  full.run_until(40.0);
  ByteWriter mid;
  full.save_checkpoint(mid);
  full.run_until(cfg.duration_s);
  ByteWriter full_end;
  full.save_checkpoint(full_end);

  FleetSim resumed{cfg, std::make_unique<ChatNeighborStrategy>()};
  ByteReader r{mid.bytes()};
  ASSERT_EQ(resumed.restore(r), engine::CkptStatus::kOk);
  resumed.run_until(cfg.duration_s);
  ByteWriter resumed_end;
  resumed.save_checkpoint(resumed_end);

  ASSERT_EQ(std::vector<std::uint8_t>(full_end.bytes().begin(), full_end.bytes().end()),
            std::vector<std::uint8_t>(resumed_end.bytes().begin(), resumed_end.bytes().end()));
}

/// Chats every idle vehicle with its first idle in-range peer whose
/// cooldown has passed, and reports every chat as a failed exchange: with
/// chat_backoff on, only the pair-map sweep ever resets a retry count.
class FailingChatStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "failing-chat"; }
  void local_train(FleetSim& sim, int v) override {
    (void)sim;
    (void)v;
  }
  void on_tick(FleetSim& sim) override {
    for (int a = 0; a < sim.num_vehicles(); ++a) {
      if (!sim.is_idle(a)) continue;
      for (const int b : sim.neighbors_in_range(a)) {
        if (!sim.is_idle(b) || !sim.cooldown_passed(a, b)) continue;
        sim.start_session(a, b);  // no stages: idle on the next session tick
        break;
      }
    }
  }
  void on_session_idle(FleetSim& sim, PairSession& s) override {
    sim.note_pair_failure(s.vehicle_a(), s.vehicle_b());
    s.close();
  }
};

TEST(MetroScaleTest, BackoffPrunesResumeBitIdentical) {
  // The pair-map sweep must be a function of checkpointed state (no scan
  // cursor or insert count): resumed 2 s before a sweep, across five sweeps
  // of maps holding more than 256 entries while the sweep resets retry
  // counts, the run lands on the straight run's bytes.
  ScenarioConfig cfg = metro_config(55, 32, /*faults=*/true);
  cfg.duration_s = 300.0;
  cfg.pair_cooldown_s = 5.0;
  cfg.radio.max_range_m = 1e9;  // every pair can chat

  FleetSim full{cfg, std::make_unique<FailingChatStrategy>()};
  full.prepare();
  full.run_until(58.0);
  ByteWriter mid;
  full.save_checkpoint(mid);
  int large_prunes = 0;
  for (double prune_at = 60.0; prune_at <= cfg.duration_s; prune_at += 60.0) {
    full.run_until(prune_at - 1.0);  // just before the sweep at prune_at
    const auto [last_chat, backoff] = full.pair_map_sizes();
    if (std::max(last_chat, backoff) > 256) ++large_prunes;
  }
  full.run_until(cfg.duration_s);
  EXPECT_GE(large_prunes, 3);

  FleetSim resumed{cfg, std::make_unique<FailingChatStrategy>()};
  ByteReader r{mid.bytes()};
  ASSERT_EQ(resumed.restore(r), engine::CkptStatus::kOk);
  resumed.run_until(cfg.duration_s);

  ByteWriter full_end;
  full.save_checkpoint(full_end);
  ByteWriter resumed_end;
  resumed.save_checkpoint(resumed_end);
  ASSERT_EQ(std::vector<std::uint8_t>(full_end.bytes().begin(), full_end.bytes().end()),
            std::vector<std::uint8_t>(resumed_end.bytes().begin(), resumed_end.bytes().end()));
}

TEST(MetroScaleTest, PairMapsPlateauAtKiloFleet) {
  // The sweep must keep the pair maps bounded by the recently-active
  // working set even when 1,024 vehicles chat continuously.
  ScenarioConfig cfg = metro_config(44, 1024, /*faults=*/false);
  cfg.duration_s = 600.0;
  cfg.pair_cooldown_s = 10.0;
  FleetSim sim{cfg, std::make_unique<ChatNeighborStrategy>()};
  sim.prepare();
  std::size_t max_last_chat = 0;
  for (double t = 60.0; t <= cfg.duration_s; t += 60.0) {
    sim.run_until(t);
    max_last_chat = std::max(max_last_chat, sim.pair_map_sizes().first);
  }
  const int started = sim.stats().sessions_started;
  // Plenty of chat churn happened...
  EXPECT_GT(started, 4 * cfg.num_vehicles);
  // ...but the map plateaus near the set active inside one cooldown + prune
  // window instead of growing with the total number of sessions ever run.
  EXPECT_LT(max_last_chat, static_cast<std::size_t>(started) / 2);
  EXPECT_LE(max_last_chat, 8u * static_cast<std::size_t>(cfg.num_vehicles));
}

}  // namespace
}  // namespace lbchat
