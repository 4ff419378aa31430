// fleet_scale: vehicles-vs-wallclock scaling bench for the mega-fleet layer
// (DESIGN.md §11).
//
// For each fleet size it reports:
//   - neighbor discovery cost for one tick, grid vs scan (spatial-index
//     rebuild + one range query per vehicle, against the O(n^2) all-pairs
//     sweep) — both produce identical neighbor lists, so this isolates the
//     data-structure win;
//   - end-to-end engine wall clock per simulated second for a short run of a
//     chat-heavy strategy on a metro-scaled town (density held constant).
// Results go to stdout and BENCH_fleet_scale.json in the working directory.
//
// LBCHAT_BENCH_MAX_VEHICLES (an integer >= 16) caps the sweep, e.g. at 256 for
// CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string_view>
#include <vector>

#include "engine/fleet.h"
#include "harness.h"
#include "net/spatial_index.h"
#include "sim/world.h"

namespace {

using namespace lbchat;

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Microseconds per iteration, self-calibrated to ~`target_ms` total.
double us_per_iter(const std::function<void()>& fn, double target_ms = 50.0) {
  fn();  // warm-up
  const double probe_us = wall_seconds(fn) * 1e6;
  long iters = probe_us > 0.0 ? static_cast<long>(target_ms * 1000.0 / probe_us) : 1000;
  iters = std::max(3L, std::min(iters, 1000000L));
  const double total_us = wall_seconds([&] {
                            for (long i = 0; i < iters; ++i) fn();
                          }) *
                          1e6;
  return total_us / static_cast<double>(iters);
}

/// Minimal chat-everything strategy: each idle vehicle opens a session with
/// its lowest-id idle in-range peer and trades one small payload each way.
/// No NN work — the bench isolates the scaling layer (world stepping,
/// neighbor discovery, session machinery).
class ChatSweepStrategy final : public engine::Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "ChatSweep"; }
  void local_train(engine::FleetSim& sim, int v) override {
    (void)sim;
    (void)v;
  }
  void on_tick(engine::FleetSim& sim) override {
    for (int a = 0; a < sim.num_vehicles(); ++a) {
      if (!sim.is_idle(a)) continue;
      for (const int b : sim.neighbors_in_range(a)) {
        if (!sim.is_idle(b) || !sim.cooldown_passed(a, b)) continue;
        engine::PairSession& s = sim.start_session(a, b);
        sim.queue_transfer(s, a, 64 * 1024, engine::StageTag{});
        sim.queue_transfer(s, b, 64 * 1024, engine::StageTag{});
        break;
      }
    }
  }
};

/// Metro-scaled scenario stripped to the scaling layer: no background
/// traffic, no training, no evaluation, tiny data collection.
engine::ScenarioConfig scale_config(int vehicles) {
  engine::ScenarioConfig cfg;
  cfg.seed = 17;
  cfg.world.num_background_cars = 0;
  cfg.world.num_pedestrians = 0;
  cfg.collect_duration_s = 10.0;
  cfg.collect_fps = 0.5;
  cfg.eval_frames_per_vehicle = 0;  // empty eval set: eval is a no-op
  cfg.validation_fraction = 0.0;
  cfg.train_interval_s = 1e9;
  cfg.eval_interval_s = 1e9;
  cfg.pair_cooldown_s = 20.0;
  cfg.policy.bev = data::BevSpec{4, 8, 8, 4.0};
  cfg.policy.conv1_channels = 2;
  cfg.policy.conv2_channels = 2;
  cfg.policy.fc_dim = 8;
  cfg.policy.branch_hidden = 4;
  cfg.world.bev = cfg.policy.bev;
  engine::apply_metro_scale(cfg, vehicles);
  return cfg;
}

struct ScaleRow {
  int vehicles = 0;
  double grid_query_us = 0.0;  ///< neighbor discovery, all vehicles, one tick
  double scan_query_us = 0.0;
  double wall_ms_per_sim_s = 0.0;  ///< engine run
  [[nodiscard]] double query_speedup() const {
    return grid_query_us > 0.0 ? scan_query_us / grid_query_us : 0.0;
  }
};

ScaleRow bench_fleet(int vehicles, double sim_horizon_s) {
  ScaleRow row;
  row.vehicles = vehicles;

  // --- neighbor discovery in isolation, from real (stepped) positions ---
  const engine::ScenarioConfig cfg = scale_config(vehicles);
  sim::World world{cfg.world, vehicles, cfg.seed};
  for (int i = 0; i < 10; ++i) world.step(0.5);
  std::vector<Vec2> pos(static_cast<std::size_t>(vehicles));
  for (int v = 0; v < vehicles; ++v) pos[static_cast<std::size_t>(v)] = world.vehicle(v).pos;
  const double range = cfg.radio.max_range_m;

  net::NeighborIndex index;
  std::vector<int> out;
  volatile long sink = 0;
  row.grid_query_us = us_per_iter([&] {
    index.rebuild(pos, range);
    long total = 0;
    for (int v = 0; v < vehicles; ++v) {
      index.query(v, out);
      total += static_cast<long>(out.size());
    }
    sink = sink + total;
  });
  row.scan_query_us = us_per_iter([&] {
    long total = 0;
    for (int v = 0; v < vehicles; ++v) {
      out.clear();
      for (int b = 0; b < vehicles; ++b) {
        if (b != v && distance(pos[static_cast<std::size_t>(v)],
                               pos[static_cast<std::size_t>(b)]) <= range) {
          out.push_back(b);
        }
      }
      total += static_cast<long>(out.size());
    }
    sink = sink + total;
  });

  // --- end-to-end engine run (single shot: runs are long) ---
  engine::FleetSim sim{cfg, std::make_unique<ChatSweepStrategy>()};
  sim.prepare();
  const double secs = wall_seconds([&] { sim.run_until(sim_horizon_s); });
  row.wall_ms_per_sim_s = 1000.0 * secs / sim_horizon_s;
  return row;
}

}  // namespace

int main() {
  const int max_vehicles = static_cast<int>(lbchat::bench::env_number(
      "LBCHAT_BENCH_MAX_VEHICLES", 1024.0,
      [](double v) { return v >= 16.0 && v < 2147483648.0 && v == std::floor(v); },
      "an integer >= 16"));
  std::vector<ScaleRow> rows;
  std::printf("%9s %14s %14s %9s %14s\n", "vehicles", "grid query us", "scan query us",
              "speedup", "ms/sim-s");
  for (const int n : {16, 64, 256, 1024}) {
    if (n > max_vehicles) {
      std::printf("(skipping %d vehicles: LBCHAT_BENCH_MAX_VEHICLES=%d)\n", n, max_vehicles);
      continue;
    }
    const ScaleRow row = bench_fleet(n, /*sim_horizon_s=*/30.0);
    std::printf("%9d %14.1f %14.1f %8.1fx %14.1f\n", row.vehicles, row.grid_query_us,
                row.scan_query_us, row.query_speedup(), row.wall_ms_per_sim_s);
    rows.push_back(row);
  }

  std::FILE* f = std::fopen("BENCH_fleet_scale.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not open BENCH_fleet_scale.json for writing\n");
    return 1;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(f,
                 "  {\"vehicles\": %d, \"grid_query_us_per_tick\": %.3f, "
                 "\"scan_query_us_per_tick\": %.3f, \"query_speedup\": %.3f, "
                 "\"wall_ms_per_sim_s\": %.3f}%s\n",
                 r.vehicles, r.grid_query_us, r.scan_query_us, r.query_speedup(),
                 r.wall_ms_per_sim_s, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_fleet_scale.json\n");
  return 0;
}
