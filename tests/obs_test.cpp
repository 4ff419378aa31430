// Tests for the observability subsystem: metrics-registry snapshot
// determinism (1 writer thread vs 4), event-ring drop semantics, exporter
// well-formedness, and the engine-level contract — enabling observability
// never changes simulation results, and the sim-time exports (events JSONL,
// metrics JSON) are byte-identical at any worker thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "engine/fleet.h"
#include "engine/report.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace lbchat {
namespace {

// ------------------------------------------------------------- registry

TEST(MetricsRegistryTest, CounterGaugeHistogramRoundTrip) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("chats");
  const auto g = reg.gauge("rate");
  const std::vector<double> bounds{1.0, 2.0, 5.0};
  const auto h = reg.histogram("latency", bounds);

  reg.add(c, 3);
  reg.add(c);
  reg.set(g, 0.25);
  reg.set(g, 0.75);  // last write wins
  reg.observe(h, 0.5);
  reg.observe(h, 1.5);
  reg.observe(h, 100.0);

  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  // Name-sorted.
  EXPECT_EQ(snap.metrics[0].name, "chats");
  EXPECT_EQ(snap.metrics[1].name, "latency");
  EXPECT_EQ(snap.metrics[2].name, "rate");

  const obs::MetricValue* chats = snap.find("chats");
  ASSERT_NE(chats, nullptr);
  EXPECT_EQ(chats->kind, obs::MetricKind::kCounter);
  EXPECT_EQ(chats->count, 4u);

  const obs::MetricValue* rate = snap.find("rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->value, 0.75);

  const obs::MetricValue* lat = snap.find("latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 3u);
  EXPECT_DOUBLE_EQ(lat->value, 102.0);  // integer-microunit sum is exact here
  ASSERT_EQ(lat->buckets.size(), 4u);   // 3 bounds + overflow
  EXPECT_EQ(lat->buckets[0], 1u);
  EXPECT_EQ(lat->buckets[1], 1u);
  EXPECT_EQ(lat->buckets[2], 0u);
  EXPECT_EQ(lat->buckets[3], 1u);

  EXPECT_EQ(snap.find("absent"), nullptr);
}

TEST(MetricsRegistryTest, SameNameDifferentKindThrows) {
  obs::MetricsRegistry reg;
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("x", std::vector<double>{1.0}), std::invalid_argument);
  // Re-registering with the matching kind returns the same slot.
  EXPECT_EQ(reg.counter("x").slot, reg.counter("x").slot);
}

TEST(MetricsRegistryTest, SnapshotIdenticalForOneAndFourWriterThreads) {
  const std::vector<double> bounds{0.5, 1.5, 2.5};
  constexpr int kOps = 4000;
  const auto workload = [&](obs::MetricsRegistry& reg, int num_threads) {
    const auto c = reg.counter("work.items");
    const auto h = reg.histogram("work.cost", bounds);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(num_threads));
    for (int w = 0; w < num_threads; ++w) {
      workers.emplace_back([&, w] {
        for (int i = w; i < kOps; i += num_threads) {
          reg.add(c, static_cast<std::uint64_t>(i % 3));
          reg.observe(h, static_cast<double>(i % 7) * 0.5);
        }
      });
    }
    for (auto& t : workers) t.join();
  };

  obs::MetricsRegistry serial;
  workload(serial, 1);
  obs::MetricsRegistry sharded;
  workload(sharded, 4);

  const obs::Snapshot a = serial.snapshot();
  const obs::Snapshot b = sharded.snapshot();
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].name, b.metrics[i].name);
    EXPECT_EQ(a.metrics[i].kind, b.metrics[i].kind);
    EXPECT_EQ(a.metrics[i].count, b.metrics[i].count);
    EXPECT_DOUBLE_EQ(a.metrics[i].value, b.metrics[i].value);
    EXPECT_EQ(a.metrics[i].bounds, b.metrics[i].bounds);
    EXPECT_EQ(a.metrics[i].buckets, b.metrics[i].buckets);
  }
}

TEST(MetricsRegistryTest, ResetValuesKeepsDefinitionsAndHandles) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("c");
  reg.add(c, 9);
  reg.reset_values();
  const obs::Snapshot snap = reg.snapshot();
  const obs::MetricValue* m = snap.find("c");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 0u);
  reg.add(c, 2);  // old handle still valid
  EXPECT_EQ(reg.snapshot().find("c")->count, 2u);
}

// -------------------------------------------------------------- event ring

TEST(EventTracerTest, DropOldestKeepsNewestAndCountsDrops) {
  obs::EventTracer tr;
  tr.set_capacity(4);
  for (int i = 0; i < 7; ++i) {
    tr.emit(obs::Event{static_cast<double>(i), obs::EventKind::kRound, i, -1, 0.0});
  }
  const std::vector<obs::Event> ev = tr.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(tr.dropped(), 3u);
  for (int i = 0; i < 4; ++i) {  // oldest-first, the first three are gone
    EXPECT_EQ(ev[static_cast<std::size_t>(i)].a, i + 3);
    EXPECT_DOUBLE_EQ(ev[static_cast<std::size_t>(i)].t, static_cast<double>(i + 3));
  }
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.dropped(), 0u);
}

// ------------------------------------------------------------- engine runs

engine::ScenarioConfig traced_scenario() {
  engine::ScenarioConfig cfg;
  cfg.num_vehicles = 6;
  cfg.collect_duration_s = 120.0;
  cfg.duration_s = 300.0;
  cfg.eval_interval_s = 100.0;
  cfg.coreset_size = 50;
  cfg.pair_cooldown_s = 30.0;
  cfg.world.num_background_cars = 8;
  cfg.world.num_pedestrians = 16;
  // Some churn so fault events show up in the trace too.
  cfg.faults.churn_rate_per_min = 2.0;
  cfg.faults.churn_offline_mean_s = 15.0;
  return cfg;
}

/// Global-state fixture: every test starts and ends with observability fully
/// disabled and empty, so tests cannot leak events into each other.
class ObsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm(); }
  void TearDown() override { disarm(); }

  static void disarm() {
    obs::set_events_enabled(false);
    obs::set_spans_enabled(false);
    obs::reset();
  }

  struct Capture {
    engine::RunMetrics m;
    std::string events;
    std::string metrics;
  };

  static Capture run_traced(const engine::ScenarioConfig& cfg, int threads) {
    obs::reset();
    obs::set_events_enabled(true);
    auto c = cfg;
    c.num_threads = threads;
    engine::FleetSim sim{c, baselines::registry().make("LbChat")};
    Capture cap;
    cap.m = sim.run();
    cap.events = obs::events_jsonl(obs::tracer().events(), obs::tracer().dropped());
    cap.metrics = obs::metrics_json(obs::registry().snapshot());
    obs::set_events_enabled(false);
    return cap;
  }
};

TEST_F(ObsEngineTest, SimTimeExportsByteIdenticalAcrossThreadCounts) {
  const auto cfg = traced_scenario();
  const Capture one = run_traced(cfg, 1);
  const Capture four = run_traced(cfg, 4);
  // Events come only from the single-threaded tick path, so the export is a
  // pure function of the scenario.
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.metrics, four.metrics);
  // The run actually produced a trace worth comparing.
  EXPECT_NE(one.events.find("\"chat_start\""), std::string::npos);
  EXPECT_NE(one.events.find("\"eval\""), std::string::npos);
  EXPECT_NE(one.events.find("\"churn_offline\""), std::string::npos);
}

TEST_F(ObsEngineTest, EnablingObservabilityIsBitInert) {
  const auto cfg = traced_scenario();

  obs::reset();  // both flags off: the default production configuration
  engine::FleetSim off{cfg, baselines::registry().make("LbChat")};
  const engine::RunMetrics m_off = off.run();
  EXPECT_TRUE(obs::tracer().events().empty());

  obs::set_events_enabled(true);
  obs::set_spans_enabled(true);
  engine::FleetSim on{cfg, baselines::registry().make("LbChat")};
  const engine::RunMetrics m_on = on.run();

  EXPECT_EQ(m_off.train_steps, m_on.train_steps);
  EXPECT_EQ(m_off.transfers.bytes_delivered, m_on.transfers.bytes_delivered);
  ASSERT_EQ(m_off.loss_curve.size(), m_on.loss_curve.size());
  for (std::size_t i = 0; i < m_off.loss_curve.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m_off.loss_curve.values[i]),
              std::bit_cast<std::uint64_t>(m_on.loss_curve.values[i]))
        << "loss curve diverged at sample " << i;
  }
}

TEST_F(ObsEngineTest, ChromeTraceValidatesAndReportCoversFleet) {
  auto cfg = traced_scenario();
  obs::reset();
  obs::set_events_enabled(true);
  obs::set_spans_enabled(true);
  cfg.num_threads = 2;
  engine::FleetSim sim{cfg, baselines::registry().make("LbChat")};
  const engine::RunMetrics m = sim.run();

  const std::string trace =
      obs::chrome_trace_json(obs::tracer().events(), obs::spans().spans());
  EXPECT_EQ(obs::validate_chrome_trace(trace), "");

  // The validator is not a rubber stamp.
  EXPECT_NE(obs::validate_chrome_trace("{"), "");
  EXPECT_NE(obs::validate_chrome_trace("[1,2,3]"), "");
  EXPECT_NE(obs::validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"i\"}]}"), "");

  const obs::RunReport report = engine::build_run_report("LbChat", cfg, m);
  ASSERT_EQ(report.vehicles.size(), static_cast<std::size_t>(cfg.num_vehicles));
  EXPECT_EQ(report.approach, "LbChat");
  double bytes = 0.0;
  for (const obs::VehicleReport& v : report.vehicles) {
    EXPECT_LE(v.online_seconds, cfg.duration_s + 1e-9);
    bytes += static_cast<double>(v.bytes_received);
  }
  EXPECT_GT(bytes, 0.0);  // per-vehicle accounting saw the transfers

  // CSV: one header plus one row per vehicle.
  const std::string csv = obs::run_report_csv(report);
  const auto lines = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, report.vehicles.size() + 1);
}

}  // namespace
}  // namespace lbchat
