// Tests for the observability subsystem: event-ring drop semantics,
// LBCHAT_TRACE parsing, exporter well-formedness, and the engine-level
// contract — enabling observability never changes simulation results, the
// sim-time exports (events JSONL, metrics JSON) are byte-identical at any
// worker thread count, and each run's exports are its own even while other
// runs record concurrently in the same process.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "common/rng.h"
#include "engine/fleet.h"
#include "nn/optim.h"
#include "nn/policy.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "svc/json.h"

namespace lbchat {
namespace {

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

/// Spans are the one process-wide sink: every test starts and ends with
/// them off and empty.
class ObsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm(); }
  void TearDown() override { disarm(); }

  static void disarm() {
    obs::set_spans_enabled(false);
    obs::spans().clear();
  }

  struct Capture {
    engine::RunMetrics m;
    std::string events;
    std::string metrics;
  };

  static Capture run_traced(const engine::ScenarioConfig& cfg, int threads,
                            const char* approach = "LbChat") {
    auto c = cfg;
    c.num_threads = threads;
    engine::FleetSim sim{c, baselines::registry().make(approach)};
    sim.enable_events();
    Capture cap;
    cap.m = sim.run();
    cap.events = obs::events_jsonl(sim.events().events(), sim.events().dropped());
    cap.metrics = obs::metrics_json(sim.metrics_snapshot());
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

  // Events and spans off: the default production configuration.
  engine::FleetSim off{cfg, baselines::registry().make("LbChat")};
  const engine::RunMetrics m_off = off.run();
  EXPECT_TRUE(off.events().events().empty());
  EXPECT_TRUE(off.metrics_snapshot().metrics.empty());

  obs::set_spans_enabled(true);
  engine::FleetSim on{cfg, baselines::registry().make("LbChat")};
  on.enable_events();
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

TEST_F(ObsEngineTest, TrainingStepSpansBothConvForwards) {
  nn::DrivingPolicy policy;
  nn::Adam opt{1e-3};
  Rng rng{3};
  std::vector<data::Sample> samples(4);
  for (auto& s : samples) {
    s.bev = data::BevGrid{policy.config().bev};
    for (int k = 0; k < policy.config().bev.numel(); ++k) {
      s.bev.set(static_cast<std::size_t>(k), rng.chance(0.3));
    }
  }
  std::vector<const data::Sample*> batch;
  for (const auto& s : samples) batch.push_back(&s);
  const auto conv_forwards = [] {
    const auto all = obs::spans().spans();
    return std::count_if(all.begin(), all.end(), [](const obs::Span& s) {
      return std::string_view{s.name} == "nn.conv2d_fwd";
    });
  };
  (void)policy.train_batch(batch, opt);
  EXPECT_EQ(conv_forwards(), 0) << "no span while spans are off";
  obs::set_spans_enabled(true);
  (void)policy.train_batch(batch, opt);
  (void)policy.train_batch(batch, opt);
  EXPECT_EQ(conv_forwards(), 4) << "conv1 and conv2, per train_batch";
}

TEST_F(ObsEngineTest, TracedPrepareRecordsTheSetUpSpans) {
  // Set-up (collection, the strategy's first coreset builds, the t=0 eval)
  // splits into named spans on a pooled run.
  auto cfg = traced_scenario();
  cfg.num_threads = 2;
  obs::set_spans_enabled(true);
  engine::FleetSim sim{cfg, baselines::registry().make("LbChat")};
  sim.prepare();
  const auto all = obs::spans().spans();
  for (const char* name : {"engine.collect.world_step", "engine.collect.render",
                           "engine.collect.split", "strategy.setup", "coreset.build",
                           "engine.mean_eval_loss"}) {
    EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                            [&](const obs::Span& s) { return std::string_view{s.name} == name; }))
        << name;
  }
}

TEST_F(ObsEngineTest, ChromeTraceValidatesAndReportCoversFleet) {
  auto cfg = traced_scenario();
  obs::set_spans_enabled(true);
  cfg.num_threads = 2;
  engine::FleetSim sim{cfg, baselines::registry().make("LbChat")};
  sim.enable_events();
  const engine::RunMetrics m = sim.run();

  const std::string trace =
      obs::chrome_trace_json(sim.events().events(), obs::spans().spans());
  EXPECT_EQ(obs::validate_chrome_trace(trace), "");

  // The validator is not a rubber stamp.
  EXPECT_NE(obs::validate_chrome_trace("{"), "");
  EXPECT_NE(obs::validate_chrome_trace("[1,2,3]"), "");
  EXPECT_NE(obs::validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"i\"}]}"), "");

  std::string error;
  const auto report =
      svc::json_parse(obs::run_report_json("LbChat", cfg.seed, cfg.duration_s, m), error);
  ASSERT_NE(report, nullptr) << error;
  const svc::JsonValue* vehicles = report->get("vehicles");
  ASSERT_NE(vehicles, nullptr);
  ASSERT_EQ(vehicles->items().size(), static_cast<std::size_t>(cfg.num_vehicles));
  EXPECT_EQ(report->get("approach")->as_string(), "LbChat");
  double bytes = 0.0;
  for (const auto& v : vehicles->items()) {
    EXPECT_LE(v->get("online_seconds")->as_number(), cfg.duration_s + 1e-9);
    bytes += v->get("bytes_received")->as_number();
  }
  EXPECT_GT(bytes, 0.0);  // per-vehicle accounting saw the transfers

  // CSV: one header plus one row per vehicle.
  const std::string csv = obs::run_report_csv(cfg.duration_s, m);
  const auto lines = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, vehicles->items().size() + 1);
}

TEST(ChromeTraceValidatorTest, DeepNestingAndDuplicateKeysAreErrors) {
  // The validator parses with svc::json_parse: its nesting cap turns a
  // hostile file into an error string instead of a stack overflow.
  const std::string deep(1'000'000, '[');
  const std::string err = obs::validate_chrome_trace(deep);
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  EXPECT_NE(obs::validate_chrome_trace(R"({"traceEvents":[],"traceEvents":[]})"), "");
}

// Two runs recording at once on two threads: each run's events and metrics
// equal its solo run's, so neither sees the other's emissions.
TEST_F(ObsEngineTest, ConcurrentRunsExportOnlyTheirOwnEvents) {
  const auto cfg = traced_scenario();
  const Capture lbchat_solo = run_traced(cfg, 1, "LbChat");
  const Capture dp_solo = run_traced(cfg, 1, "DP");
  ASSERT_NE(lbchat_solo.events, dp_solo.events);

  Capture lbchat;
  Capture dp;
  std::thread a{[&] { lbchat = run_traced(cfg, 1, "LbChat"); }};
  std::thread b{[&] { dp = run_traced(cfg, 1, "DP"); }};
  a.join();
  b.join();
  EXPECT_EQ(lbchat.events, lbchat_solo.events);
  EXPECT_EQ(lbchat.metrics, lbchat_solo.metrics);
  EXPECT_EQ(dp.events, dp_solo.events);
  EXPECT_EQ(dp.metrics, dp_solo.metrics);
}

// ----------------------------------------------------------- LBCHAT_TRACE

/// Sets LBCHAT_TRACE for one scope and restores the span switch after.
class ScopedTraceEnv {
 public:
  explicit ScopedTraceEnv(const char* value) {
    if (value != nullptr) {
      ::setenv("LBCHAT_TRACE", value, 1);
    } else {
      ::unsetenv("LBCHAT_TRACE");
    }
  }
  ~ScopedTraceEnv() {
    ::unsetenv("LBCHAT_TRACE");
    obs::set_spans_enabled(false);
  }
  ScopedTraceEnv(const ScopedTraceEnv&) = delete;
  ScopedTraceEnv& operator=(const ScopedTraceEnv&) = delete;
};

TEST(TraceEnvTest, AcceptedValuesSetTheSwitches) {
  struct Case {
    const char* value;
    bool events;
    bool spans;
  };
  for (const Case c : {Case{nullptr, false, false}, Case{"", false, false},
                       Case{"0", false, false}, Case{"off", false, false},
                       Case{"1", true, true}, Case{"on", true, true}, Case{"all", true, true},
                       Case{"events", true, false}, Case{"spans", false, true}}) {
    const ScopedTraceEnv env{c.value};
    const obs::TraceEnv got = obs::init_from_env();
    const std::string what = c.value != nullptr ? c.value : "(unset)";
    EXPECT_EQ(got.events, c.events) << what;
    EXPECT_EQ(got.spans, c.spans) << what;
    EXPECT_EQ(obs::spans_enabled(), c.spans) << what;
  }
}

TEST(TraceEnvTest, UnknownValueThrowsNamingVariableAndAcceptedValues) {
  for (const char* bad : {"event", "yes", "ON", " 1", "spans,events"}) {
    const ScopedTraceEnv env{bad};
    try {
      (void)obs::init_from_env();
      ADD_FAILURE() << "accepted LBCHAT_TRACE=" << bad;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("LBCHAT_TRACE"), std::string::npos) << msg;
      EXPECT_NE(msg.find("events"), std::string::npos) << msg;
      EXPECT_NE(msg.find("spans"), std::string::npos) << msg;
    }
  }
}

}  // namespace
}  // namespace lbchat
