// Checkpoint/restore: the resume contract (run-to-T2 == run-to-T1 + save +
// restore-in-fresh-sim + run-to-T2, bit-identically), unit round-trips of the
// serialized components, rejection of incompatible checkpoints, and fuzzing
// of the decode path (truncation, bit flips, hostile length prefixes) — the
// restore API must map every bad input to a status, never throw or crash.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "common/bytes.h"
#include "common/frame.h"
#include "common/rng.h"
#include "core/lbchat.h"
#include "coreset/coreset_io.h"
#include "engine/checkpoint.h"
#include "engine/fleet.h"
#include "nn/kernel_dispatch.h"
#include "nn/optim.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace {

using namespace lbchat;
using engine::CkptStatus;
using engine::FleetSim;

// --- scenario helpers -------------------------------------------------------

/// Tiny, fast scenario: a few wall-clock seconds per run.
engine::ScenarioConfig tiny_cfg(std::uint64_t seed, bool faults, int vehicles = 3,
                                double duration = 30.0) {
  engine::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_vehicles = vehicles;
  cfg.world.num_background_cars = 4;
  cfg.world.num_pedestrians = 6;
  cfg.collect_duration_s = 30.0;
  cfg.collect_fps = 1.0;
  cfg.eval_frames_per_vehicle = 2;
  cfg.duration_s = duration;
  cfg.eval_interval_s = 10.0;
  cfg.train_interval_s = 2.0;
  cfg.batch_size = 4;
  cfg.coreset_size = 12;
  cfg.pair_cooldown_s = 5.0;
  cfg.time_budget_s = 8.0;
  cfg.radio.max_range_m = 400.0;
  cfg.wire.model_bytes = 4ull * 1024 * 1024;
  cfg.wire.coreset_bytes_per_sample = 1024;
  if (faults) {
    cfg.faults.burst_rate_per_min = 6.0;
    cfg.faults.burst_duration_s = 6.0;
    cfg.faults.burst_radius_m = 200.0;
    cfg.faults.burst_extra_loss = 0.8;
    cfg.faults.churn_rate_per_min = 2.0;
    cfg.faults.churn_offline_mean_s = 5.0;
    cfg.faults.corrupt_prob_near = 0.02;
    cfg.faults.corrupt_prob_far = 0.2;
    cfg.faults.chat_backoff = true;
  }
  return cfg;
}

FleetSim make_sim(const engine::ScenarioConfig& cfg, const char* approach,
                  const baselines::StrategyOptions& options = {}) {
  return FleetSim{cfg, baselines::registry().make(approach, options)};
}

std::vector<std::uint8_t> checkpoint_of(const FleetSim& sim) {
  ByteWriter w;
  sim.save_checkpoint(w);
  return w.bytes();
}

/// Bit patterns of a loss curve, for exact comparison with readable failures.
std::vector<std::uint64_t> curve_bits(const engine::RunMetrics& m) {
  std::vector<std::uint64_t> bits;
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    bits.push_back(std::bit_cast<std::uint64_t>(m.loss_curve.times[i]));
    bits.push_back(std::bit_cast<std::uint64_t>(m.loss_curve.values[i]));
  }
  for (const auto& ts : m.per_vehicle_loss) {
    for (std::size_t i = 0; i < ts.size(); ++i) {
      bits.push_back(std::bit_cast<std::uint64_t>(ts.values[i]));
    }
  }
  return bits;
}

// --- unit round-trips -------------------------------------------------------

TEST(CheckpointUnit, RngRoundTrip) {
  Rng a{42};
  (void)a.normal();  // populate the Box-Muller spare
  (void)a.next_u64();
  ByteWriter w;
  a.save(w);
  Rng b{7};  // different seed: load must fully overwrite
  ByteReader r{w.bytes()};
  b.load(r);
  EXPECT_TRUE(r.exhausted());
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.normal()),
              std::bit_cast<std::uint64_t>(b.normal()));
  }
  // fork() uses only the seed material, which round-trips too.
  EXPECT_EQ(a.fork("x").next_u64(), b.fork("x").next_u64());
}

TEST(CheckpointUnit, OptimizerRoundTrip) {
  const std::size_t n = 17;
  std::vector<float> pa(n, 1.0f), pb(n, 1.0f), g(n);
  for (std::size_t i = 0; i < n; ++i) g[i] = 0.01f * static_cast<float>(i) - 0.05f;

  nn::Adam a{1e-3};
  a.step(pa, g);
  a.step(pa, g);
  ByteWriter w;
  a.save_state(w);
  nn::Adam b{1e-3};
  ByteReader r{w.bytes()};
  b.load_state(r);
  EXPECT_TRUE(r.exhausted());
  pb = pa;
  a.step(pa, g);
  b.step(pb, g);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(pa[i]), std::bit_cast<std::uint32_t>(pb[i]));
  }
}

TEST(CheckpointUnit, FaultInjectorRejectsAHugeBurstCountBeforeAllocating) {
  engine::FaultInjector faults{engine::FaultConfig{}, 1, 1000.0, 3};
  ByteWriter w;
  w.write_f64(12.0);  // clock
  for (const char* stream : {"burst", "churn", "corrupt"}) Rng{1}.fork(stream).save(w);
  w.write_u32(0xFFFFFFFFu);  // burst count, with no bursts after it
  ByteReader r{w.bytes()};
  EXPECT_THROW(faults.load(r), std::out_of_range);
}

TEST(CheckpointUnit, EventTracerRestore) {
  obs::EventTracer t;
  std::vector<obs::Event> evs;
  for (int i = 0; i < 5; ++i) {
    evs.push_back({static_cast<double>(i), obs::EventKind::kEval, i, -1, 0.5});
  }
  t.restore(evs, 3);
  const auto got = t.events();
  ASSERT_EQ(got.size(), evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) EXPECT_EQ(got[i].t, evs[i].t);
  EXPECT_EQ(t.dropped(), 3u);
  // Emission continues after the restored content.
  t.emit({9.0, obs::EventKind::kEval, 0, -1, 0.25});
  EXPECT_EQ(t.events().size(), evs.size() + 1);
  EXPECT_EQ(t.events().back().t, 9.0);
}

// --- full-sim round-trip + resume contract ----------------------------------

TEST(CheckpointRestore, RoundTripRestoresClockAndModels) {
  const auto cfg = tiny_cfg(11, /*faults=*/false);
  auto sim = make_sim(cfg, "LbChat");
  sim.prepare();
  sim.run_until(15.0);
  const auto bytes = checkpoint_of(sim);

  auto fresh = make_sim(cfg, "LbChat");
  ByteReader r{bytes};
  ASSERT_EQ(fresh.restore(r), CkptStatus::kOk);
  EXPECT_EQ(fresh.time(), sim.time());
  ASSERT_EQ(fresh.num_vehicles(), sim.num_vehicles());
  for (int v = 0; v < sim.num_vehicles(); ++v) {
    const auto pa = sim.node(v).model.params();
    const auto pb = fresh.node(v).model.params();
    ASSERT_EQ(pa.size(), pb.size());
    EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)), 0) << "vehicle " << v;
  }
  // A restored sim checkpoints back to the same state it was restored from
  // (same bytes modulo nothing: no RNG is consumed by save/restore).
  EXPECT_EQ(checkpoint_of(fresh), bytes);
}

/// The core contract, exercised per strategy with faults enabled:
/// run straight to T2 == run to T1 + save + restore into a fresh sim + run
/// to T2, with bit-identical loss curves.
void expect_resume_contract(const char* approach, std::uint64_t seed, int threads) {
  auto cfg = tiny_cfg(seed, /*faults=*/true);
  cfg.num_threads = threads;
  const double t1 = 14.0;  // mid-interval: not aligned to train/eval boundaries

  auto straight = make_sim(cfg, approach);
  const engine::RunMetrics m_straight = straight.run();

  auto first = make_sim(cfg, approach);
  first.prepare();
  first.run_until(t1);
  const auto bytes = checkpoint_of(first);

  auto resumed = make_sim(cfg, approach);
  ByteReader r{bytes};
  ASSERT_EQ(resumed.restore(r), CkptStatus::kOk) << approach;
  resumed.run_until(cfg.duration_s);
  const engine::RunMetrics m_resumed = resumed.finalize();

  EXPECT_EQ(curve_bits(m_straight), curve_bits(m_resumed)) << approach << " threads=" << threads;
  ASSERT_EQ(m_straight.final_params.size(), m_resumed.final_params.size());
  for (std::size_t v = 0; v < m_straight.final_params.size(); ++v) {
    const auto& pa = m_straight.final_params[v];
    const auto& pb = m_resumed.final_params[v];
    ASSERT_EQ(pa.size(), pb.size());
    EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)), 0)
        << approach << " vehicle " << v;
  }
  EXPECT_EQ(m_straight.train_steps, m_resumed.train_steps) << approach;
}

TEST(CheckpointRestore, ResumeContractLbChat) { expect_resume_contract("LbChat", 3, 1); }
TEST(CheckpointRestore, ResumeContractLbChat4Threads) { expect_resume_contract("LbChat", 3, 4); }
TEST(CheckpointRestore, ResumeContractDp) { expect_resume_contract("DP", 5, 1); }
TEST(CheckpointRestore, ResumeContractDflDds) { expect_resume_contract("DFL-DDS", 9, 1); }
TEST(CheckpointRestore, ResumeContractProxSkip) { expect_resume_contract("ProxSkip", 13, 1); }
TEST(CheckpointRestore, ResumeContractRsuL) { expect_resume_contract("RSU-L", 17, 1); }
TEST(CheckpointRestore, ResumeContractDynThresh) { expect_resume_contract("DynThresh", 23, 1); }
TEST(CheckpointRestore, ResumeContractDynThresh4Threads) {
  expect_resume_contract("DynThresh", 23, 4);
}
TEST(CheckpointRestore, ResumeContractSimGossip) { expect_resume_contract("SimGossip", 27, 1); }
TEST(CheckpointRestore, ResumeContractSimGossip4Threads) {
  expect_resume_contract("SimGossip", 27, 4);
}

/// Thread bit-identity for the new registry strategies: the same faulted
/// scenario at 1 and 4 lanes must produce bit-identical curves (DynThresh's
/// divergence cache is refreshed on the sequential tick, so lane count cannot
/// leak into its chat decisions).
void expect_thread_bit_identity(const char* approach, std::uint64_t seed) {
  auto cfg = tiny_cfg(seed, /*faults=*/true);
  cfg.num_threads = 1;
  auto one = make_sim(cfg, approach);
  const auto m_one = one.run();
  cfg.num_threads = 4;
  auto four = make_sim(cfg, approach);
  const auto m_four = four.run();
  EXPECT_EQ(curve_bits(m_one), curve_bits(m_four)) << approach;
}

TEST(CheckpointDeterminism, DynThreshThreadBitIdentity) {
  expect_thread_bit_identity("DynThresh", 37);
}
TEST(CheckpointDeterminism, SimGossipThreadBitIdentity) {
  expect_thread_bit_identity("SimGossip", 41);
}

// --- LbChat's pooled scoring: bit-identical at any lane count ---------------

/// A 4-vehicle LbChat run that exercises every pooled path: coreset receipts
/// (merge-reduce), model phases with psi > 0 (two-task handshake), peer-model
/// aggregations (two-task scoring) and periodic rebuilds (pooled sweeps).
engine::ScenarioConfig lane_cfg(bool int8) {
  auto cfg = tiny_cfg(3, /*faults=*/false, /*vehicles=*/4, /*duration=*/40.0);
  cfg.coreset_rebuild_interval_s = 10.0;
  cfg.int8_eval.enabled = int8;
  return cfg;
}

/// Bit patterns of every TransferStats field.
std::vector<std::uint64_t> transfer_bits(const engine::TransferStats& t) {
  std::vector<std::uint64_t> bits;
  for (const long c :
       {long{t.model_sends_started}, long{t.model_sends_completed}, long{t.coreset_sends_started},
        long{t.coreset_sends_completed}, long{t.sessions_started}, long{t.sessions_aborted},
        long{t.frames_rejected}, long{t.model_frames_rejected}, long{t.sessions_lost_to_blackout},
        long{t.backoff_retries}, long{t.byzantine_payloads_sent}, t.straggler_train_skips,
        long{t.frames_rejected_invalid}}) {
    bits.push_back(static_cast<std::uint64_t>(c));
  }
  bits.push_back(t.bytes_delivered);
  for (const double d : {t.offline_vehicle_seconds, t.attacker_peer_weight, t.total_peer_weight}) {
    bits.push_back(std::bit_cast<std::uint64_t>(d));
  }
  return bits;
}

void expect_same_run(const engine::RunMetrics& a, const engine::RunMetrics& b,
                     const std::string& what) {
  EXPECT_EQ(curve_bits(a), curve_bits(b)) << what;
  EXPECT_EQ(transfer_bits(a.transfers), transfer_bits(b.transfers)) << what;
  EXPECT_EQ(a.train_steps, b.train_steps) << what;
  EXPECT_EQ(a.final_params, b.final_params) << what;
}

class LbChatLanes : public ::testing::TestWithParam<bool> {};

TEST_P(LbChatLanes, RunBitIdenticalAtOneTwoThreeLanes) {
  auto cfg = lane_cfg(GetParam());
  std::vector<engine::RunMetrics> runs;
  std::vector<std::string> events;
  for (const int lanes : {1, 2, 3}) {
    cfg.num_threads = lanes;
    auto sim = make_sim(cfg, "LbChat");
    sim.enable_events();
    runs.push_back(sim.run());
    events.push_back(obs::events_jsonl(sim.events().events(), sim.events().dropped()));
  }
  // The scenario reaches every pooled path.
  const engine::TransferStats& t = runs[0].transfers;
  EXPECT_GT(t.coreset_sends_completed, 0);
  EXPECT_GT(t.model_sends_completed, 0);
  EXPECT_NE(events[0].find("\"aggregate\""), std::string::npos);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const std::string what = "lanes=" + std::to_string(i + 1);
    expect_same_run(runs[0], runs[i], what);
    // Events come only from the calling thread, so their order is fixed too.
    EXPECT_EQ(events[0], events[i]) << what;
  }
}

TEST_P(LbChatLanes, SavedUnderThreeLanesResumesUnderOne) {
  auto cfg = lane_cfg(GetParam());
  cfg.num_threads = 1;
  auto straight = make_sim(cfg, "LbChat");
  const engine::RunMetrics m_straight = straight.run();

  auto three_cfg = cfg;
  three_cfg.num_threads = 3;
  auto first = make_sim(three_cfg, "LbChat");
  first.prepare();
  first.run_until(23.0);  // after the first periodic rebuild
  const auto bytes = checkpoint_of(first);

  auto resumed = make_sim(cfg, "LbChat");
  ByteReader r{bytes};
  ASSERT_EQ(resumed.restore(r), CkptStatus::kOk);
  resumed.run_until(cfg.duration_s);
  expect_same_run(m_straight, resumed.finalize(), "3-lane save, 1-lane resume");
}

INSTANTIATE_TEST_SUITE_P(Eval, LbChatLanes, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? std::string{"Int8"} : std::string{"Fp32"};
                         });

void expect_exports_survive_resume(int threads) {
  auto cfg = tiny_cfg(21, /*faults=*/true);
  cfg.num_threads = threads;
  const auto exports = [](const FleetSim& sim) {
    return obs::events_jsonl(sim.events().events(), sim.events().dropped()) +
           obs::metrics_json(sim.metrics_snapshot());
  };

  auto straight = make_sim(cfg, "LbChat");
  straight.enable_events();
  (void)straight.run();

  auto first = make_sim(cfg, "LbChat");
  first.enable_events();
  first.prepare();
  first.run_until(14.0);
  const auto bytes = checkpoint_of(first);

  auto resumed = make_sim(cfg, "LbChat");
  resumed.enable_events();
  ByteReader r{bytes};
  ASSERT_EQ(resumed.restore(r), CkptStatus::kOk);
  resumed.run_until(cfg.duration_s);
  (void)resumed.finalize();

  EXPECT_EQ(exports(straight), exports(resumed)) << "threads=" << threads;
  EXPECT_NE(exports(straight).find("\"chat.duration_s\""), std::string::npos);
  EXPECT_NE(exports(straight).find("\"transfer.sessions_started\""), std::string::npos);
}

TEST(CheckpointRestore, ResumePreservesEventAndMetricsExports) {
  expect_exports_survive_resume(1);
}
TEST(CheckpointRestore, ResumePreservesEventAndMetricsExports4Threads) {
  expect_exports_survive_resume(4);
}

// A run's checkpoint is a function of that run alone: its kObs metrics are
// the run's own, so runs finished earlier in the process (here one with
// adversary and heterogeneity gauges) cannot add to them.
TEST(CheckpointRestore, BytesIndependentOfEarlierRunsInProcess) {
  const auto traced_run = [](const engine::ScenarioConfig& cfg, const char* approach) {
    auto sim = make_sim(cfg, approach);
    sim.enable_events();
    (void)sim.run();
  };
  const auto dp_checkpoint = [] {
    auto sim = make_sim(tiny_cfg(11, /*faults=*/true), "DP");
    sim.enable_events();
    sim.prepare();
    sim.run_until(14.0);
    return checkpoint_of(sim);
  };
  traced_run(tiny_cfg(21, /*faults=*/true), "LbChat");
  const auto before = dp_checkpoint();
  auto adversarial = tiny_cfg(21, /*faults=*/false);
  adversarial.adversary.byzantine_frac = 0.34;
  adversarial.hetero.straggler_frac = 0.34;
  traced_run(adversarial, "LbChat");
  EXPECT_EQ(before, dp_checkpoint());
}

TEST(CheckpointRestore, CheckpointBytesIdenticalAcrossThreadCounts) {
  auto cfg = tiny_cfg(31, /*faults=*/true);
  cfg.num_threads = 1;
  auto one = make_sim(cfg, "LbChat");
  one.prepare();
  one.run_until(14.0);
  cfg.num_threads = 4;
  auto four = make_sim(cfg, "LbChat");
  four.prepare();
  four.run_until(14.0);
  EXPECT_EQ(checkpoint_of(one), checkpoint_of(four));
}

TEST(CheckpointRestore, ResumeMayExtendHorizonAndChangeThreads) {
  auto cfg = tiny_cfg(8, /*faults=*/false);
  auto first = make_sim(cfg, "LbChat");
  first.prepare();
  first.run_until(cfg.duration_s);
  const auto bytes = checkpoint_of(first);

  auto longer_cfg = cfg;
  longer_cfg.duration_s = 40.0;  // extend the horizon
  longer_cfg.num_threads = 2;    // and change the lane count
  auto resumed = make_sim(longer_cfg, "LbChat");
  ByteReader r{bytes};
  ASSERT_EQ(resumed.restore(r), CkptStatus::kOk);
  resumed.run_until(longer_cfg.duration_s);
  const auto m = resumed.finalize();
  EXPECT_GE(resumed.time(), cfg.duration_s);
  EXPECT_FALSE(m.loss_curve.empty());
}

/// A 16-vehicle LbChat fleet at the paper defaults: repeated merges push a
/// vehicle's own coreset weights w_C past the cap that guards peer input
/// (seed 1001 crosses it between 180 s and 190 s). Those coresets are local
/// state, so the checkpoint must still restore and resume bit-identically.
TEST(CheckpointRestore, LbChatRestoresCoresetsHeavierThanTheWireCap) {
  engine::ScenarioConfig cfg;
  cfg.seed = 1001;
  cfg.num_threads = 2;
  cfg.duration_s = 220.0;
  const double t1 = 190.0;

  auto strategy = baselines::registry().make("LbChat", {});
  const auto* lbchat = dynamic_cast<const core::LbChatStrategy*>(strategy.get());
  ASSERT_NE(lbchat, nullptr);
  FleetSim straight{cfg, std::move(strategy)};
  straight.prepare();
  straight.run_until(t1);
  double max_wc = 0.0;
  for (int v = 0; v < straight.num_vehicles(); ++v) {
    for (const double wc : lbchat->coreset_of(v).wc) max_wc = std::max(max_wc, wc);
  }
  ASSERT_GT(max_wc, coreset::kMaxWireCoresetWeight) << "the save no longer exercises the cap";
  const auto bytes = checkpoint_of(straight);
  straight.run_until(cfg.duration_s);
  const engine::RunMetrics m_straight = straight.finalize();

  auto resumed = make_sim(cfg, "LbChat");
  ByteReader r{bytes};
  ASSERT_EQ(resumed.restore(r), CkptStatus::kOk);
  resumed.run_until(cfg.duration_s);
  const engine::RunMetrics m_resumed = resumed.finalize();
  EXPECT_EQ(curve_bits(m_straight), curve_bits(m_resumed));
  ASSERT_EQ(m_straight.final_params.size(), m_resumed.final_params.size());
  for (std::size_t v = 0; v < m_straight.final_params.size(); ++v) {
    const auto& pa = m_straight.final_params[v];
    const auto& pb = m_resumed.final_params[v];
    ASSERT_EQ(pa.size(), pb.size());
    EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)), 0) << "vehicle " << v;
  }
}

TEST(CheckpointUnit, LocalCoresetReadsAreNotHeldToTheWireCap) {
  ByteWriter w;
  coreset::Coreset heavy;
  heavy.samples.resize(1);
  heavy.samples[0].bev = data::BevGrid{heavy.spec};
  heavy.wc = {coreset::kMaxWireCoresetWeight * 4.0};
  coreset::write_coreset(w, heavy);
  {
    ByteReader r{w.bytes()};
    EXPECT_THROW((void)coreset::read_coreset(r, heavy.spec), WireValueError);
  }
  {
    ByteReader r{w.bytes()};
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(coreset::read_coreset(r, heavy.spec, inf).wc, heavy.wc);
  }
  // Finiteness and non-negativity still hold without the cap.
  for (const double bad : {std::numeric_limits<double>::infinity(), -1.0}) {
    heavy.wc = {bad};
    ByteWriter wb;
    coreset::write_coreset(wb, heavy);
    ByteReader r{wb.bytes()};
    EXPECT_THROW((void)coreset::read_coreset(r, heavy.spec, std::numeric_limits<double>::infinity()),
                 WireValueError)
        << bad;
  }
}

// --- compatibility rejection -------------------------------------------------

TEST(CheckpointReject, ConfigMismatch) {
  const auto cfg = tiny_cfg(2, false);
  auto sim = make_sim(cfg, "LbChat");
  sim.prepare();
  sim.run_until(5.0);
  const auto bytes = checkpoint_of(sim);

  auto other_seed_cfg = cfg;
  other_seed_cfg.seed = 3;
  auto other_seed = make_sim(other_seed_cfg, "LbChat");
  ByteReader r1{bytes};
  EXPECT_EQ(other_seed.restore(r1), CkptStatus::kConfigMismatch);

  auto other_fleet_cfg = cfg;
  other_fleet_cfg.num_vehicles = 4;
  auto other_fleet = make_sim(other_fleet_cfg, "LbChat");
  ByteReader r2{bytes};
  EXPECT_EQ(other_fleet.restore(r2), CkptStatus::kConfigMismatch);

  auto other_radio_cfg = cfg;
  other_radio_cfg.radio.max_range_m += 1.0;
  auto other_radio = make_sim(other_radio_cfg, "LbChat");
  ByteReader r3{bytes};
  EXPECT_EQ(other_radio.restore(r3), CkptStatus::kConfigMismatch);
}

TEST(CheckpointReject, StrategyMismatch) {
  const auto cfg = tiny_cfg(2, false);
  auto sim = make_sim(cfg, "DP");
  sim.prepare();
  sim.run_until(5.0);
  const auto bytes = checkpoint_of(sim);
  auto other = make_sim(cfg, "LbChat");
  ByteReader r{bytes};
  EXPECT_EQ(other.restore(r), CkptStatus::kStrategyMismatch);
}

/// A checkpoint of `name` at its defaults must not resume under `key`=`value`
/// (the run would diverge from the saved history), but resumes at defaults.
void expect_retune_refused(const char* name, const char* key, double value) {
  const auto cfg = tiny_cfg(2, false);
  auto sim = make_sim(cfg, name);
  sim.prepare();
  sim.run_until(5.0);
  const auto bytes = checkpoint_of(sim);

  baselines::StrategyOptions retuned;
  retuned.set(key, value);
  auto other = make_sim(cfg, name, retuned);
  ByteReader r{bytes};
  EXPECT_EQ(other.restore(r), CkptStatus::kMalformed) << name;

  auto same = make_sim(cfg, name);
  ByteReader r2{bytes};
  EXPECT_EQ(same.restore(r2), CkptStatus::kOk) << name;
}

// Every tuned strategy's state blob starts with its tunables' echo.
TEST(CheckpointReject, StrategyOptionsMismatch) {
  expect_retune_refused("DynThresh", "divergence_bound", 0.123);
  expect_retune_refused("DynThresh", "pair_weight", 0.3);
  expect_retune_refused("SimGossip", "temperature", 0.123);
}
TEST(CheckpointReject, StrategyOptionsMismatchLbChat) {
  expect_retune_refused("LbChat", "eval_cap", 8);
}
TEST(CheckpointReject, StrategyOptionsMismatchProxSkip) {
  expect_retune_refused("ProxSkip", "comm_probability", 0.5);
  expect_retune_refused("ProxSkip", "variate_scale", 0.05);
}
TEST(CheckpointReject, StrategyOptionsMismatchDflDds) {
  expect_retune_refused("DFL-DDS", "alpha_steps", 3);
}

TEST(CheckpointReject, BadVersion) {
  // A future layout, version 1 (the layout with the shared net/infra RNG
  // streams and RSU session positions) and version 2 (no tunables' echo).
  for (const std::uint32_t version :
       {engine::kCheckpointVersion + 1, std::uint32_t{1}, std::uint32_t{2}}) {
    ByteWriter body;
    body.write_u32(version);
    const auto bytes = frame::encode(frame::FrameType::kCheckpoint, body.bytes());
    auto sim = make_sim(tiny_cfg(2, false), "LbChat");
    ByteReader r{bytes};
    EXPECT_EQ(sim.restore(r), CkptStatus::kBadVersion) << version;
    engine::CkptInfo info;
    EXPECT_EQ(engine::inspect_checkpoint(bytes, info), CkptStatus::kBadVersion) << version;
  }
}

TEST(CheckpointReject, GarbageAndEmptyInput) {
  auto sim = make_sim(tiny_cfg(2, false), "LbChat");
  const std::vector<std::uint8_t> empty;
  ByteReader r1{empty};
  EXPECT_EQ(sim.restore(r1), CkptStatus::kBadFrame);
  std::vector<std::uint8_t> garbage(64);
  for (std::size_t i = 0; i < garbage.size(); ++i) garbage[i] = static_cast<std::uint8_t>(i * 37);
  ByteReader r2{garbage};
  EXPECT_EQ(sim.restore(r2), CkptStatus::kBadFrame);
}

// --- inspection --------------------------------------------------------------

TEST(CheckpointInspect, ReportsHeaderAndSections) {
  const auto cfg = tiny_cfg(6, true);
  auto sim = make_sim(cfg, "LbChat");
  sim.prepare();
  sim.run_until(10.0);
  const auto bytes = checkpoint_of(sim);

  engine::CkptInfo info;
  ASSERT_EQ(engine::inspect_checkpoint(bytes, info), CkptStatus::kOk);
  EXPECT_EQ(info.version, engine::kCheckpointVersion);
  EXPECT_EQ(info.config_fingerprint, engine::config_fingerprint(cfg));
  EXPECT_EQ(info.seed, cfg.seed);
  EXPECT_EQ(info.num_vehicles, static_cast<std::uint32_t>(cfg.num_vehicles));
  EXPECT_EQ(info.strategy, "LbChat");
  EXPECT_EQ(info.time_s, sim.time());
  ASSERT_EQ(info.sections.size(), 9u);
  for (const auto& s : info.sections) {
    EXPECT_FALSE(engine::section_name(s.tag).empty());
    EXPECT_NE(engine::section_name(s.tag), "?");
  }
}

TEST(CheckpointInspect, FingerprintIgnoresDurationAndThreads) {
  auto a = tiny_cfg(1, false);
  auto b = a;
  b.duration_s *= 2;
  b.num_threads = 8;
  EXPECT_EQ(engine::config_fingerprint(a), engine::config_fingerprint(b));
  auto c = a;
  c.coreset_size += 1;
  EXPECT_NE(engine::config_fingerprint(a), engine::config_fingerprint(c));
}

// --- byte pins ---------------------------------------------------------------

/// CRC32 and size of a checkpoint saved mid-run, for each registry strategy
/// no golden file pins, plus an int8-eval and an events-on LbChat cell. Every
/// serializer a run touches feeds these bytes, so a layout change to any of
/// them moves a pin.
struct CkptPin {
  const char* label;
  const char* approach;
  bool int8 = false;
  bool events = false;
  std::uint32_t crc32 = 0;
  std::size_t bytes = 0;
  friend void PrintTo(const CkptPin& p, std::ostream* os) { *os << p.label; }
};

class CheckpointPins : public ::testing::TestWithParam<CkptPin> {};

TEST_P(CheckpointPins, CrcAndSizeAreStable) {
  const CkptPin& pin = GetParam();
  // Pinned on the scalar GEMM path, like the goldens: params differ per path.
  nn::ScopedKernelPath kernel_guard{nn::KernelPath::kScalar};
  auto cfg = tiny_cfg(19, /*faults=*/true, /*vehicles=*/4);
  cfg.int8_eval.enabled = pin.int8;
  auto sim = make_sim(cfg, pin.approach);
  sim.enable_events(pin.events);
  sim.prepare();
  sim.run_until(21.0);
  const auto bytes = checkpoint_of(sim);
  engine::CkptInfo info;
  ASSERT_EQ(engine::inspect_checkpoint(bytes, info), CkptStatus::kOk);
  if (pin.events) {
    // A session is in flight: the sessions section holds more than its count.
    for (const auto& s : info.sections) {
      if (s.tag == static_cast<std::uint8_t>(engine::CkptSection::kSessions)) {
        EXPECT_GT(s.bytes, 4u);
      }
    }
  }
  EXPECT_EQ(frame::crc32(bytes), pin.crc32) << std::hex << frame::crc32(bytes);
  EXPECT_EQ(bytes.size(), pin.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CheckpointPins,
    ::testing::Values(
        CkptPin{"ProxSkip", "ProxSkip", false, false, 0xf88a335au, 1771131},
        CkptPin{"RsuL", "RSU-L", false, false, 0x7ae502a0u, 1662124},
        CkptPin{"DynThresh", "DynThresh", false, false, 0x827562c7u, 1771172},
        CkptPin{"SimGossip", "SimGossip", false, false, 0xe80f5a19u, 1553047},
        CkptPin{"Sco", "SCO", false, false, 0x1efac283u, 1357882},
        CkptPin{"LbChatEqualComp", "LbChat(equal-comp)", false, false, 0x2d5f2435u, 1467867},
        CkptPin{"LbChatAvgAgg", "LbChat(avg-agg)", false, false, 0xe1886ee9u, 1361062},
        CkptPin{"LbChatInt8", "LbChat", true, false, 0x438dca00u, 1361053},
        CkptPin{"LbChatEvents", "LbChat", false, true, 0xca451dedu, 1362348}),
    [](const ::testing::TestParamInfo<CkptPin>& p) { return std::string{p.param.label}; });

// --- fuzzing the decode path -------------------------------------------------

/// A fuzzed checkpoint: LbChat with radio faults, and DP with Byzantine peers
/// and the straggler profile, whose 0x5E tails (kCore, kStats, kMetrics) the
/// decoders must bound-check too.
struct FuzzCell {
  const char* label;
  const char* approach;
  bool adversarial = false;
  friend void PrintTo(const FuzzCell& c, std::ostream* os) { *os << c.label; }
};

class CheckpointFuzz : public ::testing::TestWithParam<FuzzCell> {
 protected:
  void SetUp() override {
    const FuzzCell& cell = GetParam();
    cfg_ = tiny_cfg(4, /*faults=*/true, cell.adversarial ? 4 : 3);
    if (cell.adversarial) {
      cfg_.adversary.byzantine_frac = 0.25;
      cfg_.hetero.straggler_frac = 0.5;
      cfg_.hetero.slow_radio_frac = 0.5;
      cfg_.hetero.dataset_skew = 0.5;
    }
    // One checkpoint per cell, shared by the cell's tests.
    static std::map<std::string, std::vector<std::uint8_t>> saved;
    auto& bytes = saved[cell.label];
    if (bytes.empty()) {
      auto sim = make_sim(cfg_, cell.approach);
      sim.prepare();
      sim.run_until(10.0);
      bytes = checkpoint_of(sim);
    }
    bytes_ = &bytes;
  }

  /// restore() must return a status — never throw, never crash.
  [[nodiscard]] CkptStatus restore_status(const std::vector<std::uint8_t>& input) const {
    auto sim = make_sim(cfg_, GetParam().approach);
    ByteReader r{input};
    return sim.restore(r);
  }

  engine::ScenarioConfig cfg_;
  const std::vector<std::uint8_t>* bytes_ = nullptr;
};

TEST_P(CheckpointFuzz, EveryTruncationIsRejected) {
  const auto& good = *bytes_;
  ASSERT_EQ(restore_status(good), CkptStatus::kOk);
  // All short prefixes (header/section boundaries), then ~200 samples spread
  // over the rest — each probe constructs a fresh sim, so keep the count sane.
  const std::size_t stride = good.size() / 199 + 1;
  for (std::size_t n = 0; n < good.size(); n = n < 256 ? n + 1 : n + stride) {
    const std::vector<std::uint8_t> cut{good.begin(),
                                        good.begin() + static_cast<std::ptrdiff_t>(n)};
    EXPECT_NE(restore_status(cut), CkptStatus::kOk) << "prefix length " << n;
    engine::CkptInfo info;
    EXPECT_NE(engine::inspect_checkpoint(cut, info), CkptStatus::kOk) << "prefix length " << n;
  }
}

TEST_P(CheckpointFuzz, BitFlipsAreDetectedByTheEnvelope) {
  const auto& good = *bytes_;
  // The CRC covers (version, type, length, payload) and the magic is checked
  // separately, so ANY single-bit flip must be rejected at the frame layer.
  const std::size_t stride = good.size() / 199 + 1;
  for (std::size_t pos = 0; pos < good.size(); pos += stride) {
    auto bad = good;
    bad[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    EXPECT_EQ(restore_status(bad), CkptStatus::kBadFrame) << "flip at byte " << pos;
  }
}

TEST_P(CheckpointFuzz, HostileLengthPrefixesNeverCrash) {
  const auto& good = *bytes_;
  const auto decoded = frame::decode(good);
  ASSERT_TRUE(decoded.ok());
  std::vector<std::uint8_t> payload{decoded.payload.begin(), decoded.payload.end()};
  // Stamp a huge u32 length prefix at many payload offsets and re-frame with
  // a VALID checksum: this gets past the envelope, so the section/body
  // parsing itself must bound-check every read.
  const std::size_t stride = payload.size() / 149 + 1;
  for (std::size_t pos = 0; pos + 4 <= payload.size(); pos += stride) {
    auto evil = payload;
    evil[pos] = 0xFF;
    evil[pos + 1] = 0xFF;
    evil[pos + 2] = 0xFF;
    evil[pos + 3] = 0xFF;
    const auto reframed = frame::encode(frame::FrameType::kCheckpoint, evil);
    const CkptStatus st = restore_status(reframed);  // any status; must not throw
    EXPECT_LE(static_cast<unsigned>(st), static_cast<unsigned>(CkptStatus::kMalformed));
    engine::CkptInfo info;
    (void)engine::inspect_checkpoint(reframed, info);
  }
}

TEST_P(CheckpointFuzz, ZeroedPayloadBytesNeverCrash) {
  const auto& good = *bytes_;
  const auto decoded = frame::decode(good);
  ASSERT_TRUE(decoded.ok());
  const std::vector<std::uint8_t> payload{decoded.payload.begin(), decoded.payload.end()};
  const std::size_t stride = payload.size() / 97 + 1;
  for (std::size_t pos = 0; pos < payload.size(); pos += stride) {
    auto evil = payload;
    // Zero an 8-byte window: corrupts counts/doubles/enums in-place.
    for (std::size_t i = pos; i < payload.size() && i < pos + 8; ++i) evil[i] = 0;
    const auto reframed = frame::encode(frame::FrameType::kCheckpoint, evil);
    (void)restore_status(reframed);  // must not throw/crash; status is free
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, CheckpointFuzz,
                         ::testing::Values(FuzzCell{"LbChatFaults", "LbChat"},
                                           FuzzCell{"DpByzantineStragglers", "DP", true}),
                         [](const ::testing::TestParamInfo<FuzzCell>& p) {
                           return std::string{p.param.label};
                         });

// --- seed-sweep determinism ---------------------------------------------------

TEST(CheckpointDeterminism, SeedSweepBitIdenticalAcrossThreadsAndResume) {
  // 8 seeds x faults {off,on}: the straight 1-thread run, the 4-thread run,
  // and a resumed run must all produce bit-identical loss curves.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 21ull, 34ull}) {
    for (const bool faults : {false, true}) {
      auto cfg = tiny_cfg(seed, faults);
      cfg.num_threads = 1;
      auto base = make_sim(cfg, "LbChat");
      const auto m_base = base.run();

      cfg.num_threads = 4;
      auto threaded = make_sim(cfg, "LbChat");
      const auto m_threaded = threaded.run();
      EXPECT_EQ(curve_bits(m_base), curve_bits(m_threaded))
          << "seed " << seed << " faults " << faults;

      cfg.num_threads = 1;
      auto first = make_sim(cfg, "LbChat");
      first.prepare();
      first.run_until(13.0);
      const auto bytes = checkpoint_of(first);
      auto resumed = make_sim(cfg, "LbChat");
      ByteReader r{bytes};
      ASSERT_EQ(resumed.restore(r), CkptStatus::kOk) << "seed " << seed;
      resumed.run_until(cfg.duration_s);
      const auto m_resumed = resumed.finalize();
      EXPECT_EQ(curve_bits(m_base), curve_bits(m_resumed))
          << "seed " << seed << " faults " << faults;
    }
  }
}

/// Adversarial cell of the sweep: Byzantine peers plus heterogeneity exercise
/// the conditional checkpoint tails (adversary noise stream, straggler
/// credits, cohort curves, adversary counters) through the same
/// threads-and-resume contract.
TEST(CheckpointDeterminism, AdversarialCellBitIdenticalAcrossThreadsAndResume) {
  for (const std::uint64_t seed : {3ull, 21ull}) {
    auto cfg = tiny_cfg(seed, /*faults=*/true, /*vehicles=*/4);
    cfg.adversary.byzantine_frac = 0.25;
    cfg.adversary.poison_noise = 0.05;  // exercises the serialized noise stream
    cfg.hetero.straggler_frac = 0.5;
    cfg.hetero.slow_radio_frac = 0.5;
    cfg.hetero.dataset_skew = 0.4;

    cfg.num_threads = 1;
    auto base = make_sim(cfg, "LbChat");
    const auto m_base = base.run();

    cfg.num_threads = 4;
    auto threaded = make_sim(cfg, "LbChat");
    const auto m_threaded = threaded.run();
    EXPECT_EQ(curve_bits(m_base), curve_bits(m_threaded)) << "seed " << seed;

    cfg.num_threads = 1;
    auto first = make_sim(cfg, "LbChat");
    first.prepare();
    first.run_until(13.0);
    const auto bytes = checkpoint_of(first);
    auto resumed = make_sim(cfg, "LbChat");
    ByteReader r{bytes};
    ASSERT_EQ(resumed.restore(r), CkptStatus::kOk) << "seed " << seed;
    resumed.run_until(cfg.duration_s);
    const auto m_resumed = resumed.finalize();
    EXPECT_EQ(curve_bits(m_base), curve_bits(m_resumed)) << "seed " << seed;
    EXPECT_EQ(m_base.transfers.byzantine_payloads_sent,
              m_resumed.transfers.byzantine_payloads_sent);
    EXPECT_EQ(m_base.transfers.straggler_train_skips,
              m_resumed.transfers.straggler_train_skips);

    // A checkpoint from an adversarial run must not restore into an engine
    // configured without the adversary (different config fingerprint).
    auto plain = make_sim(tiny_cfg(seed, /*faults=*/true, /*vehicles=*/4), "LbChat");
    ByteReader r2{bytes};
    EXPECT_EQ(plain.restore(r2), CkptStatus::kConfigMismatch);
  }
}

}  // namespace
