#include "child.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "baselines/registry.h"
#include "common/bytes.h"
#include "common/fingerprint.h"
#include "common/frame.h"
#include "core/compress_opt.h"
#include "coreset/coreset.h"
#include "net/spatial_index.h"
#include "nn/compress.h"
#include "nn/int8_policy.h"
#include "nn/model_io.h"
#include "report.h"
#include "svc/json.h"
#include "svc/server.h"
#include "timed_strategy.h"

namespace lbchat::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps replayed results observable so the calls cannot be optimized away.
volatile double g_sink = 0.0;

/// The child's one-line JSON answer.
class Answer {
 public:
  void num(const std::string& key, double v) { nums_[key] = v; }
  void str(const std::string& key, std::string v) { strs_[key] = std::move(v); }
  void fail(const std::string& why) {
    ++failed_;
    if (!error_.empty()) error_ += "; ";
    error_ += why;
  }

  void print() const {
    std::string out = "{\"failed\":" + std::to_string(failed_) + ",\"error\":\"" +
                      svc::json_escape(error_) + "\"";
    for (const auto& [k, v] : strs_) out += ",\"" + k + "\":\"" + svc::json_escape(v) + "\"";
    for (const auto& [k, v] : nums_) out += ",\"" + k + "\":" + fmt_num(v);
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> nums_;
  std::map<std::string, std::string> strs_;
  long failed_ = 0;
  std::string error_;
};

void add_transfers(FnvHasher& h, const engine::TransferStats& t) {
  for (const int c : {t.model_sends_started, t.model_sends_completed, t.coreset_sends_started,
                      t.coreset_sends_completed, t.sessions_started, t.sessions_aborted,
                      t.frames_rejected, t.model_frames_rejected, t.sessions_lost_to_blackout,
                      t.backoff_retries, t.byzantine_payloads_sent, t.frames_rejected_invalid}) {
    h.add(c);
  }
  h.add(t.bytes_delivered);
  h.add(t.offline_vehicle_seconds);
  h.add(static_cast<std::uint64_t>(t.straggler_train_skips));
  h.add(t.attacker_peer_weight);
  h.add(t.total_peer_weight);
}

/// `d` extended by the bytes of one parameter vector.
template <typename Params>
std::uint64_t add_params(std::uint64_t d, const Params& p) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(p.data()), p.size() * sizeof(float)}, d);
}

/// Bit digest of everything a run outputs: the loss curve, the transfer
/// accounting, the step count and every vehicle's final parameters.
std::uint64_t run_digest(const engine::RunMetrics& m) {
  FnvHasher h;
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    h.add(m.loss_curve.times[i]);
    h.add(m.loss_curve.values[i]);
  }
  add_transfers(h, m.transfers);
  h.add(static_cast<std::uint64_t>(m.train_steps));
  std::uint64_t d = h.digest();
  for (const auto& p : m.final_params) d = add_params(d, p);
  return d;
}

/// Bit digest of a run in progress: sim time, transfer accounting and every
/// vehicle's parameters, read in place (no copy that would add to peak RSS).
std::uint64_t state_digest(engine::FleetSim& sim) {
  FnvHasher h;
  h.add(sim.time());
  add_transfers(h, sim.stats());
  std::uint64_t d = h.digest();
  for (int v = 0; v < sim.num_vehicles(); ++v) d = add_params(d, sim.node(v).model.params());
  return d;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Median wall time in µs of `calls` calls of fn(v), alternating vehicles 0 and 1.
template <typename Fn>
double median_us(int calls, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    fn(i % 2);
    us.push_back(since(t0) * 1e6);
  }
  return median(std::move(us));
}

void put_calls(Answer& ans, const std::string& prefix, const CallTimes& c, bool quantiles) {
  ans.num(prefix + ".calls", static_cast<double>(c.calls));
  ans.num(prefix + ".busy_s", c.busy_s);
  if (!quantiles) return;
  ans.num(prefix + ".p50_us", c.samples_us.empty() ? 0.0 : percentile(c.samples_us, 50.0));
  ans.num(prefix + ".p95_us", c.samples_us.empty() ? 0.0 : percentile(c.samples_us, 95.0));
}

/// Per-layer metrics of a traced run: the callback times the decorator
/// recorded, then public layer calls replayed on the final state of vehicles
/// 0 and 1 (median of 20 calls each), and the split of the training loop's
/// wall time into named phases.
void layer_metrics(Answer& ans, Workload workload, engine::FleetSim& sim, const SimCase& c,
                   const TimedStrategy& ts, double run_wall_s) {
  constexpr int kCalls = 20;
  constexpr int kSlowCalls = 6;  // checkpoint and fleet-eval replays
  const engine::ScenarioConfig& cfg = sim.config();

  put_calls(ans, "strategy.on_session_idle", ts.idle_times, true);
  put_calls(ans, "strategy.on_transfer_complete", ts.transfer_times, true);
  put_calls(ans, "strategy.on_tick", ts.tick_times, false);
  put_calls(ans, "strategy.on_session_aborted", ts.aborted_times, false);
  put_calls(ans, "strategy.local_train", ts.train_times, false);
  ans.num("strategy.setup.busy_s", ts.setup_times.busy_s);
  ans.num("engine.train_phase_wall_s", ts.train_phase_wall_s);

  // coreset: Algorithm 1 on the vehicle's dataset, then merge + reduce.
  coreset::CoresetConfig ccfg;
  ccfg.target_size = cfg.coreset_size;
  ccfg.penalty = cfg.penalty;
  coreset::Coreset cs[2];
  ans.num("coreset.build_us", median_us(kCalls, [&](int v) {
            Rng rng = sim.node(v).rng;
            cs[v] = coreset::build_layered_coreset(sim.node(v).dataset, sim.node(v).model, ccfg,
                                                   rng);
          }));
  ans.num("coreset.merge_reduce_us", median_us(kCalls, [&](int v) {
            Rng rng = sim.node(v).rng;
            g_sink = static_cast<double>(
                coreset::reduce_coreset(coreset::merge_coresets(cs[v], cs[1 - v]),
                                        sim.node(v).model, cfg.coreset_size, rng)
                    .size());
          }));

  // core: the handshake's value scoring, psi sweep and Eq. (7) solve, on
  // coresets subsampled to the chat's evaluation cap as LbChat does.
  constexpr std::size_t kEvalCap = 64;
  const coreset::Coreset sub[2] = {core::subsample_coreset(cs[0], kEvalCap),
                                   core::subsample_coreset(cs[1], kEvalCap)};
  ans.num("core.coreset_loss_us", median_us(kCalls, [&](int v) {
            g_sink = core::normalized_coreset_loss(sim.node(v).model, sub[1 - v], cfg.penalty);
          }));
  std::optional<nn::Int8Policy> q[2];
  ans.num("nn.int8_snapshot_us",
          median_us(kCalls, [&](int v) { q[v].emplace(sim.node(v).model); }));
  ans.num("core.coreset_loss_int8_us", median_us(kCalls, [&](int v) {
            g_sink = core::normalized_coreset_loss(*q[v], sub[1 - v], cfg.penalty);
          }));
  core::PhiMapping phi[2];
  ans.num("core.phi_build_us", median_us(kCalls, [&](int v) {
            phi[v] = core::PhiMapping::build(sim.node(v).model, sub[v], cfg.penalty,
                                             core::PhiMapping::kDefaultPsis, kEvalCap,
                                             cfg.int8_eval.scores_values());
          }));
  core::CompressionProblem prob;
  prob.loss_i_on_cj = core::normalized_coreset_loss(sim.node(0).model, sub[1], cfg.penalty);
  prob.loss_j_on_ci = core::normalized_coreset_loss(sim.node(1).model, sub[0], cfg.penalty);
  prob.phi_i = phi[0];
  prob.phi_j = phi[1];
  prob.model_bytes = static_cast<double>(cfg.wire.model_bytes);
  prob.bandwidth_bps = cfg.radio.bandwidth_bps;
  prob.time_budget_s = cfg.time_budget_s;
  prob.contact_s = cfg.time_budget_s;
  prob.lambda_c = cfg.lambda_c;
  ans.num("core.optimize_compression_us", median_us(kCalls, [&](int) {
            g_sink = core::optimize_compression(prob).objective;
          }));

  // nn: one optimizer step on copies (the run's models stay untouched), a
  // held-out evaluation, and the top-k compression of the model phase.
  nn::DrivingPolicy model_copy[2] = {sim.node(0).model, sim.node(1).model};
  std::unique_ptr<nn::Optimizer> opt[2] = {sim.node(0).opt->clone(), sim.node(1).opt->clone()};
  Rng batch_rng[2] = {sim.node(0).rng, sim.node(1).rng};
  ans.num("nn.train_batch_us", median_us(kCalls, [&](int v) {
            const auto& ds = sim.node(v).dataset;
            const auto idx =
                ds.sample_batch(batch_rng[v], static_cast<std::size_t>(cfg.batch_size));
            std::vector<const data::Sample*> batch;
            batch.reserve(idx.size());
            for (const std::size_t i : idx) batch.push_back(&ds[i]);
            g_sink = model_copy[v].train_batch(batch, *opt[v]);
          }));
  ans.num("nn.eval_loss_us", median_us(kCalls, [&](int v) {
            g_sink = sim.node(v).model.weighted_loss(sim.eval_set());
          }));
  ans.num("nn.compress_for_psi_us", median_us(kCalls, [&](int v) {
            g_sink = static_cast<double>(
                nn::compress_for_psi(sim.node(v).model.params(), 0.5).values.size());
          }));

  // common: the framed model payload of a full-model (psi = 1) transfer.
  const nn::SparseModel dense[2] = {nn::compress_for_psi(sim.node(0).model.params(), 1.0),
                                    nn::compress_for_psi(sim.node(1).model.params(), 1.0)};
  std::vector<std::uint8_t> frames[2];
  ans.num("frame.encode_model_us", median_us(kCalls, [&](int v) {
            ByteWriter w;
            nn::write_sparse_model(w, dense[v]);
            frames[v] = frame::encode(frame::FrameType::kModel, w.bytes());
          }));
  ans.num("frame.decode_model_us", median_us(kCalls, [&](int v) {
            const frame::Decoded d = frame::decode(frames[v]);
            ByteReader r{d.payload};
            g_sink = nn::read_sparse_model(r).densify().at(0);
          }));

  // engine: fleet evaluation, and the checkpoint round trip where the
  // workload's path checkpoints.
  const double eval_one_s = median_us(kSlowCalls, [&](int) { g_sink = sim.mean_eval_loss(); }) / 1e6;
  const double evals = std::floor(cfg.duration_s / cfg.eval_interval_s + 1e-9);
  const double eval_s = eval_one_s * evals;
  ans.num("engine.eval_s", eval_s);
  if (measures(workload, "engine.checkpoint_save_ms")) {
    std::vector<std::uint8_t> ckpt;
    ans.num("engine.checkpoint_save_ms", median_us(kSlowCalls, [&](int) {
                                           ByteWriter w;
                                           sim.save_checkpoint(w);
                                           ckpt = w.take();
                                         }) / 1e3);
    ans.num("engine.checkpoint_bytes", static_cast<double>(ckpt.size()));
    std::vector<double> restore_ms;
    for (int i = 0; i < kSlowCalls; ++i) {
      engine::FleetSim fresh{cfg, baselines::registry().make(c.strategy)};
      ByteReader r{ckpt};
      const auto t0 = Clock::now();
      const engine::CkptStatus st = fresh.restore(r);
      restore_ms.push_back(since(t0) * 1e3);
      if (st != engine::CkptStatus::kOk) {
        ans.fail("checkpoint restore: " + std::string{engine::to_string(st)});
        break;
      }
    }
    ans.num("engine.checkpoint_restore_ms", median(restore_ms));
  }

  // sim / net: one world step and one neighbour-index rebuild + full query
  // (these mutate nothing the checks above still read).
  std::vector<Vec2> pos(static_cast<std::size_t>(sim.num_vehicles()));
  net::NeighborIndex index;
  std::vector<int> hits;
  ans.num("net.neighbor_rebuild_query_us", median_us(kCalls, [&](int) {
            for (int v = 0; v < sim.num_vehicles(); ++v) {
              pos[static_cast<std::size_t>(v)] = sim.world().vehicle(v).pos;
            }
            index.rebuild(pos, cfg.radio.max_range_m);
            for (int v = 0; v < sim.num_vehicles(); ++v) index.query(v, hits);
          }));
  ans.num("sim.world_step_us",
          median_us(kCalls, [&](int) { sim.world().step(cfg.tick_s); }));

  // Wall-time split of the training loop: whatever the named phases do not
  // cover is world stepping, transfer ticking and bookkeeping.
  const double named = ts.tick_times.busy_s + ts.transfer_times.busy_s + ts.idle_times.busy_s +
                       ts.aborted_times.busy_s + ts.train_phase_wall_s + eval_s;
  ans.num("engine.run_wall_s", run_wall_s);
  ans.num("engine.other_s", run_wall_s - named);
  ans.num("engine.other_pct", run_wall_s > 0.0 ? 100.0 * (run_wall_s - named) / run_wall_s : 0.0);
}

}  // namespace

int run_sim_child(const ChildArgs& args) {
  Answer ans;
  const SimCase c = sim_case(args.workload, args.seed, args.index, args.smoke);
  const double horizon = c.cfg.duration_s;
  const double check_at = std::min(check_horizon(args.smoke), horizon);

  const auto t_setup = Clock::now();
  std::unique_ptr<engine::Strategy> strategy = baselines::registry().make(c.strategy);
  TimedStrategy* timed = nullptr;
  if (args.trace) {
    auto wrapped = std::make_unique<TimedStrategy>(std::move(strategy), c.cfg.num_vehicles);
    timed = wrapped.get();
    strategy = std::move(wrapped);
  }
  engine::FleetSim sim{c.cfg, std::move(strategy)};
  sim.prepare();
  const double setup_s = since(t_setup);
  ans.num("setup_s", setup_s);
  if (args.setup_only) {
    ans.print();
    return 0;
  }

  // The run stops once, untimed, at check_at to record the digest of its
  // state; a check run ends there.
  auto t_run = Clock::now();
  sim.run_until(check_at);
  double run_wall_s = since(t_run);
  ans.str("state_digest", hex(state_digest(sim)));
  if (args.check) {
    ans.print();
    return 0;
  }
  t_run = Clock::now();
  sim.run_until(horizon);
  run_wall_s += since(t_run);
  if (timed != nullptr) timed->flush_train_phase();
  const auto t_finalize = Clock::now();
  const engine::RunMetrics m = sim.finalize();
  // What a job runner spends on the job: set-up, training loop, finalize.
  ans.num("job_wall_s", setup_s + run_wall_s + since(t_finalize));

  ans.num("run_wall_s", run_wall_s);
  ans.num("sim_s", horizon);
  ans.str("digest", hex(run_digest(m)));
  const double t0_loss = m.loss_curve.values.empty() ? NAN : m.loss_curve.values.front();
  const double final_loss = m.loss_curve.values.empty() ? NAN : m.loss_curve.values.back();
  if (!std::isfinite(final_loss) || !(final_loss < t0_loss)) {
    ans.fail("final loss " + fmt_num(final_loss) + " is not below the t=0 loss " +
             fmt_num(t0_loss));
  }
  if (timed != nullptr) {
    const engine::TransferStats& t = m.transfers;
    ans.num("run.final_loss", final_loss);
    ans.num("run.model_receiving_rate", t.model_receiving_rate());
    ans.num("run.bytes_on_air_mb", static_cast<double>(t.bytes_delivered) / 1e6);
    ans.num("engine.sessions_started", t.sessions_started);
    ans.num("engine.sessions_aborted", t.sessions_aborted);
    ans.num("engine.model_sends_started", t.model_sends_started);
    ans.num("engine.model_sends_completed", t.model_sends_completed);
    ans.num("engine.coreset_sends_completed", t.coreset_sends_completed);
    ans.num("engine.frames_rejected", t.frames_rejected);
    ans.num("engine.train_steps", static_cast<double>(m.train_steps));
    ans.num("engine.session_success_ratio",
            t.sessions_started > 0
                ? 1.0 - static_cast<double>(t.sessions_aborted) / t.sessions_started
                : 0.0);
    layer_metrics(ans, args.workload, sim, c, *timed, run_wall_s);
  }
  ans.print();
  return 0;
}

namespace {

[[nodiscard]] bool terminal(svc::JobState s) {
  return s == svc::JobState::kDone || s == svc::JobState::kCancelled ||
         s == svc::JobState::kFailed;
}

/// The exact bytes of the loss curve in a finished job's manifest, after
/// checking that the run's final loss is finite; false when the payload does
/// not read as one.
bool read_loss_curve(const svc::JobPayload& p, std::string& curve_json) {
  std::string error;
  const auto manifest = svc::json_parse(p.manifest_json, error);
  if (manifest == nullptr) return false;
  const svc::JsonValue* loss = manifest->get("final_mean_loss");
  const svc::JsonValue* curve = manifest->get("loss_curve");
  if (loss == nullptr || !loss->is_number() || !std::isfinite(loss->as_number()) ||
      curve == nullptr) {
    return false;
  }
  curve_json =
      p.manifest_json.substr(curve->source_begin(), curve->source_end() - curve->source_begin());
  return true;
}

}  // namespace

int run_svc_child(const ChildArgs& args) {
  // Fix glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises after the first large free, and freed checkpoints and payloads
  // then stay in the heap in an order set by thread timing: the batch's
  // peak RSS spread by 7.5% over ten seeds that way, and by 4.4% with it
  // fixed.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Answer ans;
  const SvcBatch batch = svc_batch(args.seed, args.smoke);
  const std::size_t n = batch.jobs.size();

  // Set-up a job pays before its training loop: FleetSim construction plus
  // prepare(), for the batch's first sixteen jobs (sixteen towns, eight per
  // strategy). Service jobs start in a warm, long-lived process, so one
  // untimed set-up goes first. LbChat builds a coreset and DP does not, so
  // setup_s is the mean of the two strategies' medians; one median over
  // both would jump between them.
  constexpr int kSetupJobs = 16;
  std::vector<double> setups[2];  // DP, LbChat
  for (int idx = -1; idx < std::min<int>(kSetupJobs, static_cast<int>(n)); ++idx) {
    const SimCase c = sim_case(Workload::kSvcMixed, args.seed, std::max(idx, 0), args.smoke);
    const auto t0 = Clock::now();
    engine::FleetSim sim{c.cfg, baselines::registry().make(c.strategy)};
    sim.prepare();
    if (idx < 0) continue;
    const bool lbchat = batch.jobs[static_cast<std::size_t>(idx)].lbchat;
    setups[lbchat ? 1 : 0].push_back(since(t0));
  }
  double setup_s = 0.0;
  int strategies = 0;
  for (const std::vector<double>& s : setups) {
    if (s.empty()) continue;
    setup_s += median(s);
    ++strategies;
  }
  ans.num("setup_s", setup_s / strategies);

  svc::ServiceOptions opts;
  opts.workers = batch.workers;
  opts.epoch_s = batch.epoch_s;
  opts.cache_enabled = false;
  opts.root = std::filesystem::path{args.workdir} / ("svc_mixed." + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(opts.root, ec);

  std::vector<std::uint64_t> ids(n, 0);
  std::vector<double> submit_at(n, 0.0);
  std::vector<double> done_at(n, -1.0);
  std::vector<double> running_s(n, 0.0);  // time seen in kRunning, to the poll
  std::vector<svc::JobState> state(n, svc::JobState::kQueued);
  std::vector<svc::JobPayload> payloads(n);
  std::vector<double> submit_us;
  svc::ServiceStats stats;
  double makespan_s = 0.0;
  {
    svc::FleetService service{opts};
    const auto t0 = Clock::now();
    std::map<std::uint64_t, std::size_t> index_of;
    for (std::size_t i = 0; i < n; ++i) {
      std::string error;
      const auto ts = Clock::now();
      ids[i] = service.submit(batch.jobs[i].spec, error);
      submit_us.push_back(since(ts) * 1e6);
      submit_at[i] = since(t0);
      if (ids[i] == 0) {
        ans.fail("submit of job " + std::to_string(i) + " refused: " + error);
        done_at[i] = submit_at[i];
        state[i] = svc::JobState::kFailed;
        continue;
      }
      index_of[ids[i]] = i;
    }
    // Completion is observed the way a client would: poll every 10 ms. A job
    // seen running at one poll is counted running until the next.
    constexpr double kTimeoutS = 150.0;
    std::size_t pending = index_of.size();
    double last_poll = since(t0);
    while (pending > 0 && since(t0) < kTimeoutS) {
      const double now = since(t0);
      for (const svc::JobStatus& st : service.jobs()) {
        const auto it = index_of.find(st.id);
        if (it == index_of.end() || done_at[it->second] >= 0.0) continue;
        const std::size_t i = it->second;
        if (state[i] == svc::JobState::kRunning) running_s[i] += now - last_poll;
        state[i] = st.state;
        if (!terminal(st.state)) continue;
        done_at[i] = now;
        --pending;
      }
      last_poll = now;
      if (pending > 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (std::size_t i = 0; i < n; ++i) {
      makespan_s = std::max(makespan_s, done_at[i]);
      std::string error;
      if (state[i] == svc::JobState::kDone && !service.result(ids[i], payloads[i], error)) {
        state[i] = svc::JobState::kFailed;
      }
    }
    stats = service.stats();
    service.shutdown(false);
  }
  std::filesystem::remove_all(opts.root, ec);

  // Turnaround (submit to done) over the mixed jobs. Running time (waits
  // for the obs lease included, queue waits not) of the LbChat jobs at
  // priority 0 without preempt_at, split by whether they record events: the
  // gap is what the lease costs, free of queue position.
  std::vector<double> turnaround, events_run, plain_run;
  double sim_s = 0.0;
  std::vector<std::string> curves(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SvcJob& job = batch.jobs[i];
    sim_s += job.horizon_s;
    if (state[i] != svc::JobState::kDone) {
      ans.fail("job " + std::to_string(i) + " ended " + std::string{svc::to_string(state[i])});
      continue;
    }
    if (!read_loss_curve(payloads[i], curves[i])) {
      ans.fail("job " + std::to_string(i) + ": unreadable payload");
      continue;
    }
    if (job.twin_of >= 0) {
      const std::size_t j = static_cast<std::size_t>(job.twin_of);
      if (curves[j] != curves[i] || payloads[j].metrics_json != payloads[i].metrics_json ||
          payloads[j].report_json != payloads[i].report_json) {
        ans.fail("preempted job " + std::to_string(j) + " differs from its straight twin");
      }
      continue;
    }
    turnaround.push_back(done_at[i] - submit_at[i]);
    if (job.lbchat && !job.preempted && job.priority == 0) {
      (job.events ? events_run : plain_run).push_back(running_s[i]);
    }
  }
  const auto pct = [](const std::vector<double>& v, double p) {
    return v.empty() ? NAN : percentile(v, p);
  };
  ans.num("ops", static_cast<double>(n));
  ans.num("sim_s", sim_s);
  ans.num("makespan_s", makespan_s);
  ans.num("svc.job_turnaround_p50_s", pct(turnaround, 50.0));
  ans.num("svc.job_turnaround_p75_s", pct(turnaround, 75.0));
  ans.num("svc.events_job_run_p50_s", pct(events_run, 50.0));
  ans.num("svc.plain_job_run_p50_s", pct(plain_run, 50.0));
  ans.num("svc.submit_us", median(submit_us));
  ans.num("svc.preemptions", static_cast<double>(stats.preemptions));
  ans.num("svc.migrations", static_cast<double>(stats.migrations));
  ans.num("svc.completed", static_cast<double>(stats.completed));
  ans.print();
  return 0;
}

}  // namespace lbchat::e2e
