#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/bytes.h"
#include "common/fingerprint.h"
#include "common/rng.h"
#include "nn/kernel_dispatch.h"
#include "engine/report.h"
#include "obs/export.h"

namespace lbchat::bench {

namespace {

/// Version of the CachedRun on-disk layout. The cache *key* is salted
/// separately by kScenarioFingerprintVersion (engine/checkpoint.h) — bump
/// that one to invalidate keys after behavioural changes, this one when the
/// CachedRun byte layout changes.
/// v3: CachedRun carries the adversary/heterogeneity counters and the
/// honest/attacker cohort loss curves.
constexpr std::uint32_t kCacheVersion = 3;

std::filesystem::path cache_dir() {
  const char* env = std::getenv("LBCHAT_BENCH_CACHE");
  std::filesystem::path dir = env != nullptr ? env : ".bench_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

std::filesystem::path trace_dir() {
  const char* env = std::getenv("LBCHAT_TRACE_DIR");
  std::filesystem::path dir = env != nullptr ? env : ".bench_traces";
  std::filesystem::create_directories(dir);
  return dir;
}

std::string sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void export_run_observability(const engine::ScenarioConfig& cfg, std::string_view strategy,
                              std::uint64_t key, const engine::FleetSim& sim,
                              const engine::RunMetrics& m) {
  const std::string approach_str{strategy};
  char stem[128];
  std::snprintf(stem, sizeof stem, "%s_%016llx", sanitize_name(approach_str).c_str(),
                static_cast<unsigned long long>(key));
  const auto dir = trace_dir();
  const auto events = sim.events().events();
  const auto save = [&dir](const std::string& file, const std::string& body) {
    std::ofstream out{dir / file, std::ios::binary};
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  };
  save(std::string{stem} + ".trace.json", obs::chrome_trace_json(events, obs::spans().spans()));
  save(std::string{stem} + ".events.jsonl", obs::events_jsonl(events, sim.events().dropped()));
  save(std::string{stem} + ".metrics.json", obs::metrics_json(sim.metrics_snapshot()));
  save(std::string{stem} + ".report.json",
       obs::run_report_json(engine::build_run_report(approach_str, cfg, m)));
  std::fprintf(stderr, "[bench] observability exports: %s/%s.{trace.json,events.jsonl,...}\n",
               dir.string().c_str(), stem);
}

void write_run(const std::filesystem::path& path, const CachedRun& run) {
  ByteWriter w;
  w.write_u32(kCacheVersion);
  w.write_f64_vec(run.loss_curve.times);
  w.write_f64_vec(run.loss_curve.values);
  w.write_i32(run.transfers.model_sends_started);
  w.write_i32(run.transfers.model_sends_completed);
  w.write_i32(run.transfers.coreset_sends_started);
  w.write_i32(run.transfers.coreset_sends_completed);
  w.write_i32(run.transfers.sessions_started);
  w.write_i32(run.transfers.sessions_aborted);
  w.write_u64(run.transfers.bytes_delivered);
  w.write_i32(run.transfers.frames_rejected);
  w.write_i32(run.transfers.model_frames_rejected);
  w.write_i32(run.transfers.sessions_lost_to_blackout);
  w.write_i32(run.transfers.backoff_retries);
  w.write_f64(run.transfers.offline_vehicle_seconds);
  w.write_i32(run.transfers.byzantine_payloads_sent);
  w.write_u64(static_cast<std::uint64_t>(run.transfers.straggler_train_skips));
  w.write_i32(run.transfers.frames_rejected_invalid);
  w.write_f64(run.transfers.attacker_peer_weight);
  w.write_f64(run.transfers.total_peer_weight);
  w.write_f64_vec(run.honest_loss_curve.times);
  w.write_f64_vec(run.honest_loss_curve.values);
  w.write_f64_vec(run.attacker_loss_curve.times);
  w.write_f64_vec(run.attacker_loss_curve.values);
  w.write_u64(static_cast<std::uint64_t>(run.train_steps));
  w.write_u32(static_cast<std::uint32_t>(run.final_params.size()));
  for (const auto& p : run.final_params) w.write_f32_vec(p);
  std::ofstream out{path, std::ios::binary};
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.size()));
}

bool read_run(const std::filesystem::path& path, CachedRun& run) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  try {
    ByteReader r{bytes};
    if (r.read_u32() != kCacheVersion) return false;
    run.loss_curve.times = r.read_f64_vec();
    run.loss_curve.values = r.read_f64_vec();
    run.transfers.model_sends_started = r.read_i32();
    run.transfers.model_sends_completed = r.read_i32();
    run.transfers.coreset_sends_started = r.read_i32();
    run.transfers.coreset_sends_completed = r.read_i32();
    run.transfers.sessions_started = r.read_i32();
    run.transfers.sessions_aborted = r.read_i32();
    run.transfers.bytes_delivered = r.read_u64();
    run.transfers.frames_rejected = r.read_i32();
    run.transfers.model_frames_rejected = r.read_i32();
    run.transfers.sessions_lost_to_blackout = r.read_i32();
    run.transfers.backoff_retries = r.read_i32();
    run.transfers.offline_vehicle_seconds = r.read_f64();
    run.transfers.byzantine_payloads_sent = r.read_i32();
    run.transfers.straggler_train_skips = static_cast<long>(r.read_u64());
    run.transfers.frames_rejected_invalid = r.read_i32();
    run.transfers.attacker_peer_weight = r.read_f64();
    run.transfers.total_peer_weight = r.read_f64();
    run.honest_loss_curve.times = r.read_f64_vec();
    run.honest_loss_curve.values = r.read_f64_vec();
    run.attacker_loss_curve.times = r.read_f64_vec();
    run.attacker_loss_curve.values = r.read_f64_vec();
    run.train_steps = static_cast<long>(r.read_u64());
    const auto n = r.read_u32();
    run.final_params.clear();
    for (std::uint32_t i = 0; i < n; ++i) run.final_params.push_back(r.read_f32_vec());
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

double env_number(const char* name, double fallback, bool (*in_range)(double),
                  const char* range) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (*end != '\0' || !std::isfinite(v) || !in_range(v)) {
    std::fprintf(stderr, "%s=%s: must be %s\n", name, env, range);
    std::exit(2);
  }
  return v;
}

engine::ScenarioConfig default_scenario(bool wireless_loss) {
  engine::ScenarioConfig cfg;
  cfg.seed = 1;
  cfg.num_vehicles = 16;
  cfg.wireless_loss = wireless_loss;
  cfg.collect_duration_s = 600.0;
  const double scale = env_number(
      "LBCHAT_BENCH_SCALE", 1.0, [](double v) { return v > 0.01; }, "a number > 0.01");
  cfg.duration_s = 1800.0 * scale;
  cfg.eval_interval_s = 100.0;
  // Worker lanes for the fleet's per-vehicle loops. Bit-deterministic for
  // any value, so it is not part of the cache fingerprint; default to all
  // hardware threads, override with LBCHAT_THREADS=n.
  cfg.num_threads = static_cast<int>(env_number(
      "LBCHAT_THREADS", 0.0,
      [](double v) { return v >= 0.0 && v < 2147483648.0 && v == std::floor(v); },
      "an integer >= 0"));
  return cfg;
}

eval::EvalConfig default_eval_config() {
  eval::EvalConfig ec;
  ec.world_seed = 1;  // the town the fleet trained in
  ec.trials = 16;
  return ec;
}

std::uint64_t run_fingerprint(const engine::ScenarioConfig& cfg, std::string_view strategy,
                              const baselines::StrategyOptions& options) {
  // The svc ResultCache derives its keys from the same function
  // (engine/checkpoint.h). Non-default strategy options enter only via the
  // conditional tail, so default-configured runs share one key. The
  // kernel-path salt is identity on the scalar path, so only SIMD runs get
  // keys of their own.
  return nn::salt_with_kernel_path(engine::scenario_fingerprint(
      cfg, strategy, baselines::registry().fingerprint_options(strategy, options)));
}

CachedRun run_or_load(const engine::ScenarioConfig& cfg, std::string_view strategy,
                      const baselines::StrategyOptions& options) {
  // LBCHAT_TRACE=1|events|spans turns on observability for uncached runs;
  // each run records its own events, so its exports cover exactly that run.
  // The cache fingerprint is unaffected (tracing is pure observation). Read
  // before the cache lookup so a bad value fails every run, cached or not.
  obs::TraceEnv trace;
  try {
    trace = obs::init_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  const std::uint64_t key = run_fingerprint(cfg, strategy, options);
  char name[64];
  std::snprintf(name, sizeof name, "run_%016llx.bin",
                static_cast<unsigned long long>(key));
  const auto path = cache_dir() / name;
  CachedRun run;
  if (read_run(path, run)) return run;

  std::fprintf(stderr, "[bench] training %s (wireless=%d, |C|=%zu, %.0fs)...\n",
               std::string{strategy}.c_str(), cfg.wireless_loss ? 1 : 0, cfg.coreset_size,
               cfg.duration_s);
  if (trace.spans) obs::spans().clear();
  engine::FleetSim sim{cfg, baselines::registry().make(strategy, options)};
  sim.enable_events(trace.events);
  const engine::RunMetrics m = sim.run();
  if (trace.events || trace.spans) export_run_observability(cfg, strategy, key, sim, m);
  run.loss_curve = m.loss_curve;
  run.honest_loss_curve = m.honest_loss_curve;
  run.attacker_loss_curve = m.attacker_loss_curve;
  run.transfers = m.transfers;
  run.final_params = m.final_params;
  run.train_steps = m.train_steps;
  write_run(path, run);
  return run;
}

std::array<double, 5> success_rates_or_load(const engine::ScenarioConfig& cfg,
                                            std::string_view strategy, const CachedRun& run,
                                            int models_to_eval) {
  const eval::EvalConfig ec = default_eval_config();
  FnvHasher h;
  h.add(run_fingerprint(cfg, strategy));
  h.add(ec.trials);
  h.add(models_to_eval);
  h.add(std::string_view{"success-v1"});
  char name[64];
  std::snprintf(name, sizeof name, "eval_%016llx.bin",
                static_cast<unsigned long long>(h.digest()));
  const auto path = cache_dir() / name;

  {
    std::ifstream in{path, std::ios::binary};
    if (in) {
      std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()};
      try {
        ByteReader r{bytes};
        std::array<double, 5> rates{};
        for (double& v : rates) v = r.read_f64();
        return rates;
      } catch (const std::exception&) {
        // fall through to recompute
      }
    }
  }

  std::fprintf(stderr, "[bench] online eval of %s (%d models x %d trials)...\n",
               std::string{strategy}.c_str(), models_to_eval, ec.trials);
  eval::OnlineEvaluator evaluator{ec};
  // Spread the evaluated vehicles across the fleet (urban + rural dwellers).
  std::array<double, 5> rates{};
  const int n = static_cast<int>(run.final_params.size());
  const int k = std::min(models_to_eval, n);
  for (int m = 0; m < k; ++m) {
    const int v = k > 1 ? m * (n - 1) / (k - 1) : 0;
    nn::DrivingPolicy model{cfg.policy, /*init_seed=*/0};
    model.set_params(run.final_params[static_cast<std::size_t>(v)]);
    for (std::size_t task = 0; task < eval::kAllTasks.size(); ++task) {
      rates[task] += 100.0 * evaluator.success_rate(model, eval::kAllTasks[task]);
    }
  }
  for (double& v : rates) v /= std::max(k, 1);

  ByteWriter w;
  for (const double v : rates) w.write_f64(v);
  std::ofstream out{path, std::ios::binary};
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.size()));
  return rates;
}

void print_paper_table(const std::string& title, const std::vector<SuccessColumn>& columns) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-16s", "Task");
  for (const auto& col : columns) std::printf("  %12s", col.name.c_str());
  std::printf("\n");
  for (std::size_t task = 0; task < eval::kAllTasks.size(); ++task) {
    std::printf("%-16s", std::string{eval::task_name(eval::kAllTasks[task])}.c_str());
    for (const auto& col : columns) std::printf("  %12.0f", col.rates[task]);
    std::printf("\n");
  }
}

void print_loss_series(const std::string& label, const TimeSeries& series) {
  std::printf("%s:\n", label.c_str());
  for (std::size_t i = 0; i < series.size(); ++i) {
    std::printf("  t=%6.0fs  loss=%.4f\n", series.times[i], series.values[i]);
  }
}

}  // namespace lbchat::bench
