#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "common/bytes.h"
#include "common/file_io.h"
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

/// The cache file layouts: a CachedRun, and a table's success rates.
template <class Io, FieldsOf<CachedRun> S>
void fields(Io& io, S& run) {
  io.exact(kCacheVersion, "bench cache version");
  io(run.loss_curve);
  io(run.transfers);
  adversary_fields(io, run.transfers);
  io(run.honest_loss_curve);
  io(run.attacker_loss_curve);
  io(run.train_steps);
  io.resize(run.final_params, sizeof(std::uint32_t));
  for (auto& params : run.final_params) io(params);
}

template <class Io, FieldsOf<std::array<double, 5>> S>
void fields(Io& io, S& rates) {
  for (auto& rate : rates) io(rate);
}

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
    if (!write_file(dir / file, body)) {
      std::fprintf(stderr, "[bench] cannot write %s\n", (dir / file).string().c_str());
    }
  };
  save(std::string{stem} + ".trace.json", obs::chrome_trace_json(events, obs::spans().spans()));
  save(std::string{stem} + ".events.jsonl", obs::events_jsonl(events, sim.events().dropped()));
  save(std::string{stem} + ".metrics.json", obs::metrics_json(sim.metrics_snapshot()));
  save(std::string{stem} + ".report.json",
       obs::run_report_json(engine::build_run_report(approach_str, cfg, m)));
  std::fprintf(stderr, "[bench] observability exports: %s/%s.{trace.json,events.jsonl,...}\n",
               dir.string().c_str(), stem);
}

/// Encode `value` into the cache file at `path`. A failed write only costs
/// a retraining next time, so it is reported, not fatal.
template <class T>
void save_cached(const std::filesystem::path& path, const T& value) {
  ByteWriter w;
  Save io{w};
  fields(io, value);
  if (!write_file(path, w.bytes())) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.string().c_str());
  }
}

/// Decode the cache file at `path` into `value`; false (and `value`
/// untouched) when the file is missing or does not decode.
template <class T>
bool load_cached(const std::filesystem::path& path, T& value) {
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, bytes)) return false;
  try {
    ByteReader r{bytes};
    Load io{r};
    T decoded{};
    fields(io, decoded);
    value = std::move(decoded);
    return true;
  } catch (const std::exception&) {
    return false;
  }
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
  if (load_cached(path, run)) return run;

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
  save_cached(path, run);
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
  std::array<double, 5> rates{};
  if (load_cached(path, rates)) return rates;

  std::fprintf(stderr, "[bench] online eval of %s (%d models x %d trials)...\n",
               std::string{strategy}.c_str(), models_to_eval, ec.trials);
  eval::OnlineEvaluator evaluator{ec};
  // Spread the evaluated vehicles across the fleet (urban + rural dwellers).
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
  save_cached(path, rates);
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
