// lbchat_sim_cli: run any approach/configuration from the command line and
// print the metrics the paper reports — loss curve, receiving rate, and
// (optionally) driving success rates. `lbchat_sim_cli --help` lists the flags;
// the JobSpec ones come from the key table in src/svc/job.cpp.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/bytes.h"
#include "common/file_io.h"
#include "engine/checkpoint.h"
#include "engine/fleet.h"
#include "eval/online.h"
#include "nn/kernel_dispatch.h"
#include "obs/export.h"
#include "svc/job.h"
#include "svc/json.h"

namespace {

/// The flag that sets JobSpec key `key`: --a-b for a_b.
std::string flag_of(std::string_view key) {
  std::string flag = "--" + std::string{key};
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: lbchat_sim_cli [FLAG]...\n"
               "JobSpec keys (flag --a-b sets key a_b, with the fleet service's checks):\n");
  for (const auto& k : lbchat::svc::job_keys()) {
    if (k.cli.value.empty()) continue;
    const std::string flag = flag_of(k.key) + " " + std::string{k.cli.value};
    std::fprintf(out, "  %-20s %s\n", flag.c_str(), std::string{k.cli.help}.c_str());
  }
  std::fprintf(out,
               "  --strategy-opt KEY=VALUE  set a per-strategy tunable (repeatable;\n"
               "                    keys and ranges are the strategy's schema)\n"
               "Run flags:\n"
               "  --list-strategies print every registered strategy with its\n"
               "                    option schema, then exit\n"
               "  --help, -h        print this text, then exit\n"
               "  --no-wireless-loss  disable the distance-loss lookup table\n"
               "  --eval            drive vehicle 0's final model through the\n"
               "                    online evaluation tasks\n"
               "  --kernel NAME     GEMM backend: auto (default; best available),\n"
               "                    scalar (bit-reproduces committed goldens),\n"
               "                    avx2; errors if NAME is unavailable on this\n"
               "                    build/CPU (LBCHAT_KERNEL is the env\n"
               "                    equivalent, with warn-and-fallback instead)\n"
               "  --int8-eval       score coreset values and eval losses with the\n"
               "                    int8-quantized forward path (training stays\n"
               "                    fp32); changes run numerics + fingerprint\n"
               "  --trace-out F     Chrome trace-event JSON (open in Perfetto);\n"
               "                    enables sim-event + wall-clock span tracing\n"
               "  --events-out F    sim-time event log, one JSON object per line\n"
               "  --metrics-out F   the run's metrics snapshot as JSON\n"
               "  --report-out F    per-vehicle run report (.csv => CSV, else JSON)\n"
               "  --checkpoint-out F   write a run-state checkpoint at the horizon\n"
               "  --resume-from F      restore run state from a checkpoint first\n"
               "  --checkpoint-every S also checkpoint periodically (sim seconds > 0;\n"
               "                       needs --checkpoint-out, overwritten each time)\n");
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool save_checkpoint_file(const lbchat::engine::FleetSim& sim, const std::string& path) {
  lbchat::ByteWriter w;
  sim.save_checkpoint(w);
  if (lbchat::write_file(path, w.bytes())) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbchat;

  svc::JobSpec spec;
  engine::ScenarioConfig& cfg = spec.cfg;
  cfg.num_vehicles = 8;
  cfg.duration_s = 900.0;
  svc::JobSpecBuilder builder{spec};
  std::string error;
  bool run_eval = false;
  std::string trace_out;
  std::string events_out;
  std::string metrics_out;
  std::string report_out;
  std::string checkpoint_out;
  std::string resume_from;
  double checkpoint_every = 0.0;

  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto spec_flags = svc::job_keys();
    const auto spec_flag = std::find_if(spec_flags.begin(), spec_flags.end(), [&](const auto& k) {
      return !k.cli.value.empty() && flag_of(k.key) == argv[i];
    });
    if (spec_flag != spec_flags.end()) {
      if (!builder.set_text(spec_flag->key, need_value(argv[i]), error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--strategy-opt") == 0) {
      const std::string kv = need_value("--strategy-opt");
      const std::size_t eq = kv.find('=');
      if (eq == 0 || eq == std::string::npos) {
        std::fprintf(stderr, "--strategy-opt expects KEY=VALUE, got '%s'\n", kv.c_str());
        return 2;
      }
      if (!builder.set_text("strategy_options." + kv.substr(0, eq), kv.substr(eq + 1), error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--list-strategies") == 0) {
      for (const std::string& name : baselines::registry().list()) {
        std::printf("%s\n", name.c_str());
        for (const auto& opt : baselines::registry().option_schema(name)) {
          std::printf("  --strategy-opt %s=%g  %s\n", opt.name.c_str(), opt.default_value,
                      opt.description.c_str());
        }
      }
      return 0;
    } else if (std::strcmp(argv[i], "--kernel") == 0) {
      const std::string name = need_value("--kernel");
      if (name != "auto") {
        const auto parsed = nn::parse_kernel_path(name);
        if (!parsed.has_value()) {
          std::fprintf(stderr, "--kernel expects auto/scalar/avx2, got '%s'\n", name.c_str());
          return 2;
        }
        if (!nn::kernel_path_available(*parsed)) {
          std::fprintf(stderr, "--kernel %s is not available on this build/CPU\n", name.c_str());
          return 2;
        }
        nn::set_kernel_path(*parsed);
      }
    } else if (std::strcmp(argv[i], "--int8-eval") == 0) {
      cfg.int8_eval.enabled = true;
    } else if (std::strcmp(argv[i], "--no-wireless-loss") == 0) {
      cfg.wireless_loss = false;
    } else if (std::strcmp(argv[i], "--eval") == 0) {
      run_eval = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out = need_value("--trace-out");
    } else if (std::strcmp(argv[i], "--events-out") == 0) {
      events_out = need_value("--events-out");
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      metrics_out = need_value("--metrics-out");
    } else if (std::strcmp(argv[i], "--report-out") == 0) {
      report_out = need_value("--report-out");
    } else if (std::strcmp(argv[i], "--checkpoint-out") == 0) {
      checkpoint_out = need_value("--checkpoint-out");
    } else if (std::strcmp(argv[i], "--resume-from") == 0) {
      resume_from = need_value("--resume-from");
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      const char* text = need_value("--checkpoint-every");
      const auto value = svc::json_parse(text, error);
      if (value == nullptr || !value->is_number() || !(value->as_number() > 0.0) ||
          !std::isfinite(value->as_number())) {
        std::fprintf(stderr, "--checkpoint-every must be a number > 0, got '%s'\n", text);
        return 2;
      }
      checkpoint_every = value->as_number();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(stderr);
      return 2;
    }
  }

  if (checkpoint_every > 0.0 && checkpoint_out.empty()) {
    std::fprintf(stderr, "--checkpoint-every needs --checkpoint-out\n");
    return 2;
  }
  std::unique_ptr<engine::Strategy> strategy;
  try {
    strategy = baselines::registry().make(spec.approach_name, spec.options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(stderr);
    return 2;
  }
  if (!builder.finish(error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  obs::TraceEnv trace_env;
  try {
    trace_env = obs::init_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf(
      "approach=%s vehicles=%d duration=%.0fs coreset=%zu wireless_loss=%d seed=%llu "
      "threads=%d kernel=%s int8_eval=%d\n",
      spec.approach_name.c_str(), cfg.num_vehicles, cfg.duration_s, cfg.coreset_size,
      cfg.wireless_loss ? 1 : 0, static_cast<unsigned long long>(cfg.seed), cfg.num_threads,
      std::string{nn::kernel_path_name(nn::active_kernel_path())}.c_str(),
      cfg.int8_eval.enabled ? 1 : 0);

  // Tracing is opt-in: sim events feed every export; wall-clock spans are
  // only collected when the Chrome trace was requested (they appear nowhere
  // else). LBCHAT_TRACE can also enable collection without an output flag.
  if (!trace_out.empty()) obs::set_spans_enabled(true);

  engine::FleetSim sim{cfg, std::move(strategy)};
  sim.enable_events(trace_env.events || !trace_out.empty() || !events_out.empty() ||
                    !metrics_out.empty());

  if (!resume_from.empty()) {
    std::vector<std::uint8_t> bytes;
    if (!read_file(resume_from, bytes)) {
      std::fprintf(stderr, "cannot read %s\n", resume_from.c_str());
      return 1;
    }
    ByteReader r{bytes};
    const engine::CkptStatus st = sim.restore(r);
    if (st != engine::CkptStatus::kOk) {
      std::fprintf(stderr, "cannot resume from %s: %s\n", resume_from.c_str(),
                   std::string{engine::to_string(st)}.c_str());
      return 1;
    }
    std::printf("resumed from %s at t=%.1fs\n", resume_from.c_str(), sim.time());
  }

  sim.prepare();
  if (checkpoint_every > 0.0) {
    double next_ckpt = sim.time() + checkpoint_every;
    while (sim.time() < cfg.duration_s) {
      sim.run_until(next_ckpt < cfg.duration_s ? next_ckpt : cfg.duration_s);
      if (!save_checkpoint_file(sim, checkpoint_out)) return 1;
      next_ckpt += checkpoint_every;
    }
  } else {
    sim.run_until(cfg.duration_s);
    // The checkpoint captures the pre-finalize state, so resuming it with a
    // longer --duration continues the run bit-identically.
    if (!checkpoint_out.empty() && !save_checkpoint_file(sim, checkpoint_out)) return 1;
  }
  const engine::RunMetrics m = sim.finalize();

  int export_failures = 0;
  const auto export_failed = [&export_failures](const std::string& path) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    ++export_failures;
  };
  if (!trace_out.empty() || !events_out.empty() || !metrics_out.empty() ||
      !report_out.empty()) {
    const auto events = sim.events().events();
    if (!trace_out.empty() &&
        !write_file(trace_out, obs::chrome_trace_json(events, obs::spans().spans()))) {
      export_failed(trace_out);
    }
    if (!events_out.empty() &&
        !write_file(events_out, obs::events_jsonl(events, sim.events().dropped()))) {
      export_failed(events_out);
    }
    if (!metrics_out.empty() &&
        !write_file(metrics_out, obs::metrics_json(sim.metrics_snapshot()))) {
      export_failed(metrics_out);
    }
    if (!report_out.empty()) {
      const std::string body =
          ends_with(report_out, ".csv")
              ? obs::run_report_csv(cfg.duration_s, m)
              : obs::run_report_json(spec.approach_name, cfg.seed, cfg.duration_s, m);
      if (!write_file(report_out, body)) export_failed(report_out);
    }
  }

  std::printf("\nloss curve:\n");
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    std::printf("  %6.0fs  %.4f\n", m.loss_curve.times[i], m.loss_curve.values[i]);
  }
  std::printf("\nlocal SGD steps: %ld\n", m.train_steps);
  std::printf("sessions: %d started, %d aborted\n", m.transfers.sessions_started,
              m.transfers.sessions_aborted);
  std::printf("model sends: %d/%d completed (receiving rate %.0f%%)\n",
              m.transfers.model_sends_completed, m.transfers.model_sends_started,
              100.0 * m.transfers.model_receiving_rate());
  std::printf("coreset sends: %d/%d completed\n", m.transfers.coreset_sends_completed,
              m.transfers.coreset_sends_started);
  std::printf("bytes delivered: %.1f MB\n",
              static_cast<double>(m.transfers.bytes_delivered) / 1048576.0);
  if (cfg.adversary.enabled()) {
    std::printf("byzantine: %d poisoned payloads sent, attacker weight share %.3f, "
                "%d frames rejected for invalid values\n",
                m.transfers.byzantine_payloads_sent, m.transfers.attacker_weight_share(),
                m.transfers.frames_rejected_invalid);
  }
  if (cfg.hetero.enabled()) {
    std::printf("heterogeneity: %ld straggler train skips\n",
                m.transfers.straggler_train_skips);
  }

  if (run_eval) {
    eval::EvalConfig ec;
    ec.world_seed = cfg.seed;
    ec.trials = 12;
    const eval::OnlineEvaluator ev{ec};
    nn::DrivingPolicy model{cfg.policy, 0};
    model.set_params(m.final_params.front());
    std::printf("\ndriving success rates (vehicle 0's model, %d trials):\n", ec.trials);
    for (const auto task : eval::kAllTasks) {
      std::printf("  %-15s %3.0f%%\n", std::string{eval::task_name(task)}.c_str(),
                  100.0 * ev.success_rate(model, task));
    }
  }
  return export_failures == 0 ? 0 : 1;
}
