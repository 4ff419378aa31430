// Graceful-degradation sweep: LbChat vs the gossip baselines (DP, DFL-DDS)
// under increasing deterministic fault pressure — interference bursts, vehicle
// churn, and payload corruption (engine/faults.h), with the per-pair chat
// backoff enabled at every nonzero level.
//
// Writes BENCH_fault_sweep.json: per approach and fault level, the successful
// model receiving rate (raw and net of CRC-rejected frames), the final eval
// loss, and the fault counters. Expected shape: every approach degrades
// monotonically with the fault level, and the blind baselines' receiving
// rates collapse below LbChat's (the paper's §IV-C gap widens — LbChat's
// loss-aware sizing and route sharing keep working while blind fit-to-window
// sizing overruns ever-shorter usable windows).
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

lbchat::engine::FaultConfig fault_level(double level) {
  lbchat::engine::FaultConfig f;
  f.burst_rate_per_min = 3.0 * level;  // a few regional bursts per minute
  f.burst_duration_s = 20.0;
  f.burst_radius_m = 250.0;
  f.burst_extra_loss = 1.0;  // full blackout inside the disc
  f.churn_rate_per_min = 0.5 * level;
  f.churn_offline_mean_s = 30.0;
  f.corrupt_prob_near = 0.05 * level;
  f.corrupt_prob_far = 0.30 * level;
  f.chat_backoff = level > 0.0;
  return f;
}

}  // namespace

int main() {
  using namespace lbchat;
  const std::vector<double> levels{0.0, 0.25, 0.5, 1.0};
  const std::vector<std::string> approaches{"LbChat", "DP", "DFL-DDS"};

  std::printf("\n=== Fault-injection sweep (receiving rate / final loss vs fault level) ===\n");
  std::string json;
  bench::appendf(json, "{\n  \"levels\": [");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    bench::appendf(json, "%s%g", i > 0 ? ", " : "", levels[i]);
  }
  bench::appendf(json, "],\n  \"approaches\": [\n");

  for (std::size_t ai = 0; ai < approaches.size(); ++ai) {
    const std::string& name = approaches[ai];
    bench::appendf(json, "    {\"name\": \"%s\", \"results\": [\n", name.c_str());
    for (std::size_t li = 0; li < levels.size(); ++li) {
      auto cfg = bench::default_scenario(/*wireless_loss=*/true);
      cfg.duration_s *= 0.5;  // the sweep is 12 runs; keep each one shorter
      cfg.faults = fault_level(levels[li]);
      const auto run = bench::run_or_load(cfg, name);
      const auto& t = run.transfers;
      const double final_loss = run.loss_curve.values.back();
      std::printf(
          "%-8s level=%.2f  recv=%5.1f%%  net-recv=%5.1f%%  loss=%.4f  "
          "(rej=%d blackout=%d offline=%.0fs backoff=%d)\n",
          name.c_str(), levels[li], 100.0 * t.model_receiving_rate(),
          100.0 * t.effective_model_receiving_rate(), final_loss, t.frames_rejected,
          t.sessions_lost_to_blackout, t.offline_vehicle_seconds, t.backoff_retries);
      bench::appendf(json,
                     "      {\"level\": %g, \"receiving_rate\": %.6f, "
                     "\"effective_receiving_rate\": %.6f, \"final_loss\": %.6f, "
                     "\"model_sends_started\": %d, \"model_sends_completed\": %d, "
                     "\"frames_rejected\": %d, \"model_frames_rejected\": %d, "
                     "\"sessions_started\": %d, \"sessions_aborted\": %d, "
                     "\"sessions_lost_to_blackout\": %d, \"backoff_retries\": %d, "
                     "\"offline_vehicle_seconds\": %.1f}%s\n",
                     levels[li], t.model_receiving_rate(), t.effective_model_receiving_rate(),
                     final_loss, t.model_sends_started, t.model_sends_completed,
                     t.frames_rejected, t.model_frames_rejected, t.sessions_started,
                     t.sessions_aborted, t.sessions_lost_to_blackout, t.backoff_retries,
                     t.offline_vehicle_seconds, li + 1 < levels.size() ? "," : "");
    }
    bench::appendf(json, "    ]}%s\n", ai + 1 < approaches.size() ? "," : "");
  }
  bench::appendf(json, "  ]\n}\n");
  bench::write_or_exit("BENCH_fault_sweep.json", json);
  std::printf("wrote BENCH_fault_sweep.json\n");
  return 0;
}
