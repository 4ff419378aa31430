#include "workloads.h"

#include <cstdio>
#include <stdexcept>

#include "svc/job.h"

namespace lbchat::e2e {

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kLbChat16:
      return "lbchat16";
    case Workload::kDp16:
      return "dp16";
    case Workload::kLbChat16Int8:
      return "lbchat16_int8";
    case Workload::kSvcMixed:
      return "svc_mixed";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

bool measures(Workload w, std::string_view name) {
  return w == Workload::kSvcMixed ||
         (!name.starts_with("svc.") && !name.starts_with("engine.checkpoint_"));
}

int scenarios_per_round(Workload w, bool smoke) {
  if (w == Workload::kSvcMixed || smoke) return 1;
  return 2;
}

double check_horizon(bool smoke) { return smoke ? 10.0 : 60.0; }

namespace {

/// Sim-seconds of training per sub-scenario: a whole paper-length run, so
/// the mix of handshakes, training and evaluation is that of a real run.
/// DP is about five times cheaper per sim-second than LbChat, so it runs
/// longer to do a similar amount of work.
double sim_horizon(Workload w, bool smoke) {
  if (smoke) return 20.0;
  return w == Workload::kDp16 ? 2400.0 : 600.0;
}

}  // namespace

SimCase sim_case(Workload w, std::uint64_t seed, int index, bool smoke) {
  if (w == Workload::kSvcMixed) {
    const SvcBatch batch = svc_batch(seed, smoke);
    if (index < 0 || index >= static_cast<int>(batch.jobs.size())) {
      throw std::invalid_argument{"sim_case: no such svc_mixed job"};
    }
    svc::JobSpec spec;
    std::string error;
    if (!svc::parse_job_spec(batch.jobs[static_cast<std::size_t>(index)].spec, spec, error)) {
      throw std::invalid_argument{"sim_case: bad job spec: " + error};
    }
    return {spec.approach_name, spec.cfg};
  }
  if (index < 0 || index >= scenarios_per_round(w, smoke)) {
    throw std::invalid_argument{"sim_case: no such sub-scenario"};
  }
  SimCase c;
  c.strategy = w == Workload::kDp16 ? "DP" : "LbChat";
  engine::ScenarioConfig& cfg = c.cfg;
  // Paper-default protocol: 16 vehicles, wireless loss, coreset 150,
  // T_B 15 s, 600 s of data collection before training.
  cfg.seed = seed * 1000 + static_cast<std::uint64_t>(index);
  cfg.num_threads = kSimLanes;
  cfg.duration_s = sim_horizon(w, smoke);
  cfg.int8_eval.enabled = w == Workload::kLbChat16Int8;
  if (smoke) {
    cfg.num_vehicles = 6;
    cfg.collect_duration_s = 60.0;
    cfg.eval_interval_s = 5.0;
  }
  return c;
}

SvcBatch svc_batch(std::uint64_t seed, bool smoke) {
  SvcBatch batch;
  const int mixed_jobs = smoke ? 8 : 40;
  batch.epoch_s = smoke ? 10.0 : 30.0;
  const int vehicles = smoke ? 4 : 8;
  const double duration = smoke ? 30.0 : 120.0;
  const double collect = smoke ? 30.0 : 120.0;
  const double preempt_at = duration / 2.0;
  constexpr int kTwins = 4;

  const auto spec = [&](int i, const char* strategy, bool events, int priority,
                        double preempt, const char* name_prefix) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"strategy\":\"%s\",\"vehicles\":%d,\"duration\":%g,"
                  "\"collect_duration\":%g,\"seed\":%llu,\"threads\":1,"
                  "\"name\":\"%s%d\",\"priority\":%d,\"events\":%s%s}",
                  strategy, vehicles, duration, collect,
                  static_cast<unsigned long long>(seed * 1000 + static_cast<std::uint64_t>(i)),
                  name_prefix, i, priority, events ? "true" : "false",
                  preempt > 0.0 ? (",\"preempt_at\":" + std::to_string(preempt)).c_str() : "");
    return std::string{buf};
  };

  // Jobs come in pairs p = i/2, an LbChat job then a DP job with the same
  // role, so every role covers both strategies. Every 4th pair records
  // events (and so holds the process-global obs lease alone), every 4th
  // from offset 2 preempts itself once mid-run, and every 8th from offset 1
  // runs at priority 1 and evicts running jobs. The other pairs are plain.
  for (int i = 0; i < mixed_jobs; ++i) {
    const int pair = i / 2;
    SvcJob job;
    job.lbchat = i % 2 == 0;
    job.events = pair % 4 == 0;
    job.preempted = pair % 4 == 2;
    job.priority = pair % 8 == 1 ? 1 : 0;
    job.horizon_s = duration;
    job.spec = spec(i, job.lbchat ? "LbChat" : "DP", job.events, job.priority,
                    job.preempted ? preempt_at : 0.0, "job");
    batch.jobs.push_back(std::move(job));
  }
  // Straight twins of the first preempted jobs (two LbChat, two DP): the
  // same spec without preempt_at, so their payloads must match byte for byte.
  for (int i = 0; i < mixed_jobs && static_cast<int>(batch.jobs.size()) < mixed_jobs + kTwins;
       ++i) {
    const SvcJob& preempted = batch.jobs[static_cast<std::size_t>(i)];
    if (!preempted.preempted) continue;
    SvcJob twin;
    twin.lbchat = preempted.lbchat;
    twin.twin_of = i;
    twin.horizon_s = duration;
    twin.spec = spec(i, twin.lbchat ? "LbChat" : "DP", false, 0, 0.0, "twin");
    batch.jobs.push_back(std::move(twin));
  }
  return batch;
}

}  // namespace lbchat::e2e
