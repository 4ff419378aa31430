#include "svc/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <utility>

#include "common/bytes.h"
#include "common/file_io.h"
#include "engine/checkpoint.h"
#include "engine/fleet.h"
#include "obs/export.h"

namespace lbchat::svc {
namespace {

[[nodiscard]] bool terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kCancelled || s == JobState::kFailed;
}

}  // namespace

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kPreempted:
      return "preempted";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

FleetService::FleetService(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.root / "cache"),
      queue_(opts_.queue_capacity) {
  std::error_code ec;
  std::filesystem::create_directories(opts_.root / "jobs", ec);
  std::filesystem::create_directories(opts_.root / "cache", ec);
  std::filesystem::create_directories(opts_.root / "state", ec);
  recover_state();
  totals_.workers = opts_.workers;
  threads_.reserve(static_cast<std::size_t>(std::max(opts_.workers, 0)));
  for (int i = 0; i < opts_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

FleetService::~FleetService() { shutdown(true); }

std::uint64_t FleetService::submit(std::string_view spec_text, std::string& error) {
  JobSpec spec;
  if (!parse_job_spec(spec_text, spec, error)) return 0;
  const std::uint64_t fp = job_fingerprint(spec);

  // Cache probe outside the lock: pure filesystem reads.
  JobPayload cached_payload;
  const bool hit = opts_.cache_enabled && cache_.lookup(fp, cached_payload);

  std::unique_lock lk{mu_};
  if (draining_ || stop_) {
    error = "draining";
    return 0;
  }
  const std::uint64_t id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->spec = std::move(spec);
  job->fingerprint = fp;

  if (hit) {
    // Serve the cached payload without running: materialize the per-job
    // output directory (identical bytes) so clients can diff payload dirs.
    const std::filesystem::path dir = opts_.root / "jobs" / std::to_string(id);
    lk.unlock();
    const bool io_ok = write_payload(dir, cached_payload);
    lk.lock();
    if (io_ok) {
      job->state = JobState::kDone;
      job->cached = true;
      job->payload = std::move(cached_payload);
      job->output_dir = dir.string();
      job->progress_s = job->spec.cfg.duration_s;
      ++totals_.submitted;
      ++totals_.cache_hits;
      jobs_.emplace(id, std::move(job));
      idle_cv_.notify_all();
      return id;
    }
    // Fall through to a real run when the copy could not be written.
  }

  if (!queue_.push(id, job->spec.priority)) {
    error = "queue_full";
    return 0;
  }
  // Count only accepted submissions, so stats keep the invariant
  // submitted == completed + failed + cancelled + in-flight.
  ++totals_.submitted;
  jobs_.emplace(id, std::move(job));
  work_cv_.notify_one();
  return id;
}

JobStatus FleetService::status_of(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.state = job.state;
  s.name = job.spec.name;
  s.approach = job.spec.approach_name;
  s.priority = job.spec.priority;
  s.fingerprint = job.fingerprint;
  s.progress_s = job.progress_s;
  s.horizon_s = job.spec.cfg.duration_s;
  s.events = job.spec.events;
  s.cached = job.cached;
  s.held = job.hold;
  s.preemptions = job.preemptions;
  s.migrations = job.migrations;
  s.error = job.error;
  s.output_dir = job.output_dir;
  if (job.state == JobState::kPreempted && !job.ckpt.empty()) {
    engine::CkptInfo info;
    if (engine::inspect_checkpoint(job.ckpt, info) == engine::CkptStatus::kOk) {
      s.checkpoint_json = engine::ckpt_info_json(info);
    }
  }
  return s;
}

std::optional<JobStatus> FleetService::status(std::uint64_t id) {
  std::unique_lock lk{mu_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return status_of(*it->second);
}

std::vector<JobStatus> FleetService::jobs() {
  std::unique_lock lk{mu_};
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [_, job] : jobs_) out.push_back(status_of(*job));
  return out;
}

ServiceStats FleetService::stats() {
  std::unique_lock lk{mu_};
  ServiceStats s = totals_;
  s.queued = queue_.size();
  s.running = running_;
  s.queue_capacity = queue_.capacity();
  s.draining = draining_;
  return s;
}

bool FleetService::result(std::uint64_t id, JobPayload& out, std::string& error) {
  std::unique_lock lk{mu_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    error = "unknown job";
    return false;
  }
  const Job& job = *it->second;
  if (job.state != JobState::kDone) {
    error = std::string{"job is "} + std::string{to_string(job.state)};
    return false;
  }
  out = job.payload;
  return true;
}

bool FleetService::cancel(std::uint64_t id) {
  std::unique_lock lk{mu_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (terminal(job.state)) return false;
  if (job.state == JobState::kRunning) {
    job.cancel_requested = true;  // honoured at the next slice boundary
    return true;
  }
  queue_.remove(id);
  job.state = JobState::kCancelled;
  job.hold = false;
  ++totals_.cancelled;
  finish_terminal(job);
  return true;
}

bool FleetService::preempt(std::uint64_t id, bool hold) {
  std::unique_lock lk{mu_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.state == JobState::kRunning) {
    job.preempt_requested = true;
    job.preempt_hold = hold;
    return true;
  }
  if (hold && (job.state == JobState::kQueued || job.state == JobState::kPreempted) &&
      !job.hold) {
    queue_.remove(id);
    job.hold = true;
    return true;
  }
  return false;
}

bool FleetService::release(std::uint64_t id) {
  std::unique_lock lk{mu_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (!job.hold || terminal(job.state) || job.state == JobState::kRunning) return false;
  job.hold = false;
  queue_.push(id, job.spec.priority, /*force=*/true);
  work_cv_.notify_one();
  return true;
}

bool FleetService::wait(std::uint64_t id, JobStatus& out, double timeout_s) {
  std::unique_lock lk{mu_};
  if (jobs_.find(id) == jobs_.end()) return false;
  const bool bounded = timeout_s >= 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                             std::chrono::duration<double>{
                                                 bounded ? timeout_s : 0.0});
  while (!terminal(jobs_.at(id)->state) && !stop_) {
    if (bounded) {
      if (idle_cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    } else {
      idle_cv_.wait(lk);
    }
  }
  out = status_of(*jobs_.at(id));
  return true;
}

std::size_t FleetService::drain() {
  std::unique_lock lk{mu_};
  draining_ = true;
  // Re-persist after every wake: an in-flight job that self-preempts during
  // the drain re-enters the queue and must be captured too.
  std::size_t n = 0;
  for (;;) {
    n += persist_pending();
    if (running_ == 0 && queue_.empty()) return n;
    idle_cv_.wait(lk);
  }
}

void FleetService::shutdown(bool persist) {
  {
    std::unique_lock lk{mu_};
    if (joined_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();  // unblock wait()ers promptly — stop_ ends their wait
  for (auto& t : threads_) t.join();
  std::unique_lock lk{mu_};
  joined_ = true;
  if (persist) persist_pending();
}

std::size_t FleetService::persist_pending() {
  while (queue_.pop()) {
    // Entries drop out of the queue; the jobs_ walk below persists them.
  }
  std::size_t n = 0;
  for (auto& [_, job] : jobs_) {
    if (job->state != JobState::kQueued && job->state != JobState::kPreempted) continue;
    if (persist_job(*job)) {
      job->hold = true;  // no longer queued in this process
      ++n;
    }
  }
  return n;
}

bool FleetService::persist_job(const Job& job) {
  const std::filesystem::path state = opts_.root / "state";
  const std::string stem = "job_" + std::to_string(job.id);
  if (!write_file(state / (stem + ".spec.json"), job.spec.source)) return false;
  return job.ckpt.empty() || write_file(state / (stem + ".ckpt"), job.ckpt);
}

void FleetService::finish_terminal(Job& job) {
  std::error_code ec;
  const std::filesystem::path state = opts_.root / "state";
  const std::string stem = "job_" + std::to_string(job.id);
  std::filesystem::remove(state / (stem + ".spec.json"), ec);
  std::filesystem::remove(state / (stem + ".ckpt"), ec);
  idle_cv_.notify_all();
}

void FleetService::recover_state() {
  const std::filesystem::path state = opts_.root / "state";
  std::error_code ec;
  std::vector<std::filesystem::path> specs;
  for (const auto& entry : std::filesystem::directory_iterator{state, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("job_", 0) == 0 && name.size() > 14 &&
        name.compare(name.size() - 10, 10, ".spec.json") == 0) {
      specs.push_back(entry.path());
    }
  }
  std::sort(specs.begin(), specs.end());  // deterministic re-queue order
  for (const auto& path : specs) {
    const std::string name = path.filename().string();
    const std::uint64_t id =
        std::strtoull(name.substr(4, name.size() - 14).c_str(), nullptr, 10);
    if (id == 0) continue;
    std::string spec_text;
    if (!read_file(path, spec_text)) continue;
    JobSpec spec;
    std::string error;
    if (!parse_job_spec(spec_text, spec, error)) continue;
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = std::move(spec);
    job->fingerprint = job_fingerprint(job->spec);
    std::filesystem::path ckpt_path = path;
    ckpt_path.replace_filename("job_" + std::to_string(id) + ".ckpt");
    if (std::filesystem::exists(ckpt_path, ec) && !ec) {
      if (!read_file(ckpt_path, job->ckpt)) continue;
      job->state = JobState::kPreempted;
      job->last_worker = -2;  // a resume here counts as a migration
    }
    next_id_ = std::max(next_id_, id + 1);
    queue_.push(id, job->spec.priority, /*force=*/true);
    jobs_.emplace(id, std::move(job));
    ++totals_.recovered;
    // The state files stay on disk so a recovered job survives another
    // non-clean exit: finish_terminal() removes them once the job completes,
    // and persist_job() overwrites them on the next clean shutdown.
  }
}

void FleetService::worker_main(int wid) {
  std::unique_lock lk{mu_};
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    const auto id = queue_.pop();
    if (!id) continue;
    const auto it = jobs_.find(*id);
    if (it == jobs_.end()) continue;
    run_job(lk, *it->second, wid);
    idle_cv_.notify_all();
  }
}

void FleetService::run_job(std::unique_lock<std::mutex>& lk, Job& job, int wid) {
  if (job.cancel_requested) {
    job.state = JobState::kCancelled;
    ++totals_.cancelled;
    finish_terminal(job);
    return;
  }
  job.state = JobState::kRunning;
  ++running_;
  if (job.last_worker != -1 && job.last_worker != wid) {
    ++job.migrations;
    ++totals_.migrations;
  }
  job.last_worker = wid;
  const JobSpec spec = job.spec;
  std::vector<std::uint8_t> ckpt = std::move(job.ckpt);
  job.ckpt.clear();
  bool preempt_at_fired = job.preempt_at_fired;
  lk.unlock();

  std::string fail;
  engine::RunMetrics metrics;
  std::string events_text;
  bool completed = false;
  bool preempted = false;
  bool cancelled = false;
  bool hold_after_preempt = false;
  std::vector<std::uint8_t> new_ckpt;
  double reached = 0.0;

  try {
    engine::FleetSim sim{spec.cfg, baselines::registry().make(spec.approach_name, spec.options)};
    sim.enable_events(spec.events);  // before restore: kObs restore needs it
    if (!ckpt.empty()) {
      ByteReader r{ckpt};
      const auto st = sim.restore(r);
      if (st != engine::CkptStatus::kOk) {
        fail = "checkpoint restore failed: " + std::string{engine::to_string(st)};
      }
    }
    const double horizon = spec.cfg.duration_s;
    while (fail.empty()) {
      double target = std::min(sim.time() + opts_.epoch_s, horizon);
      bool at_preempt_point = false;
      if (!preempt_at_fired && spec.preempt_at > sim.time() && spec.preempt_at <= target) {
        target = spec.preempt_at;
        at_preempt_point = true;
      }
      sim.run_until(target);
      reached = sim.time();
      const bool done = reached >= horizon;

      lk.lock();
      job.progress_s = reached;
      const bool want_cancel = job.cancel_requested;
      bool want_preempt = false;
      if (!done && !want_cancel) {
        const auto fp = queue_.front_priority();
        // Priority preemption only matters when every worker is occupied —
        // an idle worker would pick the high-priority job up by itself.
        const bool prio_evict =
            fp.has_value() && *fp > spec.priority && running_ >= threads_.size();
        want_preempt = at_preempt_point || job.preempt_requested || stop_ || prio_evict;
        hold_after_preempt = job.preempt_requested && job.preempt_hold && !stop_;
      }
      lk.unlock();

      if (want_cancel) {
        cancelled = true;
        break;
      }
      if (done) {
        completed = true;
        break;
      }
      if (want_preempt) {
        ByteWriter w;
        sim.save_checkpoint(w);
        new_ckpt = w.take();
        preempted = true;
        if (at_preempt_point) preempt_at_fired = true;
        break;
      }
    }
    if (completed) {
      metrics = sim.finalize();
      if (spec.events) {
        events_text = obs::events_jsonl(sim.events().events(), sim.events().dropped());
      }
    }
  } catch (const std::exception& e) {
    fail = e.what();
  } catch (...) {
    fail = "unknown error";
  }

  if (completed && fail.empty()) {
    JobPayload payload = build_payload(spec, metrics, std::move(events_text));
    const std::filesystem::path dir = opts_.root / "jobs" / std::to_string(job.id);
    const bool io_ok = write_payload(dir, payload);
    if (io_ok && opts_.cache_enabled) cache_.publish(job.fingerprint, payload);
    lk.lock();
    --running_;
    if (io_ok) {
      job.state = JobState::kDone;
      job.payload = std::move(payload);
      job.output_dir = dir.string();
      job.progress_s = spec.cfg.duration_s;
      ++totals_.completed;
    } else {
      job.state = JobState::kFailed;
      job.error = "payload write failed";
      ++totals_.failed;
    }
    finish_terminal(job);
    return;
  }

  lk.lock();
  --running_;
  if (cancelled || job.cancel_requested) {
    job.state = JobState::kCancelled;
    ++totals_.cancelled;
    finish_terminal(job);
    return;
  }
  if (preempted && fail.empty()) {
    job.state = JobState::kPreempted;
    job.ckpt = std::move(new_ckpt);
    job.preempt_at_fired = preempt_at_fired;
    job.preempt_requested = false;
    job.preempt_hold = false;
    job.hold = hold_after_preempt;
    ++job.preemptions;
    ++totals_.preemptions;
    if (!job.hold && !stop_) {
      queue_.push(job.id, job.spec.priority, /*force=*/true);
      work_cv_.notify_one();
    } else if (stop_) {
      job.hold = true;  // persisted by shutdown(persist)
    }
    idle_cv_.notify_all();
    return;
  }
  job.state = JobState::kFailed;
  job.error = fail.empty() ? "internal error" : fail;
  ++totals_.failed;
  finish_terminal(job);
}

}  // namespace lbchat::svc
