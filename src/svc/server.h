// FleetService: the long-running fleet-evaluation job server (DESIGN.md §13).
//
// A bounded priority JobQueue feeds a pool of worker threads. Each worker
// drives one job at a time, an engine::FleetSim run advanced to the spec's
// duration in checkpoint epochs (`epoch_s` of sim time per slice, through
// FleetSim::run_until); between slices it honours cancellation,
// explicit preemption, the spec's deterministic `preempt_at` test hook,
// priority preemption (a higher-priority job waiting in the queue evicts a
// lower-priority running one), and shutdown. A preempted job's state is its
// checkpoint bytes — it re-enters the queue and resumes on whichever worker
// pops it next, on this process or (via the persisted state directory) a
// future one. By the engine's determinism contract the served payload is
// byte-identical however the run was sliced or migrated.
//
// Results: payloads (svc/result.h) are written to <root>/jobs/<id>/ and
// published to the fingerprint-keyed ResultCache at <root>/cache/, so an
// identical spec submitted again is served without running.
//
// Events: a job with `events` records them on its own run (its ring travels
// through the checkpoint's kObs section across preemptions), so events jobs
// run concurrently with each other and with ordinary jobs.
//
// Shutdown: drain() stops intake, persists every queued/preempted job (spec +
// checkpoint) to <root>/state/, and waits for in-flight jobs to finish;
// shutdown() additionally checkpoints in-flight jobs at the next slice
// boundary and persists them too. A new FleetService over the same root
// re-queues the persisted jobs and resumes them from their checkpoints.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/job.h"
#include "svc/queue.h"
#include "svc/result.h"
#include "svc/result_cache.h"

namespace lbchat::svc {

struct ServiceOptions {
  int workers = 2;
  /// Sim seconds per run slice — the preemption (and checkpoint) granularity.
  double epoch_s = 60.0;
  std::size_t queue_capacity = 64;
  /// Jobs/cache/state all live under this directory (created if needed).
  std::filesystem::path root{".lbchat_svc"};
  /// Serve repeat submissions from the fingerprint result cache.
  bool cache_enabled = true;
};

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kPreempted,
  kDone,
  kCancelled,
  kFailed,
};

[[nodiscard]] std::string_view to_string(JobState s);

/// Point-in-time public view of a job.
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::string name;
  std::string approach;
  int priority = 0;
  std::uint64_t fingerprint = 0;
  double progress_s = 0.0;  ///< sim time reached
  double horizon_s = 0.0;
  bool events = false;
  bool cached = false;  ///< result served from the cache, no run
  bool held = false;    ///< preempted with hold (not queued for resume)
  int preemptions = 0;
  int migrations = 0;  ///< resumes on a different worker (incl. restarts)
  std::string error;       ///< failed jobs
  std::string output_dir;  ///< done jobs
  /// ckpt_info_json of the pending checkpoint, "" unless preempted.
  std::string checkpoint_json;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< runs that actually executed to the horizon
  std::uint64_t cache_hits = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t recovered = 0;  ///< jobs re-queued from the state directory
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t queue_capacity = 0;
  int workers = 0;
  bool draining = false;
};

class FleetService {
 public:
  explicit FleetService(ServiceOptions opts);
  /// Equivalent to shutdown(true) when not already shut down.
  ~FleetService();

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Parse + enqueue a job spec. Returns the job id, or 0 with `error` set
  /// ("queue_full" under backpressure, "draining" after drain()).
  std::uint64_t submit(std::string_view spec_text, std::string& error);

  [[nodiscard]] std::optional<JobStatus> status(std::uint64_t id);
  [[nodiscard]] std::vector<JobStatus> jobs();
  [[nodiscard]] ServiceStats stats();

  /// Copy the finished payload; false with `error` when unknown/not done.
  bool result(std::uint64_t id, JobPayload& out, std::string& error);

  /// Cancel a queued/preempted job now, or a running one at its next slice
  /// boundary. False when unknown or already terminal.
  bool cancel(std::uint64_t id);

  /// Checkpoint a running job at its next slice boundary; re-queue it unless
  /// `hold`. Also accepts a queued job (hold only: pulls it from the queue).
  bool preempt(std::uint64_t id, bool hold);

  /// Re-queue a held preempted job.
  bool release(std::uint64_t id);

  /// Block until `id` reaches a terminal state, the service stops, or
  /// `timeout_s` elapses (negative: no timeout). False only when the id is
  /// unknown; otherwise `out` holds the job's status at return — callers
  /// needing a terminal state must check `out.state` and re-poll.
  bool wait(std::uint64_t id, JobStatus& out, double timeout_s = -1.0);

  /// Stop intake, persist queued/preempted jobs to the state directory, and
  /// wait for in-flight jobs to finish. Returns persisted-job count.
  std::size_t drain();

  /// Stop workers (in-flight jobs checkpoint at the next slice boundary) and
  /// join. With `persist`, surviving non-terminal jobs are written to the
  /// state directory for the next FleetService over this root to resume.
  void shutdown(bool persist);

 private:
  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    std::uint64_t fingerprint = 0;
    JobState state = JobState::kQueued;
    bool cached = false;
    bool hold = false;
    bool cancel_requested = false;
    bool preempt_requested = false;
    bool preempt_hold = false;
    bool preempt_at_fired = false;
    int last_worker = -1;  ///< -1 never ran, -2 recovered from disk
    int preemptions = 0;
    int migrations = 0;
    double progress_s = 0.0;
    std::vector<std::uint8_t> ckpt;
    JobPayload payload;
    std::string error;
    std::string output_dir;
  };

  void worker_main(int wid);
  /// Runs `job` until done/preempted/cancelled. Entered and exited with
  /// `lk` (on mu_) held; unlocks around simulation work.
  void run_job(std::unique_lock<std::mutex>& lk, Job& job, int wid);
  void finish_terminal(Job& job);  ///< terminal bookkeeping, mu_ held
  [[nodiscard]] JobStatus status_of(const Job& job) const;  ///< mu_ held
  bool persist_job(const Job& job);  ///< mu_ held (shutdown path)
  void recover_state();              ///< ctor only
  std::size_t persist_pending();     ///< mu_ held; queued+preempted -> disk

  ServiceOptions opts_;
  ResultCache cache_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< queue/stop changes
  std::condition_variable idle_cv_;  ///< job state changes (wait/drain)
  JobQueue queue_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  bool stop_ = false;
  bool draining_ = false;
  std::size_t running_ = 0;
  ServiceStats totals_;  ///< monotonic counters only (snapshot fills the rest)

  std::vector<std::thread> threads_;
  bool joined_ = false;
};

}  // namespace lbchat::svc
