// Fixed-size worker pool with a statically-chunked parallel_for.
//
// Built for the fleet engine's embarrassingly-parallel per-vehicle loops:
// each index owns disjoint state (its VehicleNode, Rng, ParamStore), so the
// loop body runs bit-identically no matter which thread executes it, and the
// pool only has to hand out contiguous index chunks. The chunks are fixed by
// the range and the part count alone: of P = min(size(), n) parts over n
// indices, part p is [begin + n·p/P, begin + n·(p+1)/P). Which lane runs a
// part never moves a boundary, so per-chunk state a body keeps (a
// thread_local scratch batch) sees the same indices, and reductions over
// index-addressed slots keep their bits. A pool sized 1 is exactly a
// sequential loop.
//
// Claim and wake protocol (DESIGN.md §7). A job is published as one atomic
// claim word that packs the job's generation, its part count and its next
// unclaimed part. Every lane, the caller included, takes a part by
// compare-and-swap on that word, so the caller runs the parts no worker has
// taken yet instead of waiting for a sleeping worker to wake; a job whose
// parts all go to the caller costs about what the inline loop costs. The
// generation in the word means a worker that read a finished job's word can
// never claim a part of the next one, whatever the two jobs' widths. A lane
// reads the job's range and body only after its claim succeeded, and the
// job cannot end while one of its parts is unfinished, so that read never
// races with the next job's set-up.
//
// Between jobs a worker spins on the word for a bounded, clock-limited time
// (kSpinNs, 100 µs) before it sleeps on a condition variable, and the
// caller's join spins the same time before it sleeps. Back-to-back jobs,
// such as the per-frame renders of the collection phase, therefore hand
// over without a trip through the kernel. Every spin round yields the CPU,
// so a worker the kernel placed on the caller's CPU does not take the
// caller's time while it waits.
//
// parallel_for blocks until every index has run and rethrows the first
// exception a lane raised. It is safe to nest: a parallel_for issued while
// the pool is already running one (from inside a loop body on any lane, or
// from an unrelated thread) runs its whole range inline on the calling
// thread. So a pooled sweep called from a per-vehicle task, or from a
// strategy's local_train lane, degrades to the sequential loop instead of
// deadlocking.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lbchat {

class ThreadPool {
 public:
  /// Most lanes a pool may have; larger requests are rejected.
  static constexpr int kMaxLanes = 256;

  /// `num_threads` counts total lanes including the caller: 0 picks the
  /// hardware concurrency (at most kMaxLanes), 1 means sequential (no
  /// workers spawned), n > 1 spawns n-1 workers. Throws
  /// std::invalid_argument above kMaxLanes.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (spawned workers + the calling thread).
  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Invoke fn(i) exactly once for every i in [begin, end), split into at
  /// most size() contiguous chunks. Blocks until all indices ran; rethrows
  /// the first exception thrown by any lane (remaining indices of other
  /// chunks still run). Runs inline, in index order, while another
  /// parallel_for holds the pool.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t)>& fn);

  /// Map a config knob to a lane count: <= 0 -> hardware concurrency
  /// (at least 1, at most kMaxLanes), otherwise the requested value.
  [[nodiscard]] static int resolve_num_threads(int requested);

 private:
  /// How long an idle worker, or a joining caller, spins before it sleeps.
  static constexpr std::int64_t kSpinNs = 100'000;

  void worker_loop();
  /// Claim and run parts of the job in `word` (a claim-word value) until
  /// none is left unclaimed; returns the last claim word seen.
  std::uint64_t run_parts(std::uint64_t word);
  /// Run chunk `part` of the current job; never throws (stores the error).
  void run_chunk(int part);
  /// Spin, then sleep, until the claim word differs from `seen` or the pool
  /// stops; false when it stops.
  bool wait_for_job(std::uint64_t seen);

  std::vector<std::thread> workers_;
  // Current job: written by the caller before it publishes the claim word,
  // read by a lane only after it claimed a part, so never while it changes.
  const std::function<void(std::int64_t)>* fn_ = nullptr;
  std::int64_t begin_ = 0;
  std::int64_t end_ = 0;
  int parts_ = 0;
  std::uint32_t generation_ = 0;  ///< caller-side job counter
  /// Generation (bits 32-63) | part count (16-31) | next unclaimed part (0-15).
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<int> pending_parts_{0};  ///< claimed or not, not yet finished
  std::atomic<bool> busy_{false};      ///< a parallel_for holds the pool
  std::atomic<bool> stop_{false};
  std::atomic<int> sleeping_workers_{0};
  std::atomic<bool> caller_sleeping_{false};
  std::mutex mutex_;  ///< guards the sleeps and first_error_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::exception_ptr first_error_;
};

/// pool->parallel_for(begin, end, fn), or the plain sequential loop when
/// `pool` is null — the form pooled sweeps take a nullable lane pool in.
void parallel_for(ThreadPool* pool, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn);

/// Run two independent tasks, on two lanes when `pool` has them; sweeps
/// nested inside either task run inline. Rethrows the first exception.
void parallel_invoke(ThreadPool* pool, const std::function<void()>& first,
                     const std::function<void()>& second);

}  // namespace lbchat
