// Fixed-size worker pool with a statically-chunked parallel_for.
//
// Built for the fleet engine's embarrassingly-parallel per-vehicle loops:
// each index owns disjoint state (its VehicleNode, Rng, ParamStore), so the
// loop body runs bit-identically no matter which thread executes it, and the
// pool only has to hand out contiguous index chunks. The calling thread
// participates as lane 0, so a pool sized 1 is exactly a sequential loop and
// a pool with zero workers degrades gracefully to inline execution.
//
// parallel_for blocks until every index has run and rethrows the first
// exception a lane raised. It is safe to nest: a parallel_for issued while
// the pool is already running one (from inside a loop body on any lane, or
// from an unrelated thread) runs its whole range inline on the calling
// thread. So a pooled sweep called from a per-vehicle task, or from a
// strategy's local_train lane, degrades to the sequential loop instead of
// deadlocking.
#pragma once

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
  /// `num_threads` counts total lanes including the caller: 0 picks the
  /// hardware concurrency, 1 means sequential (no workers spawned), n > 1
  /// spawns n-1 workers.
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
  /// (at least 1), otherwise the requested value.
  [[nodiscard]] static int resolve_num_threads(int requested);

 private:
  void worker_loop();
  /// Run chunk `part` of the current job; never throws (stores the error).
  void run_chunk(int part);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Current job (valid while pending_parts_ > 0).
  const std::function<void(std::int64_t)>* fn_ = nullptr;
  std::int64_t begin_ = 0;
  std::int64_t end_ = 0;
  int parts_ = 0;
  int next_part_ = 0;
  int pending_parts_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr first_error_;
  bool busy_ = false;  ///< a parallel_for holds the workers
  bool stop_ = false;
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
