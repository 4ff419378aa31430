#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace lbchat {

namespace {

constexpr std::uint64_t pack_claim(std::uint32_t generation, int parts, int next) {
  return (static_cast<std::uint64_t>(generation) << 32) |
         (static_cast<std::uint64_t>(parts) << 16) | static_cast<std::uint64_t>(next);
}
constexpr int claim_parts(std::uint64_t word) { return static_cast<int>((word >> 16) & 0xFFFF); }
constexpr int claim_next(std::uint64_t word) { return static_cast<int>(word & 0xFFFF); }

/// Spin until `done()` holds or `spin_ns` of wall time pass; true when
/// `done()` held. Each round yields the CPU: the kernel may run a worker on
/// the caller's CPU (a new thread starts there, and a woken one may stay),
/// and a spinner sharing a CPU must let the thread it waits for run, not
/// burn its time slice. On a CPU of its own the yield returns at once.
template <class Done>
bool spin_until(Done&& done, std::int64_t spin_ns) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds{spin_ns};
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

int ThreadPool::resolve_num_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? std::min(static_cast<int>(hw), kMaxLanes) : 1;
}

ThreadPool::ThreadPool(int num_threads) {
  const int lanes = resolve_num_threads(num_threads);
  if (lanes > kMaxLanes) {
    throw std::invalid_argument{"ThreadPool: at most " + std::to_string(kMaxLanes) + " lanes"};
  }
  workers_.reserve(static_cast<std::size_t>(lanes - 1));
  for (int i = 1; i < lanes; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  // Taking the lock orders the store before any sleeper's predicate check.
  { std::lock_guard<std::mutex> lk{mutex_}; }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_chunk(int part) {
  // The job fields are stable while this part is unfinished.
  const std::int64_t n = end_ - begin_;
  const std::int64_t lo = begin_ + n * part / parts_;
  const std::int64_t hi = begin_ + n * (part + 1) / parts_;
  try {
    for (std::int64_t i = lo; i < hi; ++i) (*fn_)(i);
  } catch (...) {
    std::lock_guard<std::mutex> lk{mutex_};
    if (!first_error_) first_error_ = std::current_exception();
  }
}

std::uint64_t ThreadPool::run_parts(std::uint64_t word) {
  while (claim_next(word) < claim_parts(word)) {
    // A claim succeeds only on the word it read, generation included, so it
    // takes a part of the job that word describes and no other. A failed
    // compare-and-swap reloads `word`.
    if (!claim_.compare_exchange_weak(word, word + 1, std::memory_order_acquire)) continue;
    run_chunk(claim_next(word));
    if (pending_parts_.fetch_sub(1) == 1 && caller_sleeping_.load()) {
      { std::lock_guard<std::mutex> lk{mutex_}; }
      done_cv_.notify_one();
    }
    word = claim_.load(std::memory_order_acquire);
  }
  return word;
}

bool ThreadPool::wait_for_job(std::uint64_t seen) {
  const auto ready = [&] {
    return stop_.load() || claim_.load(std::memory_order_relaxed) != seen;
  };
  if (!spin_until(ready, kSpinNs)) {
    std::unique_lock<std::mutex> lk{mutex_};
    // The caller reads the sleeper count after it publishes a job; this
    // increment comes before the predicate reads the claim word, so one of
    // the two sees the other and no wake-up is lost.
    sleeping_workers_.fetch_add(1);
    work_cv_.wait(lk, [&] { return stop_.load() || claim_.load() != seen; });
    sleeping_workers_.fetch_sub(1);
  }
  return !stop_.load();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = claim_.load(std::memory_order_acquire);
  while (wait_for_job(seen)) seen = run_parts(claim_.load(std::memory_order_acquire));
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              const std::function<void(std::int64_t)>& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const int parts = static_cast<int>(std::min<std::int64_t>(size(), n));
  if (workers_.empty() || parts <= 1 || busy_.exchange(true, std::memory_order_acquire)) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  fn_ = &fn;
  begin_ = begin;
  end_ = end;
  parts_ = parts;
  pending_parts_.store(parts, std::memory_order_relaxed);
  const std::uint64_t word = pack_claim(++generation_, parts, 0);
  claim_.store(word);
  if (sleeping_workers_.load() > 0) {
    { std::lock_guard<std::mutex> lk{mutex_}; }
    work_cv_.notify_all();
  }
  // The caller takes every part no worker has claimed yet, then joins.
  run_parts(word);
  const auto all_done = [&] { return pending_parts_.load() == 0; };
  if (!spin_until(all_done, kSpinNs)) {
    std::unique_lock<std::mutex> lk{mutex_};
    caller_sleeping_.store(true);
    done_cv_.wait(lk, all_done);
    caller_sleeping_.store(false);
  }
  fn_ = nullptr;
  std::exception_ptr err = std::exchange(first_error_, nullptr);
  busy_.store(false, std::memory_order_release);
  if (err) std::rethrow_exception(err);
}

void parallel_for(ThreadPool* pool, std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn) {
  if (pool != nullptr) return pool->parallel_for(begin, end, fn);
  for (std::int64_t i = begin; i < end; ++i) fn(i);
}

void parallel_invoke(ThreadPool* pool, const std::function<void()>& first,
                     const std::function<void()>& second) {
  parallel_for(pool, 0, 2, [&](std::int64_t i) { i == 0 ? first() : second(); });
}

}  // namespace lbchat
