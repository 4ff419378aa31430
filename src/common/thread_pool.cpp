#include "common/thread_pool.h"

#include <algorithm>

namespace lbchat {

int ThreadPool::resolve_num_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int num_threads) {
  const int lanes = resolve_num_threads(num_threads);
  workers_.reserve(static_cast<std::size_t>(lanes - 1));
  for (int i = 1; i < lanes; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk{mutex_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_chunk(int part) {
  // Job fields are stable while pending_parts_ > 0, so reading them without
  // the lock here is safe.
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

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk{mutex_};
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || (generation_ != seen && next_part_ < parts_); });
    if (stop_) return;
    seen = generation_;
    while (next_part_ < parts_) {
      const int part = next_part_++;
      lk.unlock();
      run_chunk(part);
      lk.lock();
      if (--pending_parts_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              const std::function<void(std::int64_t)>& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const int parts = static_cast<int>(std::min<std::int64_t>(size(), n));
  const auto run_inline = [&] {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
  };
  if (workers_.empty() || parts <= 1) return run_inline();
  {
    std::unique_lock<std::mutex> lk{mutex_};
    if (busy_) {
      lk.unlock();
      return run_inline();
    }
    busy_ = true;
    fn_ = &fn;
    begin_ = begin;
    end_ = end;
    parts_ = parts;
    next_part_ = 1;  // the caller takes chunk 0
    pending_parts_ = parts;
    first_error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  run_chunk(0);
  std::unique_lock<std::mutex> lk{mutex_};
  --pending_parts_;
  done_cv_.wait(lk, [&] { return pending_parts_ == 0; });
  fn_ = nullptr;
  parts_ = 0;  // stragglers waking late see no work
  busy_ = false;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(err);
  }
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
