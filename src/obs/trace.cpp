#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace lbchat::obs {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kChatStart: return "chat_start";
    case EventKind::kChatComplete: return "chat_complete";
    case EventKind::kChatAbort: return "chat_abort";
    case EventKind::kModelSend: return "model_send";
    case EventKind::kFrameReject: return "frame_reject";
    case EventKind::kCoresetExchange: return "coreset_exchange";
    case EventKind::kAggregate: return "aggregate";
    case EventKind::kBurstBegin: return "burst_begin";
    case EventKind::kBurstEnd: return "burst_end";
    case EventKind::kChurnOffline: return "churn_offline";
    case EventKind::kChurnOnline: return "churn_online";
    case EventKind::kBackoffExtend: return "backoff_extend";
    case EventKind::kRound: return "round";
    case EventKind::kEval: return "eval";
    case EventKind::kByzantinePayload: return "byzantine_payload";
    case EventKind::kStragglerSkip: return "straggler_skip";
  }
  return "?";
}

void EventTracer::emit(const Event& e) {
  if (ring_.size() < cap_) {
    ring_.push_back(e);
    return;
  }
  ring_[next_] = e;
  next_ = (next_ + 1) % ring_.size();
  ++dropped_;
}

std::vector<Event> EventTracer::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  // next_ is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t EventTracer::dropped() const {
  return dropped_;
}

void EventTracer::set_capacity(std::size_t cap) {
  cap_ = std::max<std::size_t>(cap, 1);
}

void EventTracer::clear() {
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
}

void EventTracer::restore(std::vector<Event> events, std::uint64_t dropped) {
  if (events.size() > cap_) {
    const std::size_t excess = events.size() - cap_;
    dropped += excess;
    events.erase(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(excess));
  }
  ring_ = std::move(events);
  next_ = 0;  // the ring is stored oldest-first, so overwriting starts at 0
  dropped_ = dropped;
}

/// One thread's span ring. Only the owning thread writes records; spans()
/// and clear() read/reset it under the store mutex with workers quiescent.
struct SpanStore::Buffer {
  explicit Buffer(std::uint32_t tid, std::size_t cap) : tid_(tid), cap_(cap) {}

  void record(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns) {
    const Span s{name, t0_ns, t1_ns - t0_ns, tid_};
    if (ring_.size() < cap_) {
      ring_.push_back(s);
      return;
    }
    ring_[next_] = s;
    next_ = (next_ + 1) % ring_.size();
    ++dropped_;
  }

  std::uint32_t tid_;
  std::size_t cap_;
  std::vector<Span> ring_;
  std::size_t next_ = 0;
  std::uint64_t dropped_ = 0;
};

SpanStore::Buffer& SpanStore::local_buffer() {
  // Cache keyed on (store, epoch) so distinct stores — and a store whose
  // clear() dropped the buffers — never hand back a stale pointer.
  thread_local const SpanStore* cached_store = nullptr;
  thread_local std::uint64_t cached_epoch = 0;
  thread_local Buffer* cached = nullptr;
  {
    std::lock_guard<std::mutex> lock{mu_};
    if (cached_store != this || cached_epoch != epoch_) {
      buffers_.push_back(
          std::make_unique<Buffer>(static_cast<std::uint32_t>(buffers_.size()), cap_));
      cached = buffers_.back().get();
      cached_store = this;
      cached_epoch = epoch_;
    }
  }
  return *cached;
}

void SpanStore::record(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns) {
  local_buffer().record(name, t0_ns, t1_ns);
}

std::vector<Span> SpanStore::spans() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::vector<Span> out;
  for (const auto& buf : buffers_) {
    for (std::size_t i = 0; i < buf->ring_.size(); ++i) {
      out.push_back(buf->ring_[(buf->next_ + i) % buf->ring_.size()]);
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.t0_ns < b.t0_ns;
  });
  return out;
}

std::uint64_t SpanStore::dropped() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) total += buf->dropped_;
  return total;
}

void SpanStore::set_capacity_per_thread(std::size_t cap) {
  std::lock_guard<std::mutex> lock{mu_};
  cap_ = std::max<std::size_t>(cap, 1);
}

void SpanStore::clear() {
  std::lock_guard<std::mutex> lock{mu_};
  buffers_.clear();
  ++epoch_;  // invalidates every thread's cached Buffer*
}

namespace {
std::atomic<bool> g_spans_enabled{false};
}  // namespace

bool spans_enabled() { return g_spans_enabled.load(std::memory_order_relaxed); }
void set_spans_enabled(bool on) { g_spans_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

SpanStore& spans() {
  static SpanStore s;
  return s;
}

TraceEnv init_from_env() {
  const char* env = std::getenv("LBCHAT_TRACE");
  const std::string_view v = env != nullptr ? std::string_view{env} : std::string_view{};
  TraceEnv out;
  if (v == "1" || v == "on" || v == "all") {
    out = {true, true};
  } else if (v == "events") {
    out.events = true;
  } else if (v == "spans") {
    out.spans = true;
  } else if (!v.empty() && v != "0" && v != "off") {
    throw std::invalid_argument{"LBCHAT_TRACE=" + std::string{v} +
                                ": must be unset or one of \"\", 0, off, 1, on, all, "
                                "events, spans"};
  }
  set_spans_enabled(out.spans);
  return out;
}

}  // namespace lbchat::obs
