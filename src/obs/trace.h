// Sim-time event tracing and wall-clock spans.
//
// Two strictly separated record kinds:
//
//  * Events — structured, sim-time-stamped protocol/fault occurrences
//    (chat start/abort/complete, frame reject, burst begin/end, churn
//    offline/online, backoff extension, aggregation, coreset exchange, ...).
//    Each run records its own: FleetSim owns an EventTracer and a per-run
//    switch (FleetSim::enable_events, off by default). Events are emitted
//    from the engine's single-threaded tick path (or from strategy
//    callbacks, which run on it), so their order and content are a pure
//    function of the scenario: the JSONL export of an enabled run is
//    byte-identical at any thread count, and runs in one process never see
//    each other's events. Stored in a bounded ring buffer with drop-oldest
//    semantics and an explicit dropped counter (no silent truncation).
//
//  * Spans — RAII wall-clock timings around hot paths (conv/GEMM, local
//    training, evaluation, the wireless tick, frame encode/decode). These
//    are inherently nondeterministic, so they live in per-thread ring
//    buffers and are exported segregated from the sim-time sections (their
//    own process track in the Chrome trace; never in the JSONL/metrics
//    exports).
//
// Spans are gated by one process-wide flag (a relaxed atomic): with it off —
// the default — a span reduces to one load + branch. Neither switch ever
// changes simulation results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace lbchat::obs {

enum class EventKind : std::uint8_t {
  kChatStart = 0,      ///< pairwise session opened (a, b = the two vehicles)
  kChatComplete,       ///< session drained gracefully (value = duration_s)
  kChatAbort,          ///< range loss / deadline / churn (value = 1 if blackout)
  kModelSend,          ///< model transfer queued (a = sender, b = receiver, value = wire bytes)
  kFrameReject,        ///< envelope/payload verification failed (a = receiver, value = 1 if model)
  kCoresetExchange,    ///< coreset absorbed (a = receiver, b = sender, value = |C|)
  kAggregate,          ///< model merged (a = receiver, b = sender or -1, value = peer weight)
  kBurstBegin,         ///< interference burst spawned (value = end time)
  kBurstEnd,           ///< interference burst expired
  kChurnOffline,       ///< vehicle dropped out (a = vehicle, value = rejoin time)
  kChurnOnline,        ///< vehicle rejoined (a = vehicle)
  kBackoffExtend,      ///< pair cooldown extended (a, b, value = consecutive failures)
  kRound,              ///< synchronization round fired (value = participants)
  kEval,               ///< fleet evaluation point (value = mean held-out loss)
  kByzantinePayload,   ///< Byzantine sender mutated a payload (a = sender, b = receiver, value = stage kind)
  kStragglerSkip,      ///< straggler skipped a train interval (a = vehicle)
};

[[nodiscard]] std::string_view to_string(EventKind kind);

/// One sim-time event. POD; every field is deterministic.
struct Event {
  double t = 0.0;  ///< simulated seconds
  EventKind kind = EventKind::kChatStart;
  std::int32_t a = -1;
  std::int32_t b = -1;
  double value = 0.0;
};

/// Bounded drop-oldest ring of sim-time events. One run's log: written and
/// read from the run's tick thread only, so it takes no lock.
class EventTracer {
 public:
  void emit(const Event& e);
  /// Events in emission order (oldest first).
  [[nodiscard]] std::vector<Event> events() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// Applies to subsequently emitted events; existing content is kept.
  void set_capacity(std::size_t cap);
  void clear();
  /// Replace the ring content with `events` (oldest first) and the dropped
  /// counter with `dropped`, as if they had been emitted in order — used by
  /// checkpoint restore. If `events` exceeds the capacity, only the newest
  /// `cap` are kept and the excess is added to `dropped`.
  void restore(std::vector<Event> events, std::uint64_t dropped);

 private:
  std::vector<Event> ring_;
  std::size_t cap_ = 1u << 18;
  std::size_t next_ = 0;  ///< overwrite position once the ring is full
  std::uint64_t dropped_ = 0;
};

/// One closed wall-clock span.
struct Span {
  const char* name = nullptr;  ///< must be a string literal
  std::uint64_t t0_ns = 0;     ///< monotonic clock
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< dense per-thread track index (registration order)
};

/// Per-thread drop-oldest rings of wall-clock spans.
class SpanStore {
 public:
  void record(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns);
  /// All spans, sorted by (tid, t0) — i.e. time-ordered within each track.
  /// Call with worker threads quiescent.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// Applies to buffers of threads that first record after the call.
  void set_capacity_per_thread(std::size_t cap);
  void clear();

 private:
  struct Buffer;
  Buffer& local_buffer();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::size_t cap_ = 1u << 16;
  std::uint64_t epoch_ = 1;  ///< bumped by clear() so cached buffers re-register
};

// --- process-wide span switch (relaxed; checked on every span) ---
[[nodiscard]] bool spans_enabled();
void set_spans_enabled(bool on);

/// Monotonic wall clock for spans.
[[nodiscard]] std::uint64_t monotonic_ns();

/// The process-wide span store.
[[nodiscard]] SpanStore& spans();

/// What LBCHAT_TRACE asks a binary to collect.
struct TraceEnv {
  bool events = false;  ///< the caller enables events on each run it exports
  bool spans = false;
};

/// Read LBCHAT_TRACE and switch spans on process-wide when it asks for them:
///   unset / "" / "0" / "off" -> nothing (the default)
///   "1" / "on" / "all"       -> events + spans
///   "events"                 -> sim-time events only (deterministic exports)
///   "spans"                  -> wall-clock spans only
/// Events are per run, so the caller passes `events` on to
/// FleetSim::enable_events. Throws std::invalid_argument, naming the variable
/// and the accepted values, for any other value.
[[nodiscard]] TraceEnv init_from_env();

/// RAII wall-clock span; reads the clock only when span tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(spans_enabled() ? name : nullptr) {
    if (name_ != nullptr) t0_ = monotonic_ns();
  }
  ~ScopedSpan() {
    if (name_ != nullptr) spans().record(name_, t0_, monotonic_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_ = 0;
};

#define LBCHAT_OBS_SPAN_CONCAT2(a, b) a##b
#define LBCHAT_OBS_SPAN_CONCAT(a, b) LBCHAT_OBS_SPAN_CONCAT2(a, b)
/// Times the enclosing scope under `name` (a string literal) when span
/// tracing is on; a relaxed load + branch otherwise.
#define LBCHAT_OBS_SPAN(name) \
  ::lbchat::obs::ScopedSpan LBCHAT_OBS_SPAN_CONCAT(lbchat_obs_span_, __LINE__) { name }

}  // namespace lbchat::obs
