// Exporters for the observability sinks.
//
// Three deterministic text artifacts (byte-identical at any thread count for
// the same scenario) and one mixed artifact:
//
//  * events_jsonl   — one JSON object per sim-time event (deterministic)
//  * metrics_json   — a run's metrics snapshot (deterministic)
//  * run_report_*   — per-vehicle accounting table, JSON and CSV
//                     (deterministic)
//  * chrome_trace_json — Chrome trace-event format, loadable in Perfetto /
//        chrome://tracing. Sim-time events render as instants under pid 1
//        ("sim", one track per vehicle); wall-clock spans render as complete
//        events under pid 2 ("wallclock", one track per worker thread). The
//        sim section is deterministic; span timings are not, which is why
//        they live under their own process id.
//
// validate_chrome_trace() is a structural checker over svc::json_parse (the
// repo's one JSON reader) shared by the CI smoke tool and the tests.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace lbchat::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricKind kind);

/// One metric of a snapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  ///< counter total, or histogram observation count
  double value = 0.0;       ///< gauge value, or histogram sum
  std::vector<double> bounds;           ///< histogram upper bounds (empty otherwise)
  std::vector<std::uint64_t> buckets;   ///< bounds.size()+1 entries (last = overflow)
};

/// Metrics sorted by name: a run's (FleetSim::metrics_snapshot) or a fleet
/// service payload's summary. Every value is a function of the simulation,
/// never of wall-clock time or thread scheduling.
struct Snapshot {
  std::vector<MetricValue> metrics;
};

/// One JSON object per line: {"t":..,"kind":"..","a":..,"b":..,"value":..}.
/// A final {"dropped":N} line is appended when the ring overflowed.
[[nodiscard]] std::string events_jsonl(const std::vector<Event>& events, std::uint64_t dropped);

/// {"metrics":[{"name":..,"kind":..,...}]} — snapshot order (name-sorted).
[[nodiscard]] std::string metrics_json(const Snapshot& snap);

/// Chrome trace-event JSON combining sim instants and wall-clock spans.
[[nodiscard]] std::string chrome_trace_json(const std::vector<Event>& events,
                                            const std::vector<Span>& spans);

/// Structural validation: well-formed JSON (svc::json_parse, so nesting
/// deeper than 64 and duplicate keys are errors), a traceEvents array of objects
/// with ph/pid fields, and non-decreasing ts within every (pid, tid) track.
/// Returns "" when valid, else a one-line description of the first problem.
[[nodiscard]] std::string validate_chrome_trace(std::string_view json);

/// Per-vehicle accounting row for the run report.
struct VehicleReport {
  int id = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t chats_started = 0;
  std::uint64_t chats_completed = 0;
  std::uint64_t chats_aborted = 0;
  std::uint64_t model_recv_started = 0;
  std::uint64_t model_recv_completed = 0;
  std::uint64_t frames_rejected = 0;
  double online_seconds = 0.0;
  /// Fraction of model receptions that started and were verified complete.
  double effective_model_receiving_rate = 0.0;
  double first_loss = 0.0;
  double final_loss = 0.0;
};

struct RunReport {
  std::string approach;
  std::uint64_t seed = 0;
  double duration_s = 0.0;
  double final_mean_loss = 0.0;
  std::vector<VehicleReport> vehicles;
};

[[nodiscard]] std::string run_report_json(const RunReport& report);
/// Header row + one row per vehicle.
[[nodiscard]] std::string run_report_csv(const RunReport& report);

/// Shortest-round-trip, locale-independent double formatting shared by every
/// exporter (std::to_chars), so deterministic values export deterministically.
[[nodiscard]] std::string format_double(double v);

}  // namespace lbchat::obs
