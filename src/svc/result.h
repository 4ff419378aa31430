// Job result payloads: the deterministic artifact set a finished job serves.
//
//   metrics.json   — run summary counters/gauges through obs::metrics_json
//   report.json    — per-vehicle run report (obs::run_report_json)
//   events.jsonl   — sim-time event log, only when the spec asked for events
//   manifest.json  — header + loss curve + file list; written LAST, so its
//                    presence marks a complete payload (result_cache.h)
//
// Every byte derives from the simulation through the shared deterministic
// formatters (obs::format_double), so payloads are byte-identical across
// {cold run, cache hit, preempted + migrated run} and any worker count —
// the property tests/svc_test.cpp pins.
#pragma once

#include <filesystem>
#include <string>

#include "engine/metrics.h"
#include "svc/job.h"

namespace lbchat::svc {

struct JobPayload {
  std::string metrics_json;
  std::string report_json;
  std::string events_jsonl;  ///< empty unless the spec requested events
  std::string manifest_json;
};

/// Assemble the payload for a finished run. `events_jsonl` is the
/// pre-rendered event log ("" for a non-events job).
[[nodiscard]] JobPayload build_payload(const JobSpec& spec, const engine::RunMetrics& metrics,
                                       std::string events_jsonl);

/// Write the payload into `dir` (created if needed), manifest.json last.
/// Returns false on any I/O failure.
[[nodiscard]] bool write_payload(const std::filesystem::path& dir, const JobPayload& payload);

/// Read a payload back from `dir`. Returns false unless manifest.json parses
/// and every file in its "files" array is present and readable.
[[nodiscard]] bool read_payload(const std::filesystem::path& dir, JobPayload& out);

}  // namespace lbchat::svc
