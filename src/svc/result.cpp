#include "svc/result.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/file_io.h"
#include "engine/report.h"
#include "obs/export.h"
#include "svc/json.h"

namespace lbchat::svc {
namespace {

void add_counter(obs::Snapshot& snap, std::string name, std::uint64_t count) {
  obs::MetricValue m;
  m.name = std::move(name);
  m.kind = obs::MetricKind::kCounter;
  m.count = count;
  snap.metrics.push_back(std::move(m));
}

void add_gauge(obs::Snapshot& snap, std::string name, double value) {
  obs::MetricValue m;
  m.name = std::move(name);
  m.kind = obs::MetricKind::kGauge;
  m.value = value;
  snap.metrics.push_back(std::move(m));
}

/// The run-summary snapshot: headline RunMetrics totals under a "run."
/// prefix, rendered through the same exporter as live registry snapshots.
obs::Snapshot summary_snapshot(const engine::RunMetrics& m) {
  obs::Snapshot snap;
  const engine::TransferStats& t = m.transfers;
  add_counter(snap, "run.backoff_retries", static_cast<std::uint64_t>(t.backoff_retries));
  add_counter(snap, "run.bytes_delivered", t.bytes_delivered);
  add_counter(snap, "run.byzantine_payloads_sent",
              static_cast<std::uint64_t>(t.byzantine_payloads_sent));
  add_counter(snap, "run.coreset_sends_completed",
              static_cast<std::uint64_t>(t.coreset_sends_completed));
  add_counter(snap, "run.coreset_sends_started",
              static_cast<std::uint64_t>(t.coreset_sends_started));
  add_counter(snap, "run.frames_rejected", static_cast<std::uint64_t>(t.frames_rejected));
  add_counter(snap, "run.frames_rejected_invalid",
              static_cast<std::uint64_t>(t.frames_rejected_invalid));
  add_counter(snap, "run.model_frames_rejected",
              static_cast<std::uint64_t>(t.model_frames_rejected));
  add_counter(snap, "run.model_sends_completed",
              static_cast<std::uint64_t>(t.model_sends_completed));
  add_counter(snap, "run.model_sends_started",
              static_cast<std::uint64_t>(t.model_sends_started));
  add_counter(snap, "run.sessions_aborted", static_cast<std::uint64_t>(t.sessions_aborted));
  add_counter(snap, "run.sessions_lost_to_blackout",
              static_cast<std::uint64_t>(t.sessions_lost_to_blackout));
  add_counter(snap, "run.sessions_started", static_cast<std::uint64_t>(t.sessions_started));
  add_counter(snap, "run.straggler_train_skips",
              static_cast<std::uint64_t>(t.straggler_train_skips));
  add_counter(snap, "run.train_steps", static_cast<std::uint64_t>(m.train_steps));
  add_gauge(snap, "run.attacker_weight_share", t.attacker_weight_share());
  add_gauge(snap, "run.effective_model_receiving_rate", t.effective_model_receiving_rate());
  add_gauge(snap, "run.final_mean_loss",
            m.loss_curve.values.empty() ? 0.0 : m.loss_curve.values.back());
  add_gauge(snap, "run.model_receiving_rate", t.model_receiving_rate());
  add_gauge(snap, "run.offline_vehicle_seconds", t.offline_vehicle_seconds);
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const obs::MetricValue& a, const obs::MetricValue& b) { return a.name < b.name; });
  return snap;
}

void append_curve(std::string& out, const engine::RunMetrics& m) {
  out += "\"loss_curve\":{\"times\":[";
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    if (i != 0) out += ',';
    out += obs::format_double(m.loss_curve.times[i]);
  }
  out += "],\"values\":[";
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    if (i != 0) out += ',';
    out += obs::format_double(m.loss_curve.values[i]);
  }
  out += "]}";
}

}  // namespace

JobPayload build_payload(const JobSpec& spec, const engine::RunMetrics& metrics,
                         std::string events_jsonl) {
  JobPayload p;
  p.metrics_json = obs::metrics_json(summary_snapshot(metrics));
  p.report_json =
      obs::run_report_json(engine::build_run_report(spec.approach_name, spec.cfg, metrics));
  p.events_jsonl = std::move(events_jsonl);

  char buf[128];
  std::string& m = p.manifest_json;
  m = "{";
  std::snprintf(buf, sizeof buf, "\"fingerprint\":\"%016" PRIx64 "\",", job_fingerprint(spec));
  m += buf;
  m += "\"approach\":\"" + json_escape(spec.approach_name) + "\",";
  m += "\"name\":\"" + json_escape(spec.name) + "\",";
  std::snprintf(buf, sizeof buf, "\"seed\":%llu,\"vehicles\":%d,",
                static_cast<unsigned long long>(spec.cfg.seed), spec.cfg.num_vehicles);
  m += buf;
  m += "\"duration_s\":" + obs::format_double(spec.cfg.duration_s) + ",";
  m += spec.events ? "\"events\":true," : "\"events\":false,";
  std::snprintf(buf, sizeof buf, "\"train_steps\":%ld,", metrics.train_steps);
  m += buf;
  m += "\"final_mean_loss\":" +
       obs::format_double(metrics.loss_curve.values.empty() ? 0.0
                                                            : metrics.loss_curve.values.back()) +
       ",";
  append_curve(m, metrics);
  m += ",\"files\":[\"metrics.json\",\"report.json\"";
  if (!p.events_jsonl.empty()) m += ",\"events.jsonl\"";
  m += "]}";
  return p;
}

bool write_payload(const std::filesystem::path& dir, const JobPayload& payload) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  if (!write_file(dir / "metrics.json", payload.metrics_json)) return false;
  if (!write_file(dir / "report.json", payload.report_json)) return false;
  if (!payload.events_jsonl.empty() &&
      !write_file(dir / "events.jsonl", payload.events_jsonl)) {
    return false;
  }
  // Manifest last: its presence certifies the files above are complete.
  return write_file(dir / "manifest.json", payload.manifest_json);
}

bool read_payload(const std::filesystem::path& dir, JobPayload& out) {
  out = JobPayload{};
  if (!read_file(dir / "manifest.json", out.manifest_json)) return false;
  if (!read_file(dir / "metrics.json", out.metrics_json)) return false;
  if (!read_file(dir / "report.json", out.report_json)) return false;
  std::string error;
  const auto manifest = json_parse(out.manifest_json, error);
  const JsonValue* files = manifest != nullptr ? manifest->get("files") : nullptr;
  if (files == nullptr || !files->is_array()) return false;
  // events.jsonl only when the manifest lists it.
  for (const auto& file : files->items()) {
    if (file->is_string() && file->as_string() == "events.jsonl") {
      return read_file(dir / "events.jsonl", out.events_jsonl);
    }
  }
  return true;
}

}  // namespace lbchat::svc
