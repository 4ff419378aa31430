#include "obs/export.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <map>
#include <set>
#include <utility>

#include "svc/json.h"

namespace lbchat::obs {

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e999" : (v < 0 ? "-1e999" : "0");
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string{buf, res.ptr};
}

std::string events_jsonl(const std::vector<Event>& events, std::uint64_t dropped) {
  std::string out;
  out.reserve(events.size() * 64);
  for (const Event& e : events) {
    out += "{\"t\":";
    out += format_double(e.t);
    out += ",\"kind\":\"";
    out += svc::json_escape(to_string(e.kind));
    out += "\",\"a\":";
    out += std::to_string(e.a);
    out += ",\"b\":";
    out += std::to_string(e.b);
    out += ",\"value\":";
    out += format_double(e.value);
    out += "}\n";
  }
  if (dropped != 0) {
    out += "{\"dropped\":";
    out += std::to_string(dropped);
    out += "}\n";
  }
  return out;
}

std::string metrics_json(const Snapshot& snap) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : snap.metrics) {
    if (!first) out.push_back(',');
    first = false;
    out += "\n  {\"name\":\"";
    out += svc::json_escape(m.name);
    out += "\",\"kind\":\"";
    out += svc::json_escape(to_string(m.kind));
    out.push_back('"');
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ",\"count\":";
        out += std::to_string(m.count);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":";
        out += format_double(m.value);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":";
        out += std::to_string(m.count);
        out += ",\"sum\":";
        out += format_double(m.value);
        out += ",\"bounds\":[";
        for (std::size_t i = 0; i < m.bounds.size(); ++i) {
          if (i != 0) out.push_back(',');
          out += format_double(m.bounds[i]);
        }
        out += "],\"buckets\":[";
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          if (i != 0) out.push_back(',');
          out += std::to_string(m.buckets[i]);
        }
        out.push_back(']');
        break;
      }
    }
    out.push_back('}');
  }
  out += "\n]}\n";
  return out;
}

std::string chrome_trace_json(const std::vector<Event>& events, const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto next = [&]() -> std::string& {
    if (!first) out.push_back(',');
    first = false;
    out += "\n ";
    return out;
  };

  next() += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
            "\"args\":{\"name\":\"sim\"}}";
  if (!spans.empty()) {
    next() += "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
              "\"args\":{\"name\":\"wallclock\"}}";
  }

  // Sim tracks: tid 0 carries fleet-wide events (a = -1), tid k vehicle k-1.
  std::set<std::int32_t> sim_tids;
  for (const Event& e : events) sim_tids.insert(e.a >= 0 ? e.a + 1 : 0);
  for (const std::int32_t tid : sim_tids) {
    auto& o = next();
    o += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    o += std::to_string(tid);
    o += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    o += svc::json_escape(tid == 0 ? std::string{"fleet"}
                                   : "vehicle " + std::to_string(tid - 1));
    o += "\"}}";
  }
  std::set<std::uint32_t> span_tids;
  for (const Span& s : spans) span_tids.insert(s.tid);
  for (const std::uint32_t tid : span_tids) {
    auto& o = next();
    o += "{\"ph\":\"M\",\"pid\":2,\"tid\":";
    o += std::to_string(tid);
    o += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    o += svc::json_escape("worker " + std::to_string(tid));
    o += "\"}}";
  }

  for (const Event& e : events) {
    auto& o = next();
    o += "{\"ph\":\"i\",\"pid\":1,\"tid\":";
    o += std::to_string(e.a >= 0 ? e.a + 1 : 0);
    o += ",\"ts\":";
    o += std::to_string(static_cast<std::int64_t>(std::llround(e.t * 1e6)));
    o += ",\"s\":\"t\",\"name\":\"";
    o += svc::json_escape(to_string(e.kind));
    o += "\",\"args\":{\"a\":";
    o += std::to_string(e.a);
    o += ",\"b\":";
    o += std::to_string(e.b);
    o += ",\"value\":";
    o += format_double(e.value);
    o += "}}";
  }

  // Spans are already (tid, t0)-sorted by SpanStore::spans(); rebase to the
  // earliest start so the wall-clock process begins near ts 0.
  std::uint64_t base = 0;
  if (!spans.empty()) {
    base = spans.front().t0_ns;
    for (const Span& s : spans) base = std::min(base, s.t0_ns);
  }
  for (const Span& s : spans) {
    auto& o = next();
    o += "{\"ph\":\"X\",\"pid\":2,\"tid\":";
    o += std::to_string(s.tid);
    o += ",\"ts\":";
    o += format_double(static_cast<double>(s.t0_ns - base) / 1e3);
    o += ",\"dur\":";
    o += format_double(static_cast<double>(s.dur_ns) / 1e3);
    o += ",\"name\":\"";
    o += svc::json_escape(s.name != nullptr ? s.name : "?");
    o += "\"}";
  }

  out += "\n]}\n";
  return out;
}

std::string validate_chrome_trace(std::string_view json) {
  std::string error;
  const auto root = svc::json_parse(json, error);
  if (root == nullptr) return "parse error: " + error;
  if (!root->is_object()) return "top level is not an object";
  const svc::JsonValue* events = root->get("traceEvents");
  if (events == nullptr || !events->is_array()) return "missing traceEvents array";
  std::map<std::pair<double, double>, double> last_ts;  // (pid, tid) -> ts
  for (std::size_t i = 0; i < events->items().size(); ++i) {
    const svc::JsonValue& e = *events->items()[i];
    const std::string at = " in traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) return "non-object event" + at;
    const svc::JsonValue* ph = e.get("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string().empty()) return "missing ph" + at;
    const svc::JsonValue* pid = e.get("pid");
    if (pid == nullptr || !pid->is_number()) return "missing pid" + at;
    if (ph->as_string() == "M") continue;  // metadata carries no timestamp
    const svc::JsonValue* name = e.get("name");
    if (name == nullptr || !name->is_string()) return "missing name" + at;
    const svc::JsonValue* tid = e.get("tid");
    if (tid == nullptr || !tid->is_number()) return "missing tid" + at;
    const svc::JsonValue* ts = e.get("ts");
    if (ts == nullptr || !ts->is_number()) return "missing ts" + at;
    if (!std::isfinite(ts->as_number()) || ts->as_number() < 0) return "negative ts" + at;
    const std::pair<double, double> track{pid->as_number(), tid->as_number()};
    const auto it = last_ts.find(track);
    if (it != last_ts.end() && ts->as_number() < it->second) {
      return "ts decreases on track" + at;
    }
    last_ts[track] = ts->as_number();
  }
  return "";
}

namespace {

/// The run report's per-vehicle columns in output order: the JSON objects,
/// the CSV header and the CSV rows all come from this one list.
template <class F>
void report_columns(const VehicleReport& v, F&& column) {
  column("id", v.id);
  column("bytes_sent", v.bytes_sent);
  column("bytes_received", v.bytes_received);
  column("chats_started", v.chats_started);
  column("chats_completed", v.chats_completed);
  column("chats_aborted", v.chats_aborted);
  column("model_recv_started", v.model_recv_started);
  column("model_recv_completed", v.model_recv_completed);
  column("frames_rejected", v.frames_rejected);
  column("online_seconds", v.online_seconds);
  column("effective_model_receiving_rate", v.effective_model_receiving_rate);
  column("first_loss", v.first_loss);
  column("final_loss", v.final_loss);
}

std::string report_cell(double v) { return format_double(v); }
std::string report_cell(std::integral auto v) { return std::to_string(v); }

}  // namespace

std::string run_report_json(const RunReport& report) {
  std::string out = "{\"approach\":\"";
  out += svc::json_escape(report.approach);
  out += "\",\"seed\":";
  out += std::to_string(report.seed);
  out += ",\"duration_s\":";
  out += format_double(report.duration_s);
  out += ",\"final_mean_loss\":";
  out += format_double(report.final_mean_loss);
  out += ",\"vehicles\":[";
  for (std::size_t i = 0; i < report.vehicles.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    char sep = '{';
    report_columns(report.vehicles[i], [&](std::string_view name, auto value) {
      out.push_back(std::exchange(sep, ','));
      out += '"';
      out += name;
      out += "\":";
      out += report_cell(value);
    });
    out.push_back('}');
  }
  out += "\n]}\n";
  return out;
}

std::string run_report_csv(const RunReport& report) {
  std::string out;
  report_columns(VehicleReport{}, [&out](std::string_view name, auto) {
    out += name;
    out.push_back(',');
  });
  out.back() = '\n';
  for (const VehicleReport& v : report.vehicles) {
    report_columns(v, [&out](std::string_view, auto value) {
      out += report_cell(value);
      out.push_back(',');
    });
    out.back() = '\n';
  }
  return out;
}

}  // namespace lbchat::obs
