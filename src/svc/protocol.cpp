#include "svc/protocol.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "obs/export.h"
#include "svc/json.h"

namespace lbchat::svc {
namespace {

/// Per-request cap on how long a "wait" may occupy the serve loop.
constexpr double kDefaultWaitTimeoutS = 10.0;
constexpr double kMaxWaitTimeoutS = 60.0;

ProtocolReply error_reply(const std::string& what) {
  return {"{\"ok\":false,\"error\":\"" + json_escape(what) + "\"}", false};
}

bool get_id(const JsonValue& root, std::uint64_t& id, ProtocolReply& err) {
  const JsonValue* v = root.get("id");
  // Above 2^53 a JSON number names no single integer (and 1e300 would be an
  // undefined cast to std::uint64_t).
  if (v == nullptr || !v->is_number() || v->as_number() < 1.0 ||
      v->as_number() > 9007199254740992.0 /* 2^53 */ ||
      v->as_number() != std::floor(v->as_number())) {
    err = error_reply("\"id\" must be a positive integer");
    return false;
  }
  id = static_cast<std::uint64_t>(v->as_number());
  return true;
}

std::string stats_json(const ServiceStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"submitted\":%llu,\"completed\":%llu,\"cache_hits\":%llu,"
                "\"preemptions\":%llu,\"migrations\":%llu,\"failed\":%llu,"
                "\"cancelled\":%llu,\"recovered\":%llu,\"queued\":%zu,"
                "\"running\":%zu,\"queue_capacity\":%zu,\"workers\":%d,"
                "\"draining\":%s}",
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.preemptions),
                static_cast<unsigned long long>(s.migrations),
                static_cast<unsigned long long>(s.failed),
                static_cast<unsigned long long>(s.cancelled),
                static_cast<unsigned long long>(s.recovered), s.queued, s.running,
                s.queue_capacity, s.workers, s.draining ? "true" : "false");
  return buf;
}

}  // namespace

std::string job_status_json(const JobStatus& s) {
  char buf[160];
  std::string out = "{";
  std::snprintf(buf, sizeof buf, "\"id\":%llu,", static_cast<unsigned long long>(s.id));
  out += buf;
  out += "\"state\":\"" + std::string{to_string(s.state)} + "\",";
  out += "\"name\":\"" + json_escape(s.name) + "\",";
  out += "\"approach\":\"" + json_escape(s.approach) + "\",";
  std::snprintf(buf, sizeof buf, "\"priority\":%d,\"fingerprint\":\"%016" PRIx64 "\",",
                s.priority, s.fingerprint);
  out += buf;
  out += "\"progress_s\":" + obs::format_double(s.progress_s) + ",";
  out += "\"horizon_s\":" + obs::format_double(s.horizon_s) + ",";
  out += s.events ? "\"events\":true," : "\"events\":false,";
  out += s.cached ? "\"cached\":true," : "\"cached\":false,";
  out += s.held ? "\"held\":true," : "\"held\":false,";
  std::snprintf(buf, sizeof buf, "\"preemptions\":%d,\"migrations\":%d", s.preemptions,
                s.migrations);
  out += buf;
  if (!s.error.empty()) out += ",\"error\":\"" + json_escape(s.error) + "\"";
  if (!s.output_dir.empty()) {
    out += ",\"output_dir\":\"" + json_escape(s.output_dir) + "\"";
  }
  // Embedded checkpoint inspection (engine::ckpt_info_json) for preempted
  // jobs — the same object `ckpt_check --json` prints.
  if (!s.checkpoint_json.empty()) out += ",\"checkpoint\":" + s.checkpoint_json;
  out += "}";
  return out;
}

ProtocolReply handle_request(FleetService& service, std::string_view line) {
  std::string parse_error;
  const auto root = json_parse(line, parse_error);
  if (root == nullptr) return error_reply("invalid JSON: " + parse_error);
  if (!root->is_object()) return error_reply("request must be a JSON object");
  const JsonValue* cmd = root->get("cmd");
  if (cmd == nullptr || !cmd->is_string()) return error_reply("missing \"cmd\"");
  const std::string& c = cmd->as_string();

  if (c == "submit") {
    const JsonValue* spec = root->get("spec");
    if (spec == nullptr) return error_reply("missing \"spec\"");
    if (!spec->is_object()) return error_reply("\"spec\" must be an object");
    // The service wants the spec's *source text* (it persists the exact
    // submitted bytes), so slice the spec value's byte span — recorded by the
    // parser — out of the request line.
    std::string error;
    const std::uint64_t id = service.submit(
        line.substr(spec->source_begin(), spec->source_end() - spec->source_begin()),
        error);
    if (id == 0) return error_reply(error);
    const auto st = service.status(id);
    char buf[128];
    std::snprintf(buf, sizeof buf, "{\"ok\":true,\"id\":%llu,\"cached\":%s,\"fingerprint\":\"%016" PRIx64 "\"}",
                  static_cast<unsigned long long>(id),
                  st && st->cached ? "true" : "false", st ? st->fingerprint : 0);
    return {buf, false};
  }
  if (c == "status" || c == "wait") {
    std::uint64_t id = 0;
    ProtocolReply err;
    if (!get_id(*root, id, err)) return err;
    std::optional<JobStatus> st;
    if (c == "wait") {
      // Every wait is bounded: the daemon serves connections sequentially, so
      // an unbounded wait on a job that never terminates (held, drained)
      // would wedge the whole service. Clients re-poll until terminal.
      double timeout_s = kDefaultWaitTimeoutS;
      const JsonValue* t = root->get("timeout_s");
      if (t != nullptr) {
        if (!t->is_number() || t->as_number() < 0.0 || !std::isfinite(t->as_number())) {
          return error_reply("\"timeout_s\" must be a non-negative number");
        }
        timeout_s = std::min(t->as_number(), kMaxWaitTimeoutS);
      }
      JobStatus s;
      if (service.wait(id, s, timeout_s)) st = s;
    } else {
      st = service.status(id);
    }
    if (!st) return error_reply("unknown job");
    return {"{\"ok\":true,\"job\":" + job_status_json(*st) + "}", false};
  }
  if (c == "jobs") {
    std::string out = "{\"ok\":true,\"jobs\":[";
    bool first = true;
    for (const auto& s : service.jobs()) {
      if (!first) out += ',';
      first = false;
      out += job_status_json(s);
    }
    out += "]}";
    return {out, false};
  }
  if (c == "result") {
    std::uint64_t id = 0;
    ProtocolReply err;
    if (!get_id(*root, id, err)) return err;
    JobPayload payload;
    std::string error;
    if (!service.result(id, payload, error)) return error_reply(error);
    const auto st = service.status(id);
    std::string out = "{\"ok\":true";
    if (st && !st->output_dir.empty()) {
      out += ",\"output_dir\":\"" + json_escape(st->output_dir) + "\"";
    }
    out += ",\"cached\":" + std::string{st && st->cached ? "true" : "false"};
    out += ",\"manifest\":" + payload.manifest_json;  // verbatim: already JSON
    out += "}";
    return {out, false};
  }
  if (c == "cancel" || c == "release") {
    std::uint64_t id = 0;
    ProtocolReply err;
    if (!get_id(*root, id, err)) return err;
    const bool ok = c == "cancel" ? service.cancel(id) : service.release(id);
    if (!ok) return error_reply("job not in a " + c + "able state");
    return {"{\"ok\":true}", false};
  }
  if (c == "preempt") {
    std::uint64_t id = 0;
    ProtocolReply err;
    if (!get_id(*root, id, err)) return err;
    const JsonValue* hold = root->get("hold");
    if (hold != nullptr && !hold->is_bool()) return error_reply("\"hold\" must be a boolean");
    if (!service.preempt(id, hold != nullptr && hold->as_bool())) {
      return error_reply("job not in a preemptable state");
    }
    return {"{\"ok\":true}", false};
  }
  if (c == "stats") {
    return {"{\"ok\":true,\"stats\":" + stats_json(service.stats()) + "}", false};
  }
  if (c == "drain") {
    const std::size_t n = service.drain();
    char buf[64];
    std::snprintf(buf, sizeof buf, "{\"ok\":true,\"persisted\":%zu}", n);
    return {buf, false};
  }
  if (c == "shutdown") {
    return {"{\"ok\":true}", true};
  }
  return error_reply("unknown command \"" + c + "\"");
}

}  // namespace lbchat::svc
