#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <utility>

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

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string events_jsonl(const std::vector<Event>& events, std::uint64_t dropped) {
  std::string out;
  out.reserve(events.size() * 64);
  for (const Event& e : events) {
    out += "{\"t\":";
    out += format_double(e.t);
    out += ",\"kind\":";
    append_escaped(out, to_string(e.kind));
    out += ",\"a\":";
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
    out += "\n  {\"name\":";
    append_escaped(out, m.name);
    out += ",\"kind\":";
    append_escaped(out, to_string(m.kind));
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
    o += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_escaped(o, tid == 0 ? std::string{"fleet"}
                               : "vehicle " + std::to_string(tid - 1));
    o += "}}";
  }
  std::set<std::uint32_t> span_tids;
  for (const Span& s : spans) span_tids.insert(s.tid);
  for (const std::uint32_t tid : span_tids) {
    auto& o = next();
    o += "{\"ph\":\"M\",\"pid\":2,\"tid\":";
    o += std::to_string(tid);
    o += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_escaped(o, "worker " + std::to_string(tid));
    o += "}}";
  }

  for (const Event& e : events) {
    auto& o = next();
    o += "{\"ph\":\"i\",\"pid\":1,\"tid\":";
    o += std::to_string(e.a >= 0 ? e.a + 1 : 0);
    o += ",\"ts\":";
    o += std::to_string(static_cast<std::int64_t>(std::llround(e.t * 1e6)));
    o += ",\"s\":\"t\",\"name\":";
    append_escaped(o, to_string(e.kind));
    o += ",\"args\":{\"a\":";
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
    o += ",\"name\":";
    append_escaped(o, s.name != nullptr ? s.name : "?");
    o += "}";
  }

  out += "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Minimal JSON DOM + trace validation (no third-party dependencies).
// ---------------------------------------------------------------------------

namespace {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject } type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* get(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();  // no trailing garbage
  }

  [[nodiscard]] std::string error() const { return error_; }

 private:
  bool fail(const char* msg) {
    if (error_.empty()) {
      error_ = std::string{msg} + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.str);
      case 't':
        if (text_.substr(pos_, 4) != "true") return fail("bad literal");
        pos_ += 4;
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return true;
      case 'f':
        if (text_.substr(pos_, 5) != "false") return fail("bad literal");
        pos_ += 5;
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return true;
      case 'n':
        if (text_.substr(pos_, 4) != "null") return fail("bad literal");
        pos_ += 4;
        out.type = JsonValue::Type::kNull;
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("truncated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // The validator only inspects ASCII keys; keep non-ASCII lossy.
            out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    double v = 0.0;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_) return fail("bad number");
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    return true;
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    consume('[');
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue elem;
      skip_ws();
      if (!parse_value(elem)) return false;
      out.array.push_back(std::move(elem));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    consume('{');
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue val;
      skip_ws();
      if (!parse_value(val)) return false;
      out.object.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string validate_chrome_trace(std::string_view json) {
  JsonValue root;
  JsonParser parser{json};
  if (!parser.parse(root)) return "parse error: " + parser.error();
  if (root.type != JsonValue::Type::kObject) return "top level is not an object";
  const JsonValue* events = root.get("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    return "missing traceEvents array";
  }
  std::map<std::pair<double, double>, double> last_ts;  // (pid, tid) -> ts
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = " in traceEvents[" + std::to_string(i) + "]";
    if (e.type != JsonValue::Type::kObject) return "non-object event" + at;
    const JsonValue* ph = e.get("ph");
    if (ph == nullptr || ph->type != JsonValue::Type::kString || ph->str.empty()) {
      return "missing ph" + at;
    }
    const JsonValue* pid = e.get("pid");
    if (pid == nullptr || pid->type != JsonValue::Type::kNumber) return "missing pid" + at;
    if (ph->str == "M") continue;  // metadata carries no timestamp
    const JsonValue* name = e.get("name");
    if (name == nullptr || name->type != JsonValue::Type::kString) return "missing name" + at;
    const JsonValue* tid = e.get("tid");
    if (tid == nullptr || tid->type != JsonValue::Type::kNumber) return "missing tid" + at;
    const JsonValue* ts = e.get("ts");
    if (ts == nullptr || ts->type != JsonValue::Type::kNumber) return "missing ts" + at;
    if (!std::isfinite(ts->number) || ts->number < 0) return "negative ts" + at;
    const std::pair<double, double> track{pid->number, tid->number};
    const auto it = last_ts.find(track);
    if (it != last_ts.end() && ts->number < it->second) {
      return "ts decreases on track" + at;
    }
    last_ts[track] = ts->number;
  }
  return "";
}

std::string run_report_json(const RunReport& report) {
  std::string out = "{\"approach\":";
  append_escaped(out, report.approach);
  out += ",\"seed\":";
  out += std::to_string(report.seed);
  out += ",\"duration_s\":";
  out += format_double(report.duration_s);
  out += ",\"final_mean_loss\":";
  out += format_double(report.final_mean_loss);
  out += ",\"vehicles\":[";
  bool first = true;
  for (const VehicleReport& v : report.vehicles) {
    if (!first) out.push_back(',');
    first = false;
    out += "\n  {\"id\":";
    out += std::to_string(v.id);
    out += ",\"bytes_sent\":";
    out += std::to_string(v.bytes_sent);
    out += ",\"bytes_received\":";
    out += std::to_string(v.bytes_received);
    out += ",\"chats_started\":";
    out += std::to_string(v.chats_started);
    out += ",\"chats_completed\":";
    out += std::to_string(v.chats_completed);
    out += ",\"chats_aborted\":";
    out += std::to_string(v.chats_aborted);
    out += ",\"model_recv_started\":";
    out += std::to_string(v.model_recv_started);
    out += ",\"model_recv_completed\":";
    out += std::to_string(v.model_recv_completed);
    out += ",\"frames_rejected\":";
    out += std::to_string(v.frames_rejected);
    out += ",\"online_seconds\":";
    out += format_double(v.online_seconds);
    out += ",\"effective_model_receiving_rate\":";
    out += format_double(v.effective_model_receiving_rate);
    out += ",\"first_loss\":";
    out += format_double(v.first_loss);
    out += ",\"final_loss\":";
    out += format_double(v.final_loss);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string run_report_csv(const RunReport& report) {
  std::string out =
      "id,bytes_sent,bytes_received,chats_started,chats_completed,chats_aborted,"
      "model_recv_started,model_recv_completed,frames_rejected,online_seconds,"
      "effective_model_receiving_rate,first_loss,final_loss\n";
  for (const VehicleReport& v : report.vehicles) {
    out += std::to_string(v.id);
    out.push_back(',');
    out += std::to_string(v.bytes_sent);
    out.push_back(',');
    out += std::to_string(v.bytes_received);
    out.push_back(',');
    out += std::to_string(v.chats_started);
    out.push_back(',');
    out += std::to_string(v.chats_completed);
    out.push_back(',');
    out += std::to_string(v.chats_aborted);
    out.push_back(',');
    out += std::to_string(v.model_recv_started);
    out.push_back(',');
    out += std::to_string(v.model_recv_completed);
    out.push_back(',');
    out += std::to_string(v.frames_rejected);
    out.push_back(',');
    out += format_double(v.online_seconds);
    out.push_back(',');
    out += format_double(v.effective_model_receiving_rate);
    out.push_back(',');
    out += format_double(v.first_loss);
    out.push_back(',');
    out += format_double(v.final_loss);
    out.push_back('\n');
  }
  return out;
}

}  // namespace lbchat::obs
