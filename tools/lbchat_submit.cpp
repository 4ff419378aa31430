// lbchat_submit: command-line client for the lbchat_served daemon.
//
// Usage:
//   lbchat_submit --socket PATH submit SPEC.json [--wait]
//   lbchat_submit --socket PATH status|result|cancel|release|wait ID
//   lbchat_submit --socket PATH preempt ID [--hold]
//   lbchat_submit --socket PATH jobs|stats|drain|shutdown
//
// Prints the daemon's JSON reply line verbatim; exits 0 only when the reply
// says ok:true (so shell scripts can gate on it). A bad command line, an ID
// that is not a decimal number included, exits 2 before connecting.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/file_io.h"
#include "svc/socket.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: lbchat_submit --socket PATH COMMAND [ARGS]\n"
               "  submit SPEC.json [--wait]   submit a job spec file\n"
               "  status ID                   one job's status\n"
               "  wait ID                     block until the job finishes\n"
               "  result ID                   finished job's manifest + output dir\n"
               "  cancel ID                   cancel a job\n"
               "  preempt ID [--hold]         checkpoint + requeue (or hold) a job\n"
               "  release ID                  requeue a held job\n"
               "  jobs                        list all jobs\n"
               "  stats                       service counters\n"
               "  drain                       persist queued jobs, finish running ones\n"
               "  shutdown                    stop the daemon (it persists state)\n");
}

/// The job ID argument as a JSON number, or "" when it is not 1 to 15
/// decimal digits (15 digits stay exact in the daemon's JSON doubles).
std::string job_id(const std::string& arg) {
  if (arg.empty() || arg.size() > 15 ||
      !std::all_of(arg.begin(), arg.end(), [](char c) { return c >= '0' && c <= '9'; })) {
    return "";
  }
  return std::to_string(std::stoull(arg));
}

int run_request(const std::string& socket_path, const std::string& request) {
  std::string error;
  const std::string reply = lbchat::svc::request_over_socket(socket_path, request, error);
  if (reply.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", reply.c_str());
  return reply.rfind("{\"ok\":true", 0) == 0 ? 0 : 1;
}

// The daemon bounds every wait (so one slow job cannot wedge the serve loop);
// blocking-until-finished lives here: re-poll until the state is terminal.
int wait_until_terminal(const std::string& socket_path, const std::string& id) {
  const std::string request = "{\"cmd\":\"wait\",\"id\":" + id + "}";
  for (;;) {
    std::string error;
    const std::string reply =
        lbchat::svc::request_over_socket(socket_path, request, error);
    if (reply.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (reply.rfind("{\"ok\":true", 0) != 0 ||
        reply.find("\"state\":\"done\"") != std::string::npos ||
        reply.find("\"state\":\"cancelled\"") != std::string::npos ||
        reply.find("\"state\":\"failed\"") != std::string::npos) {
      std::printf("%s\n", reply.c_str());
      return reply.rfind("{\"ok\":true", 0) == 0 ? 0 : 1;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int i = 1;
  if (i + 1 < argc && std::strcmp(argv[i], "--socket") == 0) {
    socket_path = argv[i + 1];
    i += 2;
  }
  if (socket_path.empty() || i >= argc) {
    usage();
    return 2;
  }
  const std::string cmd = argv[i++];

  if (cmd == "submit") {
    if (i >= argc) {
      usage();
      return 2;
    }
    const char* spec_path = argv[i++];
    const bool wait = i < argc && std::strcmp(argv[i], "--wait") == 0;
    std::string spec;
    if (!lbchat::read_file(spec_path, spec)) {
      std::fprintf(stderr, "cannot read %s\n", spec_path);
      return 1;
    }
    // The protocol is line-delimited; flatten the spec file onto one line.
    for (char& c : spec) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    std::string error;
    const std::string reply = lbchat::svc::request_over_socket(
        socket_path, "{\"cmd\":\"submit\",\"spec\":" + spec + "}", error);
    if (reply.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", reply.c_str());
    if (reply.rfind("{\"ok\":true", 0) != 0) return 1;
    if (!wait) return 0;
    const std::size_t idpos = reply.find("\"id\":");
    if (idpos == std::string::npos) return 1;
    const std::string id = std::to_string(std::atoll(reply.c_str() + idpos + 5));
    return wait_until_terminal(socket_path, id);
  }
  if (cmd == "status" || cmd == "wait" || cmd == "result" || cmd == "cancel" ||
      cmd == "release" || cmd == "preempt") {
    if (i >= argc) {
      usage();
      return 2;
    }
    const std::string id = job_id(argv[i]);
    if (id.empty()) {
      std::fprintf(stderr, "job ID must be a decimal number, got '%s'\n", argv[i]);
      return 2;
    }
    ++i;
    if (cmd == "wait") return wait_until_terminal(socket_path, id);
    std::string req = "{\"cmd\":\"" + cmd + "\",\"id\":" + id;
    if (cmd == "preempt" && i < argc && std::strcmp(argv[i], "--hold") == 0) {
      req += ",\"hold\":true";
    }
    req += "}";
    return run_request(socket_path, req);
  }
  if (cmd == "jobs" || cmd == "stats" || cmd == "drain" || cmd == "shutdown") {
    return run_request(socket_path, "{\"cmd\":\"" + cmd + "\"}");
  }
  usage();
  return 2;
}
