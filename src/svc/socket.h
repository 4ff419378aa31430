// AF_UNIX stream transport for the fleet service daemon.
//
// SocketServer accepts connections sequentially and hands each newline-
// terminated request line to a handler, writing the reply line back. The
// accept loop polls with a short timeout so stop() (safe to call from a
// signal-triggered thread) is noticed promptly. Concurrency lives in the
// FleetService worker pool, not here: protocol requests are cheap (submit,
// status) or bounded (wait times out and the client re-polls; drain blocks
// only until in-flight jobs finish), and a sequential loop keeps the daemon
// free of per-connection threads. Replies are sent with MSG_NOSIGNAL, so a
// client that disconnects early is a closed connection, never a SIGPIPE.
//
// request_over_socket is the matching one-shot client: connect, send one
// line, read one reply line.
#pragma once

#include <atomic>
#include <functional>
#include <string>

namespace lbchat::svc {

struct ServerReply {
  std::string line;       ///< reply, written with a trailing '\n'
  bool shutdown = false;  ///< stop serving after this reply
};

class SocketServer {
 public:
  SocketServer() = default;
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Bind + listen on `path`, which appears only once it accepts connections
  /// (an existing socket file there is replaced).
  /// False with `error` set on failure.
  bool listen(const std::string& path, std::string& error);

  /// Serve until a handler reply sets `shutdown` or stop() is called.
  void serve(const std::function<ServerReply(const std::string&)>& handler);

  /// Ask serve() to return at its next poll tick. Async-signal-usable from a
  /// dedicated thread (sets an atomic flag; no locks, no allocation).
  void stop() { stop_.store(true); }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  int listen_fd_ = -1;
  std::string path_;
  std::atomic<bool> stop_{false};
};

/// One-shot client: send `request` as a line to the daemon at `path`, return
/// the reply line (newline stripped). Empty + `error` set on failure.
[[nodiscard]] std::string request_over_socket(const std::string& path,
                                              const std::string& request,
                                              std::string& error);

}  // namespace lbchat::svc
