#include "svc/socket.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace lbchat::svc {
namespace {

constexpr int kPollTimeoutMs = 100;
constexpr std::size_t kMaxLine = 4u << 20;  ///< defensive cap per request line

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that disconnected before reading its reply must
    // surface as EPIPE (a closed connection), not as a fatal SIGPIPE.
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool fill_sockaddr(const std::string& path, sockaddr_un& addr, std::string& error) {
  if (path.size() >= sizeof addr.sun_path) {
    error = "socket path too long";
    return false;
  }
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

SocketServer::~SocketServer() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }
}

bool SocketServer::listen(const std::string& path, std::string& error) {
  // Bound under a sibling name and renamed onto `path` once it listens, so
  // a client that waits for `path` to appear can connect at once. The
  // rename also replaces a stale socket from a previous daemon.
  const std::string staging = path + ".tmp";
  sockaddr_un addr{};
  // Both names must fit sun_path; the staging one is bound.
  if (!fill_sockaddr(path, addr, error) || !fill_sockaddr(staging, addr, error)) return false;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string{"socket: "} + std::strerror(errno);
    return false;
  }
  ::unlink(staging.c_str());
  const auto fail = [&](const char* what) {
    error = std::string{what} + std::strerror(errno);
    ::close(fd);
    ::unlink(staging.c_str());
    return false;
  };
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    return fail("bind: ");
  }
  if (::listen(fd, 16) < 0) return fail("listen: ");
  if (::rename(staging.c_str(), path.c_str()) < 0) return fail("rename: ");
  listen_fd_ = fd;
  path_ = path;
  return true;
}

void SocketServer::serve(const std::function<ServerReply(const std::string&)>& handler) {
  bool shutdown = false;
  while (!shutdown && !stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kPollTimeoutMs);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;

    // One connection at a time; multiple request lines per connection.
    std::string buf;
    char chunk[4096];
    bool open = true;
    while (open && !shutdown && !stop_.load()) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string reqline = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (!reqline.empty() && reqline.back() == '\r') reqline.pop_back();
        ServerReply reply = handler(reqline);
        reply.line.push_back('\n');
        if (!write_all(conn, reply.line.data(), reply.line.size())) open = false;
        shutdown = reply.shutdown;
        continue;
      }
      if (buf.size() > kMaxLine) break;
      const ssize_t r = ::read(conn, chunk, sizeof chunk);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) open = false;
      if (r > 0) buf.append(chunk, static_cast<std::size_t>(r));
    }
    ::close(conn);
  }
}

std::string request_over_socket(const std::string& path, const std::string& request,
                                std::string& error) {
  sockaddr_un addr{};
  if (!fill_sockaddr(path, addr, error)) return "";
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string{"socket: "} + std::strerror(errno);
    return "";
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    error = std::string{"connect "} + path + ": " + std::strerror(errno);
    ::close(fd);
    return "";
  }
  std::string line = request;
  line.push_back('\n');
  if (!write_all(fd, line.data(), line.size())) {
    error = std::string{"write: "} + std::strerror(errno);
    ::close(fd);
    return "";
  }
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t r = ::read(fd, chunk, sizeof chunk);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(r));
    const std::size_t nl = reply.find('\n');
    if (nl != std::string::npos) {
      reply.resize(nl);
      ::close(fd);
      return reply;
    }
  }
  ::close(fd);
  error = "connection closed before a reply";
  return "";
}

}  // namespace lbchat::svc
