#include "telemetry/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/query_log.h"
#include "telemetry/trace.h"

namespace ids::telemetry {

namespace {

/// "fmt" query parameter ("" when absent), from a raw query string like
/// "fmt=folded&x=1". Good enough for a debug plane; no URL decoding.
std::string_view fmt_param(std::string_view query) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    if (pair.substr(0, 4) == "fmt=") return pair.substr(4);
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return {};
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    default: return "Error";
  }
}

}  // namespace

ObsServer::ObsServer(ObsServerOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? *options_.metrics
                                           : MetricsRegistry::global()),
      profiler_(options_.profiler != nullptr ? *options_.profiler
                                             : Profiler::global()) {}

ObsServer::~ObsServer() { stop(); }

Status ObsServer::start() {
  MutexLock lock(control_mutex_);
  if (server_.joinable()) {
    return Status::FailedPrecondition("obs server already running");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(std::string("bind: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(std::string("getsockname: ") +
                               std::strerror(err));
  }
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(std::string("listen: ") + std::strerror(err));
  }

  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  start_wall_ns_.store(wall_now_ns(), std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  listen_fd_.store(fd, std::memory_order_release);
  server_ = std::thread([this] { serve_loop(); });
  return Status::Ok();
}

void ObsServer::stop() {
  std::thread joinable;
  {
    MutexLock lock(control_mutex_);
    if (!server_.joinable()) return;  // never started, or already stopped
    stopping_.store(true, std::memory_order_release);
    const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
      // Unblocks the accept() in serve_loop so the join below is bounded.
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
    joinable = std::move(server_);
  }
  joinable.join();  // outside the lock: never block while holding it
}

bool ObsServer::running() const {
  MutexLock lock(control_mutex_);
  return server_.joinable();
}

void ObsServer::serve_loop() {
  for (;;) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0 || stopping_.load(std::memory_order_acquire)) return;

    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;  // listener closed under us or unrecoverable
    }

    // A stalled client must not wedge the (single) serving thread.
    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

    // Read until the end of the request head (or a sane cap). We only
    // need the request line; headers and any body are ignored.
    std::string request;
    char buf[2048];
    while (request.find("\r\n") == std::string::npos &&
           request.size() < 16 * 1024) {
      const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<std::size_t>(n));
    }

    Response response;
    const std::size_t line_end = request.find("\r\n");
    const std::string_view request_view(request);
    const std::string_view line = request_view.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      response = Response{404, "text/plain; charset=utf-8",
                          "malformed request\n"};
    } else {
      response = route(line.substr(sp1 + 1, sp2 - sp1 - 1));
    }

    std::ostringstream head;
    head << "HTTP/1.1 " << response.status << ' '
         << status_text(response.status)
         << "\r\nContent-Type: " << response.content_type
         << "\r\nContent-Length: " << response.body.size()
         << "\r\nConnection: close\r\n\r\n";
    const std::string wire = head.str() + response.body;

    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(conn, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(conn);
  }
}

std::string ObsServer::handle(std::string_view target) const {
  return route(target).body;
}

ObsServer::Response ObsServer::route(std::string_view target) const {
  const std::size_t qmark = target.find('?');
  const std::string_view path = target.substr(0, qmark);
  const std::string_view query =
      qmark == std::string_view::npos ? std::string_view{}
                                      : target.substr(qmark + 1);

  if (path == "/" || path.empty()) return handle_index();
  if (path == "/metrics") return handle_metrics();
  if (path == "/statusz") return handle_statusz();
  if (path == "/tracez") return handle_tracez(query);
  if (path == "/profilez") return handle_profilez(query);
  return Response{404, "text/plain; charset=utf-8",
                  "not found: " + std::string(path) +
                      "\nendpoints: /metrics /statusz /tracez /profilez\n"};
}

ObsServer::Response ObsServer::handle_index() const {
  return Response{200, "text/plain; charset=utf-8",
                  "ids observability plane\n"
                  "  /metrics            Prometheus exposition\n"
                  "  /statusz            build/uptime/query accounts JSON\n"
                  "  /tracez[?fmt=json]  recent query span trees\n"
                  "  /profilez[?fmt=folded]  sampling profiler\n"};
}

ObsServer::Response ObsServer::handle_metrics() const {
  return Response{200, "text/plain; version=0.0.4; charset=utf-8",
                  metrics_.to_prometheus()};
}

ObsServer::Response ObsServer::handle_statusz() const {
  const double uptime =
      static_cast<double>(wall_now_ns() -
                          start_wall_ns_.load(std::memory_order_acquire)) *
      1e-9;
  std::ostringstream os;
  os << "{\"build_type\":\"" << options_.build_type << "\",\"simd_level\":\""
     << options_.simd_level
     << "\",\"uptime_seconds\":" << format_double(uptime) << ",\"queries\":";
  if (options_.query_log != nullptr) {
    os << options_.query_log->accounts_json();
  } else {
    os << "{\"total\":0,\"recent\":[]}";
  }
  os << ",\"metrics\":" << metrics_.to_json() << '}';
  return Response{200, "application/json", os.str()};
}

ObsServer::Response ObsServer::handle_tracez(std::string_view query) const {
  if (options_.query_log == nullptr) {
    return Response{200, "text/plain; charset=utf-8",
                    "tracez: no query log attached\n"};
  }
  if (fmt_param(query) == "json") {
    return Response{200, "application/json",
                    options_.query_log->newest_trace_json()};
  }
  return Response{200, "text/plain; charset=utf-8",
                  options_.query_log->traces_text()};
}

ObsServer::Response ObsServer::handle_profilez(std::string_view query) const {
  if (fmt_param(query) == "folded") {
    return Response{200, "text/plain; charset=utf-8", profiler_.to_folded()};
  }
  return Response{200, "application/json", profiler_.to_json_top()};
}

}  // namespace ids::telemetry
