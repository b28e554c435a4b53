#include "telemetry/obs_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace ms::telemetry {

const char* to_string(ObsState s) noexcept {
  switch (s) {
    case ObsState::Starting: return "starting";
    case ObsState::Serving: return "serving";
    case ObsState::Draining: return "draining";
  }
  return "?";
}

namespace {

CounterFamily& tel_requests() {
  static CounterFamily& f = registry().counter_family(
      "ms_obs_http_requests_total", "HTTP requests answered by the observability endpoint",
      "route");
  return f;
}

struct ParsedAddr {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// "HOST:PORT" | ":PORT" | "PORT"; "localhost" aliases 127.0.0.1.
ParsedAddr parse_addr(const std::string& addr) {
  ParsedAddr out;
  std::string port_s;
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    port_s = addr;
  } else {
    if (colon > 0) out.host = addr.substr(0, colon);
    port_s = addr.substr(colon + 1);
  }
  if (out.host == "localhost") out.host = "127.0.0.1";
  if (port_s.empty()) throw std::runtime_error("obs: empty port in address '" + addr + "'");
  // Digits only, over the whole token: no sign, no whitespace.
  unsigned p = 0;
  const char* const last = port_s.data() + port_s.size();
  const auto [ptr, ec] = std::from_chars(port_s.data(), last, p);
  if (ec != std::errc() || ptr != last || p > 65535) {
    throw std::runtime_error("obs: bad port in address '" + addr + "'");
  }
  out.port = static_cast<int>(p);
  return out;
}

struct Response {
  int status = 200;
  const char* content_type = "text/plain; charset=utf-8";
  std::string body;
};

Response answer_healthz(ObsState s) {
  return Response{s == ObsState::Serving ? 200 : 503, "text/plain; charset=utf-8",
                  std::string(to_string(s)) + "\n"};
}

Response answer_metrics(ObsState) {
  std::ostringstream os;
  write_snapshot(os);
  return Response{200, "text/plain; version=0.0.4; charset=utf-8", os.str()};
}

/// The host track of the Chrome trace: byte-equal to what the --trace export
/// writes for an empty device timeline and the same spans and samples.
Response answer_trace(ObsState) {
  std::ostringstream os;
  ChromeTraceWriter w(os);
  w.host(collect_spans(), collect_counter_samples());
  w.close();
  return Response{200, "application/json", os.str()};
}

struct Route {
  std::string_view path;
  Response (*answer)(ObsState);
};

/// Every served path. dispatch() answers from it, and the `route` label of
/// the request counter takes its values from it (plus "other"), which keeps
/// the label's cardinality bounded.
constexpr Route kRoutes[] = {
    {"/metrics", answer_metrics},
    {"/healthz", answer_healthz},
    {"/trace", answer_trace},
};

const Route* find_route(std::string_view path) noexcept {
  for (const Route& r : kRoutes) {
    if (r.path == path) return &r;
  }
  return nullptr;
}

const char* status_text(int code) noexcept {
  switch (code) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
  }
  return "OK";
}

using Clock = std::chrono::steady_clock;

/// Time one connection may spend reading its request head, and again writing
/// its response. The accept loop is serial, so these budgets bound how long
/// one slow client can hold up every other request.
constexpr std::chrono::seconds kIoBudget{2};

/// Arm the socket timeout `opt` (SO_RCVTIMEO or SO_SNDTIMEO) with the time
/// left until `deadline`; false once the deadline has passed.
bool arm_timeout(int fd, int opt, Clock::time_point deadline) noexcept {
  const auto left =
      std::chrono::duration_cast<std::chrono::microseconds>(deadline - Clock::now()).count();
  if (left <= 0) return false;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(left / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(left % 1000000);
  return ::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv)) == 0;
}

bool send_all(int fd, const char* data, std::size_t n, Clock::time_point deadline) noexcept {
  while (n > 0) {
    if (!arm_timeout(fd, SO_SNDTIMEO, deadline)) return false;
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

struct ObsServer::Impl {
  int listen_fd = -1;
  int port = 0;
  std::string host;
  std::atomic<int> state{static_cast<int>(ObsState::Starting)};
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> requests{0};
  std::thread worker;

  Response dispatch(const std::string& method, const Route* route) const {
    if (method != "GET") {
      return Response{405, "text/plain; charset=utf-8", "method not allowed\n"};
    }
    if (route == nullptr) return Response{404, "text/plain; charset=utf-8", "not found\n"};
    return route->answer(static_cast<ObsState>(state.load(std::memory_order_relaxed)));
  }

  void handle(int fd) {
    // Bounded read of the request head under one deadline for the whole
    // head, so a client that drips bytes cannot wedge the serial accept loop.
    const Clock::time_point read_deadline = Clock::now() + kIoBudget;
    std::string req;
    char buf[2048];
    while (req.find("\r\n\r\n") == std::string::npos && req.size() < 8192 &&
           arm_timeout(fd, SO_RCVTIMEO, read_deadline)) {
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      req.append(buf, static_cast<std::size_t>(r));
    }
    const std::size_t sp1 = req.find(' ');
    const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos : req.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
      ::close(fd);
      return;
    }
    const std::string method = req.substr(0, sp1);
    std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);
    if (const std::size_t q = path.find('?'); q != std::string::npos) path.resize(q);

    const Route* route = find_route(path);
    const Response resp = dispatch(method, route);
    requests.fetch_add(1, std::memory_order_relaxed);
    tel_requests().with(route != nullptr ? route->path : std::string_view("other")).add(1);

    std::string head = "HTTP/1.1 " + std::to_string(resp.status) + ' ' +
                       status_text(resp.status) + "\r\nContent-Type: " + resp.content_type +
                       "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                       "\r\nConnection: close\r\n\r\n";
    const Clock::time_point write_deadline = Clock::now() + kIoBudget;
    if (send_all(fd, head.data(), head.size(), write_deadline)) {
      send_all(fd, resp.body.data(), resp.body.size(), write_deadline);
    }
    ::close(fd);
  }

  void run() {
    while (running.load(std::memory_order_relaxed)) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // listener shut down (stop()) or fatal
      }
      handle(fd);
    }
  }
};

ObsServer::ObsServer(const std::string& addr) : impl_(std::make_unique<Impl>()) {
  const ParsedAddr pa = parse_addr(addr);
  impl_->host = pa.host;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("obs: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(pa.port));
  if (::inet_pton(AF_INET, pa.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("obs: bad host '" + pa.host + "' (numeric IPv4 expected)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 || ::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("obs: cannot listen on '" + addr + "': " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  impl_->port = static_cast<int>(ntohs(bound.sin_port));
  impl_->listen_fd = fd;
  impl_->running.store(true, std::memory_order_relaxed);
  impl_->worker = std::thread([this] { impl_->run(); });
}

ObsServer::~ObsServer() { stop(); }

int ObsServer::bound_port() const noexcept { return impl_->port; }

std::string ObsServer::address() const {
  return impl_->host + ':' + std::to_string(impl_->port);
}

void ObsServer::set_state(ObsState s) noexcept {
  impl_->state.store(static_cast<int>(s), std::memory_order_relaxed);
}

ObsState ObsServer::state() const noexcept {
  return static_cast<ObsState>(impl_->state.load(std::memory_order_relaxed));
}

std::uint64_t ObsServer::requests_served() const noexcept {
  return impl_->requests.load(std::memory_order_relaxed);
}

void ObsServer::stop() noexcept {
  if (!impl_->running.exchange(false, std::memory_order_relaxed)) return;
  // shutdown() wakes the blocked accept(); close() releases the fd.
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  if (impl_->worker.joinable()) impl_->worker.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
}

namespace {
std::mutex g_obs_mu;
ObsServer* g_obs = nullptr;  // immortal once created, like Registry::impl()
}  // namespace

ObsServer* ensure_obs_server(const std::string& addr) {
  std::lock_guard<std::mutex> lock(g_obs_mu);
  if (g_obs != nullptr) return g_obs;
  try {
    g_obs = new ObsServer(addr);
    g_obs->set_state(ObsState::Serving);
  } catch (const std::exception& e) {
    std::cerr << "warning: observability endpoint disabled: " << e.what() << '\n';
    g_obs = nullptr;
  }
  return g_obs;
}

ObsServer* obs_server() noexcept {
  std::lock_guard<std::mutex> lock(g_obs_mu);
  return g_obs;
}

}  // namespace ms::telemetry
