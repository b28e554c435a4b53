#pragma once

#include <cstdint>
#include <memory>
#include <string>

// Embedded, dependency-free observability endpoint: a minimal HTTP/1.1
// listener on its own thread serving the live metric registry and span rings.
//
//   GET /metrics  Prometheus text (rendered under concurrent mutation)
//   GET /healthz  readiness: 200 while Serving, 503 otherwise (the body is
//                 the state name: starting / serving / draining)
//   GET /trace    Chrome trace of the host track (span rings + counter
//                 samples), the same bytes the --trace export writes for them
//
// Payloads are always well formed; while recording is off (set_enabled(false))
// the series read zero and the trace has no events. It is opt-in —
// nothing listens unless a caller constructs one or calls ensure_obs_server
// (`mstream_cli --serve-obs`).

namespace ms::telemetry {

/// Readiness state machine reported by /healthz:
///   Starting -> Serving -> Draining.
enum class ObsState : int { Starting = 0, Serving = 1, Draining = 2 };

[[nodiscard]] const char* to_string(ObsState s) noexcept;

class ObsServer {
public:
  /// Bind and start serving on `addr`. Accepted forms: "HOST:PORT", ":PORT",
  /// "PORT"; HOST defaults to 127.0.0.1 ("localhost" is accepted as an
  /// alias). PORT 0 binds an ephemeral port — read it back via bound_port().
  /// Throws std::runtime_error when the address cannot be parsed or bound.
  explicit ObsServer(const std::string& addr);
  ~ObsServer();

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Port actually bound (resolves ephemeral ":0" requests).
  [[nodiscard]] int bound_port() const noexcept;

  /// "host:port" as bound, suitable for printing and for curl.
  [[nodiscard]] std::string address() const;

  void set_state(ObsState s) noexcept;
  [[nodiscard]] ObsState state() const noexcept;

  /// Total HTTP requests answered (any route, any status).
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

  /// Stop accepting and join the listener thread. Idempotent; the destructor
  /// calls it.
  void stop() noexcept;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide server, created on first demand on `addr`. Returns the
/// server (in Serving state), or nullptr when `addr` cannot be parsed or
/// bound: the failure is reported to stderr and swallowed — observability
/// must never take the workload down. Subsequent calls return the
/// already-running server, whatever address they pass.
ObsServer* ensure_obs_server(const std::string& addr);

/// The process-wide server if one has been started, else nullptr.
[[nodiscard]] ObsServer* obs_server() noexcept;

}  // namespace ms::telemetry
