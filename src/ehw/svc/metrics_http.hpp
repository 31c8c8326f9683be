#pragma once
// svc::MetricsHttp — a minimal HTTP/1.0 responder that serves the
// Prometheus text exposition of an obs::Registry, the network face of
// `mpa serve --metrics-port` / `mpa forward --metrics-port`.
//
// Scope matches a scrape target and nothing more: every accepted
// connection gets one 200 response with the producer's current text and
// is closed (Connection: close), whatever the request line says — GET /,
// GET /metrics and a bare netcat probe all work. The producer callback
// runs on the endpoint's own thread; it typically refreshes scrape-time
// gauges (pool depths, hit rates, poll ages) before rendering.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "ehw/svc/socket.hpp"

namespace ehw::svc {

class MetricsHttp {
 public:
  /// Binds `address`:`port` (0 = ephemeral) and starts serving. Throws
  /// std::runtime_error when the endpoint cannot be bound.
  MetricsHttp(const std::string& address, std::uint16_t port,
              std::function<std::string()> producer);
  ~MetricsHttp();

  MetricsHttp(const MetricsHttp&) = delete;
  MetricsHttp& operator=(const MetricsHttp&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting and joins the serving thread. Idempotent.
  void stop();

 private:
  void loop();

  std::unique_ptr<Listener> listener_;
  std::uint16_t port_ = 0;
  std::function<std::string()> producer_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace ehw::svc
