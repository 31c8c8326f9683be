#pragma once
// The service under test, built in-process with the configuration
// `mpa serve` / `mpa forward` use (tools/mpa_cli.cpp cmd_serve /
// cmd_forward): host ThreadPool per daemon, 8 arrays, cache 512, idle
// timeout 300000 ms, journal checkpoint every 25 generations. The
// benchmark prints these effective values at the start of every run and
// the wrapper script checks them against the CLI's defaults.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ehw/common/json.hpp"
#include "ehw/common/thread_pool.hpp"
#include "ehw/svc/forwarder.hpp"
#include "ehw/svc/server.hpp"

namespace perfbench {

/// cmd_serve's configuration with its default flags; `journal_dir` empty
/// means `--journal` was not given.
[[nodiscard]] ehw::svc::ServerConfig serve_config(
    ehw::ThreadPool* host_pool, const std::string& journal_dir);
/// cmd_forward's configuration with its default flags.
[[nodiscard]] ehw::svc::ForwarderConfig forward_config(
    std::vector<ehw::svc::BackendConfig> backends);
/// cmd_serve's PoolConfig alone (the sched rung's pool).
[[nodiscard]] ehw::sched::PoolConfig serve_pool_config(
    ehw::ThreadPool* host_pool);

/// Effective values keyed by the CLI flag that sets them.
[[nodiscard]] ehw::Json describe(const ehw::svc::ServerConfig& config,
                                 std::size_t host_pool_threads);
[[nodiscard]] ehw::Json describe(const ehw::svc::ForwarderConfig& config);

/// Creates (and on destruction removes) fresh directories under a root.
class TempDirs {
 public:
  explicit TempDirs(std::string root) : root_(std::move(root)) {}
  ~TempDirs();
  TempDirs(const TempDirs&) = delete;
  TempDirs& operator=(const TempDirs&) = delete;
  /// A new empty directory; throws std::runtime_error on failure.
  [[nodiscard]] std::string make();

 private:
  std::string root_;
  std::vector<std::string> made_;
};

/// One daemon (backends == 0) or a forwarder over `backends` daemons,
/// each with its own host pool, as separate `mpa serve` processes would
/// have. Destruction stops the forwarder, then the daemons.
class Stack {
 public:
  Stack(std::size_t backends, bool journaled, const std::string& tmp_root);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack();

  /// The port clients submit to (the forwarder's when there is one).
  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] std::vector<std::unique_ptr<ehw::svc::Server>>& servers() {
    return servers_;
  }
  [[nodiscard]] ehw::svc::Forwarder* forwarder() { return forwarder_.get(); }
  [[nodiscard]] std::size_t host_pool_threads() const {
    return host_pools_.front()->size();
  }

 private:
  TempDirs dirs_;  // removed after every daemon below is gone
  std::vector<std::unique_ptr<ehw::ThreadPool>> host_pools_;
  std::vector<std::unique_ptr<ehw::svc::Server>> servers_;
  std::unique_ptr<ehw::svc::Forwarder> forwarder_;
};

}  // namespace perfbench
