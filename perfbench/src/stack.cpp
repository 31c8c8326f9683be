#include "stack.hpp"

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include <unistd.h>

namespace perfbench {

namespace fs = std::filesystem;

ehw::sched::PoolConfig serve_pool_config(ehw::ThreadPool* host_pool) {
  ehw::sched::PoolConfig pool;
  pool.num_arrays = 8;           // --arrays 8
  pool.cache_capacity = 512;     // --cache 512
  pool.max_concurrent_jobs = 0;  // --max-jobs 0
  pool.host_pool = host_pool;    // ThreadPool host_pool; (all cores)
  return pool;
}

ehw::svc::ServerConfig serve_config(ehw::ThreadPool* host_pool,
                                    const std::string& journal_dir) {
  ehw::svc::ServerConfig config;
  config.address = "127.0.0.1";
  config.port = 0;
  config.pools = 1;                  // --pools 1
  config.pool = serve_pool_config(host_pool);
  config.max_inflight = 0;           // --max-inflight 0 (2x arrays)
  config.journal_dir = journal_dir;  // --journal DIR
  config.checkpoint_every = 25;      // --checkpoint-every 25
  config.persist_warm = true;        // no --no-warm
  config.idle_timeout_ms = 300'000;  // --idle-timeout-ms 300000
  config.max_line = 0;               // --max-line 0
  return config;
}

ehw::svc::ForwarderConfig forward_config(
    std::vector<ehw::svc::BackendConfig> backends) {
  ehw::svc::ForwarderConfig config;
  config.address = "127.0.0.1";
  config.port = 0;
  config.backends = std::move(backends);
  config.poll_ms = 250;              // --poll-ms 250
  config.down_after = 2;             // --down-after 2
  config.io_timeout_ms = 5000;       // --timeout-ms 5000
  config.idle_timeout_ms = 300'000;  // --idle-timeout-ms 300000
  config.max_line = 0;               // --max-line 0
  return config;
}

ehw::Json describe(const ehw::svc::ServerConfig& config,
                   std::size_t host_pool_threads) {
  ehw::Json out = ehw::Json::object();
  out.set("pools", static_cast<std::uint64_t>(config.pools));
  out.set("arrays", static_cast<std::uint64_t>(config.pool.num_arrays));
  out.set("cache", static_cast<std::uint64_t>(config.pool.cache_capacity));
  out.set("max-jobs",
          static_cast<std::uint64_t>(config.pool.max_concurrent_jobs));
  out.set("max-inflight", static_cast<std::uint64_t>(config.max_inflight));
  out.set("checkpoint-every", config.checkpoint_every);
  out.set("idle-timeout-ms",
          static_cast<std::uint64_t>(config.idle_timeout_ms));
  out.set("max-line", static_cast<std::uint64_t>(config.max_line));
  out.set("no-warm", !config.persist_warm);
  out.set("host_pool", config.pool.host_pool != nullptr);
  out.set("host_pool_threads", static_cast<std::uint64_t>(host_pool_threads));
  out.set("fitness_memo_capacity",
          static_cast<std::uint64_t>(config.pool.fitness_memo_capacity));
  out.set("mission_images_capacity",
          static_cast<std::uint64_t>(config.pool.mission_images_capacity));
  out.set("max_job_records",
          static_cast<std::uint64_t>(config.max_job_records));
  return out;
}

ehw::Json describe(const ehw::svc::ForwarderConfig& config) {
  ehw::Json out = ehw::Json::object();
  out.set("poll-ms", static_cast<std::uint64_t>(config.poll_ms));
  out.set("down-after", static_cast<std::uint64_t>(config.down_after));
  out.set("timeout-ms", static_cast<std::uint64_t>(config.io_timeout_ms));
  out.set("idle-timeout-ms",
          static_cast<std::uint64_t>(config.idle_timeout_ms));
  out.set("max-line", static_cast<std::uint64_t>(config.max_line));
  return out;
}

TempDirs::~TempDirs() {
  for (const std::string& dir : made_) {
    std::error_code ignored;  // best effort: a leftover dir is harmless
    fs::remove_all(dir, ignored);
  }
}

std::string TempDirs::make() {
  static std::atomic<std::uint64_t> counter{0};
  const std::string dir = root_ + "/j" + std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  std::error_code error;
  fs::remove_all(dir, error);
  if (!fs::create_directories(dir, error) || error) {
    throw std::runtime_error("cannot create journal dir " + dir);
  }
  made_.push_back(dir);
  return dir;
}

Stack::Stack(std::size_t backends, bool journaled, const std::string& tmp_root)
    : dirs_(tmp_root) {
  const std::size_t daemons = backends == 0 ? 1 : backends;
  std::vector<ehw::svc::BackendConfig> routes;
  for (std::size_t i = 0; i < daemons; ++i) {
    host_pools_.push_back(std::make_unique<ehw::ThreadPool>());
    const std::string journal = journaled ? dirs_.make() : std::string();
    servers_.push_back(std::make_unique<ehw::svc::Server>(
        serve_config(host_pools_.back().get(), journal)));
    ehw::svc::BackendConfig backend;
    backend.port = servers_.back()->port();
    backend.journal_dir = journal;
    routes.push_back(backend);
  }
  if (backends != 0) {
    forwarder_ = std::make_unique<ehw::svc::Forwarder>(
        forward_config(std::move(routes)));
  }
}

Stack::~Stack() {
  if (forwarder_ != nullptr) forwarder_->stop();
  for (auto& server : servers_) server->stop();
}

std::uint16_t Stack::port() const {
  return forwarder_ != nullptr ? forwarder_->port() : servers_.front()->port();
}

}  // namespace perfbench
