#include "loop.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "ehw/svc/protocol.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kNoIndex = std::numeric_limits<std::uint64_t>::max();

double ms_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

std::uint64_t slice_ns() {
  return static_cast<std::uint64_t>(LoopReport::kSliceSeconds * 1e9);
}

/// Index dispenser shared by the connections: hands out consecutive
/// indices until the deadline has passed AND min_missions were issued.
class Dispenser {
 public:
  Dispenser(const LoopConfig& config, std::uint64_t start_ns)
      : config_(config),
        deadline_ns_(start_ns +
                     static_cast<std::uint64_t>(config.seconds * 1e9)) {}

  std::uint64_t claim() {
    if (stopped_ns_.load(std::memory_order_acquire) != 0) return kNoIndex;
    const std::uint64_t now = now_ns();
    if (now >= deadline_ns_ &&
        issued_.load(std::memory_order_relaxed) >= config_.min_missions) {
      std::uint64_t expected = 0;
      stopped_ns_.compare_exchange_strong(expected, now,
                                          std::memory_order_acq_rel);
      return kNoIndex;
    }
    return issued_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Ends issuing early (a connection died): the loop still drains.
  void abort() {
    std::uint64_t expected = 0;
    stopped_ns_.compare_exchange_strong(expected, now_ns(),
                                        std::memory_order_acq_rel);
  }
  /// Counts one answer; the min_missions-th one samples peak RSS.
  void answered() {
    if (answered_.fetch_add(1, std::memory_order_relaxed) + 1 ==
        config_.min_missions) {
      rss_at_min_mb_.store(peak_rss_mb(), std::memory_order_relaxed);
    }
  }
  [[nodiscard]] double rss_at_min_mb() const {
    return rss_at_min_mb_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t issued() const {
    return issued_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stopped_ns() const {
    return stopped_ns_.load(std::memory_order_acquire);
  }

 private:
  const LoopConfig& config_;
  const std::uint64_t deadline_ns_;
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> stopped_ns_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<double> rss_at_min_mb_{0};
};

/// Reads the host's CPU counters at every slice boundary until stopped.
class StealSampler {
 public:
  explicit StealSampler(std::uint64_t start_ns)
      : start_ns_(start_ns), thread_([this] { run(); }) {}
  ~StealSampler() { stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Steal share per completed slice.
  std::vector<double> stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
    std::vector<double> shares;
    for (std::size_t k = 1; k < ticks_.size(); ++k) {
      shares.push_back(steal_share(ticks_[k - 1], ticks_[k]));
    }
    return shares;
  }

 private:
  void run() {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point origin =
        Clock::now() - std::chrono::nanoseconds(now_ns() - start_ns_);
    std::unique_lock<std::mutex> lock(mutex_);
    ticks_.push_back(read_cpu_ticks());
    for (std::uint64_t k = 1;; ++k) {
      const Clock::time_point boundary =
          origin + std::chrono::nanoseconds(k * slice_ns());
      if (wake_.wait_until(lock, boundary, [this] { return stopping_; })) {
        return;
      }
      ticks_.push_back(read_cpu_ticks());
    }
  }

  const std::uint64_t start_ns_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<CpuTicks> ticks_;
  std::thread thread_;  // last: starts once the rest is built
};

struct ConnectionOutput {
  std::vector<MissionResult> missions;
  std::uint64_t queue_full = 0;
  std::string error;
};

void run_connection(const LoopConfig& config, Dispenser& dispenser,
                    ConnectionOutput& out) {
  std::uint64_t index = kNoIndex;
  try {
    ehw::svc::Client client(config.port);
    while ((index = dispenser.claim()) != kNoIndex) {
      const std::uint64_t root =
          config.spans != nullptr ? config.spans->next_id() : 0;
      const std::uint64_t sent_ns = now_ns();
      MissionResult result =
          serve_one(client, spec_at(config.workload, config.seed, index),
                    "svc", index, root, config.spans, &out.queue_full);
      result.index = index;
      result.sent_ns = sent_ns;
      result.finished_ns = now_ns();
      result.latency_ms = ms_between(sent_ns, result.finished_ns);
      if (config.spans != nullptr) {
        SpanLog::Record record;
        record.name = "mission";
        record.layer = "bench";
        record.mission = index;
        record.id = root;
        record.start_ns = sent_ns;
        record.dur_ns = result.finished_ns - sent_ns;
        config.spans->add(record);
      }
      out.missions.push_back(std::move(result));
      index = kNoIndex;
      dispenser.answered();
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    dispenser.abort();
    if (index != kNoIndex) {  // a claimed index is always accounted for
      MissionResult lost;
      lost.index = index;
      lost.status = "lost";
      lost.error = e.what();
      out.missions.push_back(std::move(lost));
    }
  }
}

}  // namespace

CpuTicks read_cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::ifstream stat("/proc/stat");
  std::string line;
  CpuTicks ticks;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return ticks;
  std::istringstream fields(line.substr(4));
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

std::vector<bool> calm_slices(
    const std::vector<double>& steal, std::size_t skip,
    const std::function<bool(const std::vector<bool>&)>& enough) {
  std::vector<std::size_t> order;
  for (std::size_t i = skip; i < steal.size(); ++i) order.push_back(i);
  if (order.empty()) return std::vector<bool>(steal.size(), true);
  std::stable_sort(order.begin(), order.end(),
                   [&steal](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  const std::size_t third = std::max<std::size_t>(1, order.size() / 3);
  std::vector<bool> calm(steal.size(), false);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const bool wanted = steal[order[k]] <= kCalmSteal || k < third ||
                        (enough && !enough(calm));
    if (!wanted) break;
    calm[order[k]] = true;
  }
  return calm;
}

StealFit fit_steal(const std::vector<double>& steal,
                   const std::vector<double>& per_second, std::size_t skip) {
  StealFit fit;
  const std::size_t n = std::min(steal.size(), per_second.size());
  if (n <= skip) return fit;
  double mean_x = 0;
  double mean_y = 0;
  for (std::size_t k = skip; k < n; ++k) {
    mean_x += steal[k];
    mean_y += per_second[k];
  }
  mean_x /= static_cast<double>(n - skip);
  mean_y /= static_cast<double>(n - skip);
  double sxx = 0;
  double sxy = 0;
  for (std::size_t k = skip; k < n; ++k) {
    sxx += (steal[k] - mean_x) * (steal[k] - mean_x);
    sxy += (steal[k] - mean_x) * (per_second[k] - mean_y);
  }
  const double slope = sxx > 0 ? sxy / sxx : 0.0;
  const double intercept = mean_y - slope * mean_x;
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  fit.amplification =
      intercept > 0 ? std::clamp(-slope / intercept, 0.0, cpus) : 0.0;
  // The rate at zero steal for that amplification (the intercept itself
  // whenever the clamp left it alone).
  double suu = 0;
  double suy = 0;
  for (std::size_t k = skip; k < n; ++k) {
    const double u = 1.0 - fit.amplification * steal[k];
    suu += u * u;
    suy += u * per_second[k];
  }
  fit.rate_at_zero = suu > 0 ? suy / suu : mean_y;
  return fit;
}

std::vector<double> LoopReport::latencies_inside(
    const std::vector<bool>& slices, bool ack) const {
  std::vector<double> out;
  for (const MissionResult& mission : missions) {
    if (mission.status != "done") continue;
    const std::uint64_t first = (mission.sent_ns - start_ns) / slice_ns();
    const std::uint64_t last = (mission.finished_ns - start_ns) / slice_ns();
    if (last >= slices.size()) continue;
    bool inside = true;
    double steal = 0;
    for (std::uint64_t k = first; k <= last && inside; ++k) {
      inside = slices[k];
      steal += steal_per_slice[k];
    }
    if (!inside) continue;
    steal /= static_cast<double>(last - first + 1);
    out.push_back((ack ? mission.ack_ms : mission.latency_ms) *
                  fit.zero_steal_scale(steal));
  }
  return out;
}

std::size_t LoopReport::calm_count() const {
  return static_cast<std::size_t>(std::count(calm.begin(), calm.end(), true));
}

void read_result(const ehw::Json& response, MissionResult& out) {
  if (!response.get_bool("ok", false)) {
    out.status = "error";
    out.error = response.get_string("code", "") + ": " +
                response.get_string("error", "unknown error");
    return;
  }
  out.status = response.get_string("status", "?");
  out.error = response.get_string("error", "");
  out.best_fitness =
      static_cast<std::uint64_t>(response.get_number("best_fitness", 0));
  out.genotype_hash = response.get_string("genotype_hash", "");
  out.sim_ns = response.get_string("sim_ns", "");
}

MissionResult serve_one(ehw::svc::Client& client,
                        const ehw::sched::MissionSpec& spec, const char* layer,
                        std::uint64_t mission, std::uint64_t parent,
                        SpanLog* spans, std::uint64_t* queue_full) {
  MissionResult answer;
  ehw::svc::Client::Submitted submitted;
  const std::uint64_t start_ns = now_ns();
  {
    const Span span(spans, "svc.client.submit", layer, mission, parent);
    for (;;) {
      submitted = client.submit(spec);
      if (submitted.ok || submitted.code != "queue_full") break;
      if (queue_full != nullptr) ++*queue_full;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  answer.ack_ms = ms_between(start_ns, now_ns());
  if (submitted.ok) {
    const Span span(spans, "svc.client.result", layer, mission, parent);
    read_result(client.result(submitted.job), answer);
  } else {
    answer.status = "rejected";
    answer.error = submitted.code + ": " + submitted.error;
  }
  return answer;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

MissionResult answer_of(const ehw::sched::MissionSpec& spec,
                        const ehw::sched::JobOutcome& outcome,
                        ehw::sched::JobStatus status) {
  ehw::Json json = ehw::svc::outcome_to_json(spec.kind, status, outcome);
  json.set("ok", true);
  MissionResult answer;
  read_result(json, answer);
  return answer;
}

MissionResult standalone_answer(const ehw::sched::MissionSpec& spec,
                                ehw::ThreadPool* host_pool) {
  return answer_of(spec, ehw::sched::run_spec_standalone(spec, host_pool),
                   ehw::sched::JobStatus::kDone);
}

bool same_answer(const MissionResult& a, const MissionResult& b) {
  return a.status == b.status && a.best_fitness == b.best_fitness &&
         a.genotype_hash == b.genotype_hash && a.sim_ns == b.sim_ns;
}

std::string describe_answer(const MissionResult& answer) {
  return answer.status + " fitness " + std::to_string(answer.best_fitness) +
         " " + answer.genotype_hash + " sim " + answer.sim_ns +
         (answer.error.empty() ? "" : " (" + answer.error + ")");
}

LoopReport run_closed_loop(const LoopConfig& config) {
  const std::size_t connections = shape_of(config.workload).connections;
  std::vector<ConnectionOutput> outputs(connections);
  LoopReport report;
  report.start_ns = now_ns();
  Dispenser dispenser(config, report.start_ns);
  StealSampler sampler(report.start_ns);
  {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back(run_connection, std::cref(config),
                           std::ref(dispenser), std::ref(outputs[c]));
    }
    for (std::thread& thread : threads) thread.join();
  }
  const std::uint64_t stop_ns =
      dispenser.stopped_ns() != 0 ? dispenser.stopped_ns() : now_ns();
  report.steal_per_slice = sampler.stop();
  // Only whole slices inside the window count (the ramp-down after the
  // last submit is not steady load).
  const std::size_t slices = std::min<std::size_t>(
      report.steal_per_slice.size(), (stop_ns - report.start_ns) / slice_ns());
  report.steal_per_slice.resize(slices);
  report.answers_per_slice.assign(slices, 0);
  report.peak_rss_mb_at_min = dispenser.rss_at_min_mb();
  for (ConnectionOutput& out : outputs) {
    report.queue_full += out.queue_full;
    if (!out.error.empty()) report.transport_errors.push_back(out.error);
    for (MissionResult& mission : out.missions) {
      if (mission.status == "done") {
        const std::uint64_t slice =
            (mission.finished_ns - report.start_ns) / slice_ns();
        if (slice < slices) ++report.answers_per_slice[slice];
      }
      report.missions.push_back(std::move(mission));
    }
  }
  std::sort(report.missions.begin(), report.missions.end(),
            [](const MissionResult& a, const MissionResult& b) {
              return a.index < b.index;
            });
  // The first slice holds the ramp-up (no answers before the first
  // missions finish), so it is never read.
  std::vector<double> per_second;
  for (const std::uint64_t answers : report.answers_per_slice) {
    per_second.push_back(static_cast<double>(answers) /
                         LoopReport::kSliceSeconds);
  }
  report.fit = fit_steal(report.steal_per_slice, per_second, 1);
  report.calm = calm_slices(
      report.steal_per_slice, 1, [&](const std::vector<bool>& chosen) {
        return report.latencies_inside(chosen, false).size() >=
               kMinLatencySamples;
      });
  // Every issued index must have a record; a gap would mean a claimed
  // mission vanished without an answer.
  for (std::uint64_t i = 0; i < dispenser.issued(); ++i) {
    if (i >= report.missions.size() || report.missions[i].index != i) {
      report.transport_errors.push_back("mission index " + std::to_string(i) +
                                        " has no answer");
      break;
    }
  }
  return report;
}

}  // namespace perfbench
