#pragma once
// The closed-loop client: `connections` threads, each with one
// svc::Client and one mission in flight, so a slow service receives less
// load and every latency is the mission's own (no result waits behind
// another's).
//
// The host this runs on may lose CPU to its hypervisor ("steal") in
// bursts, and fork-join waves amplify that loss several times over. The
// loop therefore samples the host's steal share from /proc/stat in short
// slices, fits how much each run's steal slowed it (StealFit), and reports
// its timings at zero steal.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ehw/common/json.hpp"
#include "ehw/common/thread_pool.hpp"
#include "ehw/sched/missions.hpp"
#include "ehw/svc/client.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What the service answered for one mission, as the correctness gate
/// and the results digest read it.
struct MissionResult {
  std::uint64_t index = 0;
  std::string status;  // "done", "failed", ... or "rejected"/"lost"
  std::string error;
  std::uint64_t best_fitness = 0;
  std::string genotype_hash;
  std::string sim_ns;
  double ack_ms = 0;      // submit sent -> ack received
  double latency_ms = 0;  // submit sent -> result received
  std::uint64_t sent_ns = 0;
  std::uint64_t finished_ns = 0;
};

struct LoopConfig {
  std::uint16_t port = 0;
  Workload workload = Workload::kServeColdSmall;
  std::uint64_t seed = 1;
  double seconds = 1;
  /// Submitting stops at `seconds` but never before this many missions
  /// were issued; every issued mission is waited for.
  std::uint64_t min_missions = 0;
  SpanLog* spans = nullptr;  // null: untraced
};

/// How the host's steal slowed one run: the least-squares line
///   answers per second = rate_at_zero * (1 - amplification * steal share)
/// through the loop's slices. A descheduled CPU stalls every fork-join
/// wave waiting on it, so amplification is kept in [0, CPUs]; with no
/// steal at all, rate_at_zero is the plain mean rate.
struct StealFit {
  double rate_at_zero = 0;
  double amplification = 0;

  /// Factor that takes a time measured under `steal` back to zero steal
  /// (at least 1/4, so a nearly stalled slice cannot erase a mission).
  [[nodiscard]] double zero_steal_scale(double steal) const {
    return std::max(0.25, 1.0 - amplification * steal);
  }
};

/// Fits `per_second` (one rate per slice) against `steal`, skipping the
/// first `skip` slices.
[[nodiscard]] StealFit fit_steal(const std::vector<double>& steal,
                                 const std::vector<double>& per_second,
                                 std::size_t skip);

struct LoopReport {
  /// The timed window (loop start to the instant submitting stopped) is
  /// cut into slices of this length; a last partial slice is dropped.
  static constexpr double kSliceSeconds = 0.5;

  std::vector<MissionResult> missions;  // sorted by index, no gaps
  std::uint64_t start_ns = 0;
  /// Per slice: results received, and the host's steal share.
  std::vector<std::uint64_t> answers_per_slice;
  std::vector<double> steal_per_slice;
  /// Fitted over every slice but the first (the ramp-up).
  StealFit fit;
  /// The slices the latencies are read from: calm_slices(), grown until
  /// kMinLatencySamples missions lie wholly inside them.
  std::vector<bool> calm;
  /// Peak resident set (MB) when the min_missions-th answer arrived
  /// (0 when the loop never got that far): memory after a fixed amount
  /// of work, whatever the host's speed.
  double peak_rss_mb_at_min = 0;
  /// queue_full answers (each retried after 1 ms until admitted).
  std::uint64_t queue_full = 0;
  /// Connection-level failures (client constructor or a lost session).
  std::vector<std::string> transport_errors;

  /// Latencies (or acks) of the done missions that were sent and answered
  /// inside the calm slices, at zero steal: each scaled by
  /// fit.zero_steal_scale(the mean steal share of the slices it spans).
  [[nodiscard]] std::vector<double> calm_latencies(bool ack) const {
    return latencies_inside(calm, ack);
  }
  [[nodiscard]] std::vector<double> latencies_inside(
      const std::vector<bool>& slices, bool ack) const;
  [[nodiscard]] std::size_t calm_count() const;
};

[[nodiscard]] LoopReport run_closed_loop(const LoopConfig& config);

/// Host steal share above which a slice (or a set-up) counts as
/// disturbed.
constexpr double kCalmSteal = 0.02;

/// Latency samples the calm slices are grown to hold, so p99 has at
/// least 10 beyond it.
constexpr std::size_t kMinLatencySamples = 1000;

/// The calm entries of `steal` (share <= kCalmSteal), skipping the first
/// `skip` entries; then, while `enough` rejects the choice or fewer than a
/// third of the entries are chosen, the least-stolen of the rest, one at
/// a time. So a run always reports, from its calmest stretches.
[[nodiscard]] std::vector<bool> calm_slices(
    const std::vector<double>& steal, std::size_t skip,
    const std::function<bool(const std::vector<bool>&)>& enough = {});

/// Host CPU time counters (/proc/stat, all CPUs), zero where unreadable.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();
/// Share of the host's CPU time stolen between two readings (0 when no
/// tick passed).
[[nodiscard]] double steal_share(const CpuTicks& from, const CpuTicks& to);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Parses a `result` response into a MissionResult (status and fields).
void read_result(const ehw::Json& response, MissionResult& out);

/// One mission through a client: submit, then result. A queue_full
/// refusal is retried after 1 ms and counted in `*queue_full`; ack_ms is
/// set from the first submit attempt.
[[nodiscard]] MissionResult serve_one(ehw::svc::Client& client,
                                      const ehw::sched::MissionSpec& spec,
                                      const char* layer, std::uint64_t mission,
                                      std::uint64_t parent, SpanLog* spans,
                                      std::uint64_t* queue_full = nullptr);

/// A job outcome as the service would answer it.
[[nodiscard]] MissionResult answer_of(const ehw::sched::MissionSpec& spec,
                                      const ehw::sched::JobOutcome& outcome,
                                      ehw::sched::JobStatus status);

/// run_spec_standalone's answer (serial, or fanned out on `host_pool`).
[[nodiscard]] MissionResult standalone_answer(
    const ehw::sched::MissionSpec& spec, ehw::ThreadPool* host_pool = nullptr);

/// Equal on everything a mission's result must reproduce: status,
/// best_fitness, genotype_hash and sim_ns.
[[nodiscard]] bool same_answer(const MissionResult& a, const MissionResult& b);

/// One-line rendering for failure messages.
[[nodiscard]] std::string describe_answer(const MissionResult& answer);

}  // namespace perfbench
