// mpa_perfbench — the mission-service benchmark.
//
//   mpa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --tmp DIR [--trace-out FILE] [--quick]
//
// --trace 0 (timed run): builds the service stack in the `mpa serve`
// configuration (several times; setup_s is the median over the set-ups
// the host's hypervisor left calm), runs the workload's closed loop for S
// seconds with nothing traced, checks every answer, and prints the
// end-to-end metrics, the timings taken back to zero host steal
// (loop.hpp).
//
// --trace 1 (traced run): the same loop untraced and then traced (their
// throughput ratio is trace.overhead_share), then the layer ladder
// (ladder.hpp) over a seeded sample of the workload's specs, and prints
// the per-layer metrics; the spans go to --trace-out as Chrome trace
// JSON.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}), plus the results digest, the exact
// counts and the effective service configuration. Exit 0 when every
// check passed, 1 on a correctness failure, 2 on a usage or set-up error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ehw/sched/missions.hpp"
#include "ehw/svc/client.hpp"
#include "ladder.hpp"
#include "loop.hpp"
#include "spans.hpp"
#include "stack.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using ehw::Json;
using namespace perfbench;

struct Options {
  Workload workload = Workload::kServeColdSmall;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp;
  std::string trace_out;
  WorkloadShape shape;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "mpa_perfbench: %s\nusage: mpa_perfbench --workload "
               "serve_cold_small|serve_cold_large|cluster_warm_mix --seed N "
               "--seconds S --trace 0|1 --tmp DIR [--trace-out FILE] "
               "[--quick]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage("bad value for " + flag);
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      quick = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      if (!parse_workload(value, options.workload)) {
        usage(std::string("unknown workload ") + value);
      }
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_count(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_count(flag, value));
      if (options.seconds < 1) usage("--seconds must be >= 1");
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_count(flag, value);
      if (trace > 1) usage("--trace is 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--tmp") {
      options.tmp = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.tmp.empty()) usage("--tmp is required");
  options.shape = shape_of(options.workload);
  if (quick) {  // the self-test's tiny run: every path, little work
    options.shape.min_missions = 24;
    options.shape.ladder_missions = 2;
    options.shape.setup_repeats = 2;
  }
  return options;
}

/// Correctness bookkeeping for one run.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

/// Every answer done; warm repeats equal their fingerprint's first
/// answer; a seeded sample equal to run_spec_standalone.
void check_loop(const Options& options, const LoopReport& loop,
                const std::vector<MissionResult>& primes,
                std::uint64_t sample_base, Checks& checks) {
  checks.attempted += loop.missions.size();
  for (const std::string& error : loop.transport_errors) {
    checks.fail("transport: " + error);
  }
  for (const MissionResult& mission : loop.missions) {
    if (mission.status != "done") {
      checks.fail("mission " + std::to_string(mission.index) + " " +
                  describe_answer(mission));
      continue;
    }
    const int slot = warm_slot(options.workload, options.seed, mission.index);
    if (slot >= 0 &&
        !same_answer(mission, primes[static_cast<std::size_t>(slot)])) {
      checks.fail("mission " + std::to_string(mission.index) +
                  " repeats warm fingerprint " + std::to_string(slot) +
                  " but answered " + describe_answer(mission) + ", first " +
                  describe_answer(primes[static_cast<std::size_t>(slot)]));
    }
  }
  // The sample is drawn from the first `sample_base` indices, so it is
  // the same for every run of one seed.
  const std::uint64_t base =
      std::min<std::uint64_t>(sample_base, loop.missions.size());
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, base / options.shape.verify_samples);
  std::size_t sampled = 0;
  for (std::uint64_t i = 0;
       i < base && sampled < options.shape.verify_samples; ++i) {
    const MissionResult& mission = loop.missions[i];
    if (mix(options.seed ^ 0x5A3E, mission.index) % stride != 0) continue;
    ++sampled;
    if (mission.status != "done") continue;  // already counted
    const MissionResult want = standalone_answer(
        spec_at(options.workload, options.seed, mission.index));
    if (!same_answer(mission, want)) {
      checks.fail("mission " + std::to_string(mission.index) + " answered " +
                  describe_answer(mission) + ", standalone " +
                  describe_answer(want));
    }
  }
}

/// A service stack with the workload's warm fingerprints primed.
struct Primed {
  std::unique_ptr<Stack> stack;
  std::vector<MissionResult> primes;  // the fingerprints' answers
};

Primed build_primed(const Options& options) {
  Primed primed;
  primed.stack = std::make_unique<Stack>(options.shape.backends,
                                         options.shape.journaled, options.tmp);
  ehw::svc::Client client(primed.stack->port());
  static_cast<void>(client.stats());  // first answer from the service
  for (const ehw::sched::MissionSpec& spec :
       warm_fingerprints(options.workload, options.seed)) {
    primed.primes.push_back(serve_one(client, spec, "bench", 0, 0, nullptr));
  }
  return primed;
}

/// Warm answers must equal run_spec_standalone (first set-up) and then
/// repeat exactly on every later set-up.
void check_primes(const Options& options,
                  const std::vector<MissionResult>& primes,
                  const std::vector<MissionResult>* first, Checks& checks) {
  const std::vector<ehw::sched::MissionSpec> fingerprints =
      warm_fingerprints(options.workload, options.seed);
  for (std::size_t j = 0; j < primes.size(); ++j) {
    ++checks.attempted;
    const MissionResult want =
        first != nullptr ? (*first)[j] : standalone_answer(fingerprints[j]);
    if (!same_answer(primes[j], want)) {
      checks.fail("warm fingerprint " + std::to_string(j) + " answered " +
                  describe_answer(primes[j]) + ", expected " +
                  describe_answer(want));
    }
  }
}

/// The timed service, built `setup_repeats` times; the last build stays
/// up.
struct Setup {
  Primed primed;
  std::vector<double> seconds;
  std::vector<double> steal;  // the host's steal share during each

  /// Median over the calm set-ups (see calm_slices), each taken back to
  /// zero steal with the amplification the timed loop measured.
  [[nodiscard]] double calm_median(const StealFit& fit) const {
    const std::vector<bool> calm = calm_slices(steal, 0);
    std::vector<double> kept;
    for (std::size_t r = 0; r < seconds.size(); ++r) {
      if (calm[r]) kept.push_back(seconds[r] * fit.zero_steal_scale(steal[r]));
    }
    return median(kept);
  }
};

Setup set_up(const Options& options, Checks& checks) {
  Setup setup;
  std::vector<MissionResult> first;
  for (std::size_t r = 0; r < options.shape.setup_repeats; ++r) {
    setup.primed = Primed{};  // tear-down is not part of set-up
    const CpuTicks ticks = read_cpu_ticks();
    const std::uint64_t start = now_ns();
    setup.primed = build_primed(options);
    setup.seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
    setup.steal.push_back(steal_share(ticks, read_cpu_ticks()));
    check_primes(options, setup.primed.primes, r == 0 ? nullptr : &first,
                 checks);
    if (r == 0) first = setup.primed.primes;
  }
  return setup;
}

/// Digest of the answers to indices [0, count): the same for every run
/// of one seed.
std::uint64_t results_digest(const std::vector<MissionResult>& missions,
                             std::uint64_t count) {
  std::uint64_t digest = mix(count, 0);
  for (std::uint64_t i = 0; i < count && i < missions.size(); ++i) {
    const MissionResult& r = missions[i];
    digest = mix(digest, r.index);
    digest = mix(digest, r.best_fitness);
    for (const char ch : r.status + "/" + r.genotype_hash + "/" + r.sim_ns) {
      digest = mix(digest, static_cast<unsigned char>(ch));
    }
  }
  return digest;
}

std::string hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// The host's steal share and how much of the loop was read, for the
/// counts.
void describe_steal(const LoopReport& loop, Json& counts) {
  counts.set("slices", static_cast<std::uint64_t>(loop.calm.size()));
  counts.set("calm_slices", static_cast<std::uint64_t>(loop.calm_count()));
  counts.set("steal_share_mean", mean(loop.steal_per_slice));
  counts.set("steal_amplification", loop.fit.amplification);
}

int run(const Options& options) {
  const WorkloadShape& shape = options.shape;
  std::printf("perfbench: workload %s seed %llu seconds %.0f trace %d | "
              "%zu connections x 1 in flight, %zu backends%s\n",
              shape.name, static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, shape.connections,
              shape.backends,
              shape.journaled ? " (journaled)" : "");
  Checks checks;
  Setup setup = set_up(options, checks);
  Json config = Json::object();
  config.set("serve", describe(setup.primed.stack->servers().front()->config(),
                               setup.primed.stack->host_pool_threads()));
  config.set("forward", describe(setup.primed.stack->forwarder() != nullptr
                                     ? setup.primed.stack->forwarder()->config()
                                     : forward_config({})));
  std::printf("perfbench: config %s\n", config.dump().c_str());
  std::fflush(stdout);

  std::map<std::string, Metric> metrics;
  Json counts = Json::object();
  std::uint64_t digest = 0;
  std::uint64_t digest_missions = 0;
  if (!options.trace) {
    LoopConfig loop_config;
    loop_config.port = setup.primed.stack->port();
    loop_config.workload = options.workload;
    loop_config.seed = options.seed;
    loop_config.seconds = options.seconds;
    loop_config.min_missions = shape.min_missions;
    const LoopReport loop = run_closed_loop(loop_config);
    const ehw::svc::ServiceStats service =
        setup.primed.stack->servers().front()->service_stats();
    setup.primed.stack.reset();
    check_loop(options, loop, setup.primed.primes, shape.min_missions, checks);
    digest_missions = std::min<std::uint64_t>(shape.min_missions,
                                              loop.missions.size());
    digest = results_digest(loop.missions, digest_missions);
    double sim_ns_total = 0;
    for (std::uint64_t i = 0; i < digest_missions; ++i) {
      sim_ns_total += std::strtod(loop.missions[i].sim_ns.c_str(), nullptr);
    }
    const std::vector<double> latency = loop.calm_latencies(false);
    metrics["missions_per_s"] = {loop.fit.rate_at_zero, "1/s"};
    metrics["latency_p50_ms"] = {quantile(latency, 0.50), "ms"};
    metrics["latency_p99_ms"] = {quantile(latency, 0.99), "ms"};
    metrics["failed_share"] = {
        static_cast<double>(checks.failed) /
            static_cast<double>(std::max<std::uint64_t>(1, checks.attempted)),
        "share"};
    metrics["setup_s"] = {setup.calm_median(loop.fit), "s"};
    metrics["peak_rss_mb"] = {loop.peak_rss_mb_at_min, "MB"};
    metrics["sim_ms_per_mission"] = {
        sim_ns_total / 1e6 /
            static_cast<double>(std::max<std::uint64_t>(1, digest_missions)),
        "ms"};
    counts.set("missions", static_cast<std::uint64_t>(loop.missions.size()));
    counts.set("latency_samples", static_cast<std::uint64_t>(latency.size()));
    describe_steal(loop, counts);
    counts.set("queue_full", loop.queue_full);
    counts.set("first_server_rejected", service.rejected);
    counts.set("setup_repeats",
               static_cast<std::uint64_t>(setup.seconds.size()));
    counts.set("setup_steal_share_mean", mean(setup.steal));
  } else {
    SpanLog spans;
    LoopConfig loop_config;
    loop_config.port = setup.primed.stack->port();
    loop_config.workload = options.workload;
    loop_config.seed = options.seed;
    loop_config.seconds = std::max(1.0, options.seconds * 0.3);
    const LoopReport untraced = run_closed_loop(loop_config);
    setup.primed.stack.reset();
    check_loop(options, untraced, setup.primed.primes,
               untraced.missions.size(), checks);
    // The traced loop replays the same specs on a second, fresh stack, so
    // the two loops differ only in tracing.
    Primed second = build_primed(options);
    check_primes(options, second.primes, &setup.primed.primes, checks);
    loop_config.port = second.stack->port();
    loop_config.spans = &spans;
    const LoopReport traced = run_closed_loop(loop_config);
    second.stack.reset();
    check_loop(options, traced, setup.primed.primes, traced.missions.size(),
               checks);
    const LadderReport ladder =
        run_ladder(options.workload, options.seed, shape.ladder_missions,
                   options.tmp, &spans);
    checks.attempted += ladder.missions;
    for (const std::string& error : ladder.errors) checks.fail(error);
    metrics.insert(ladder.metrics.begin(), ladder.metrics.end());
    const std::vector<double> acks = traced.calm_latencies(true);
    metrics["svc.ack_ms_p50"] = {quantile(acks, 0.50), "ms"};
    metrics["svc.ack_ms_p99"] = {quantile(acks, 0.99), "ms"};
    metrics["svc.queue_full_rejections"] = {
        static_cast<double>(traced.queue_full), "count"};
    metrics["trace.overhead_share"] = {
        1.0 - traced.fit.rate_at_zero / untraced.fit.rate_at_zero, "share"};
    counts = ladder.counts;
    describe_steal(traced, counts);
    counts.set("untraced_missions",
               static_cast<std::uint64_t>(untraced.missions.size()));
    counts.set("traced_missions",
               static_cast<std::uint64_t>(traced.missions.size()));
    counts.set("spans", static_cast<std::uint64_t>(spans.size()));
    counts.set("spans_dropped", spans.dropped());
    digest = ladder.digest;
    digest_missions = shape.ladder_missions;
    if (!options.trace_out.empty()) {
      if (!spans.write_chrome(options.trace_out)) {
        checks.fail("cannot write trace file " + options.trace_out);
      } else {
        std::printf("perfbench: trace %s (%zu spans)\n",
                    options.trace_out.c_str(), spans.size());
      }
    }
  }

  for (const auto& [name, metric] : metrics) {
    std::printf("perfbench: %-40s %14.6f %s\n", name.c_str(), metric.value,
                metric.unit);
  }
  std::printf("perfbench: counts %s\n", counts.dump().c_str());
  std::printf("perfbench: digest %s over %llu missions\n",
              hex(digest).c_str(),
              static_cast<unsigned long long>(digest_missions));
  for (const std::string& error : checks.errors) {
    std::printf("perfbench: FAIL %s\n", error.c_str());
  }

  Json out = Json::object();
  out.set("correct", checks.failed == 0);
  out.set("attempted", checks.attempted);
  out.set("failed", checks.failed);
  Json metric_json = Json::object();
  for (const auto& [name, metric] : metrics) {
    Json entry = Json::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    metric_json.set(name, std::move(entry));
  }
  out.set("metrics", std::move(metric_json));
  out.set("digest", hex(digest));
  out.set("digest_missions", digest_missions);
  out.set("counts", std::move(counts));
  out.set("config", std::move(config));
  std::printf("%s\n", out.dump().c_str());
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpa_perfbench: %s\n", e.what());
    return 2;
  }
}
