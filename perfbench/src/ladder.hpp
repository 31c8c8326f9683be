#pragma once
// The traced run's layer ladder. A fixed, seeded sample of the
// workload's specs walks every rung, one mission at a time, each rung
// timed from outside around calls into a module's public functions:
//
//   pe        CompiledArray::fitness_against
//   platform  configure_array / configuration_fingerprint /
//             decode_array / compile_array; run_wave through a timing
//             WaveExecutor decorator (waves, candidates, engine pe_writes)
//   mission   run_spec_standalone, serial and on the host pool
//   sched     ArrayPool::submit -> MissionRunner::wait with a job body
//             that stamps its start and end
//   svc       Client::submit / result against one daemon, plus `stats`
//             round trips
//   svc.forwarder  the same specs through a forwarder over two daemons
//   svc.journal    the same specs against a journaled daemon
//
// "Layer X costs Y" is then the paired difference between adjacent
// rungs on the same specs. Because the sample is sequential, the counts
// (hit rates, waves, pe_writes, journal appends) repeat exactly for a
// seed.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ehw/common/json.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LadderReport {
  /// Per-layer metrics by name (the per_layer names of BENCHMARK.json
  /// that the ladder owns).
  std::map<std::string, Metric> metrics;
  /// Exact counts behind the rates, for count claims.
  ehw::Json counts = ehw::Json::object();
  /// Correctness failures (any rung disagreeing with standalone).
  std::vector<std::string> errors;
  std::uint64_t missions = 0;  // ladder missions attempted (all rungs)
  std::uint64_t failed = 0;
  /// Hash over the ladder's per-spec results; repeats for a seed.
  std::uint64_t digest = 0;
};

/// Index of the first ladder spec (disjoint from the closed loops').
constexpr std::uint64_t kLadderFirstIndex = 1ULL << 40;

[[nodiscard]] LadderReport run_ladder(Workload workload, std::uint64_t seed,
                                      std::size_t missions,
                                      const std::string& tmp_root,
                                      SpanLog* spans);

}  // namespace perfbench
