#pragma once
// The benchmark's three traffic mixes and their seeded spec generators.
//
// Every spec is a pure function of (workload, seed, index): the program
// under test only ever sees the generated MissionSpecs, and two runs with
// one seed submit byte-identical missions in the same index order.

#include <cstdint>
#include <string>
#include <vector>

#include "ehw/sched/missions.hpp"

namespace perfbench {

enum class Workload : std::uint8_t {
  kServeColdSmall,
  kServeColdLarge,
  kClusterWarmMix,
};

/// Shape of a workload's closed loop and of its traced ladder.
struct WorkloadShape {
  const char* name = "";
  /// Client connections, each with one mission in flight.
  std::size_t connections = 1;
  /// Backends behind a forwarder (0 = clients talk to one server).
  std::size_t backends = 0;
  /// Backends journal to a fresh temp dir (checkpoint every 25 gens).
  bool journaled = false;
  /// Every timed run completes at least this many missions; the results
  /// digest and sim_ms_per_mission cover exactly indices [0, this).
  std::uint64_t min_missions = 1000;
  /// Specs cross-checked against run_spec_standalone after a run.
  std::size_t verify_samples = 16;
  /// Specs the traced ladder walks through every rung.
  std::size_t ladder_missions = 16;
  /// Set-ups timed per run (setup_s is their median).
  std::size_t setup_repeats = 9;
};

[[nodiscard]] bool parse_workload(const std::string& name, Workload& out);
[[nodiscard]] const WorkloadShape& shape_of(Workload workload);

/// The index-th mission of a workload's traffic.
[[nodiscard]] ehw::sched::MissionSpec spec_at(Workload workload,
                                              std::uint64_t seed,
                                              std::uint64_t index);

/// The warm fingerprints cluster_warm_mix repeats (empty for the cold
/// workloads); the set-up's priming pass runs each once.
[[nodiscard]] std::vector<ehw::sched::MissionSpec> warm_fingerprints(
    Workload workload, std::uint64_t seed);

/// Index of the warm fingerprint spec_at(index) repeats, or -1 when the
/// mission is fresh.
[[nodiscard]] int warm_slot(Workload workload, std::uint64_t seed,
                            std::uint64_t index);

/// splitmix64 finaliser over a combined pair: the benchmark's own hash,
/// independent of the program's RNG so inputs never move with it.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept;

}  // namespace perfbench
