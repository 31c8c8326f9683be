#include "workloads.hpp"

#include <array>

namespace perfbench {
namespace {

constexpr std::size_t kWarmFingerprints = 12;

// Per-workload salts keep the three spec streams of one seed unrelated.
constexpr std::uint64_t kSaltSmall = 0x5C01D5A11ULL;
constexpr std::uint64_t kSaltLarge = 0x1A26E5ULL;
constexpr std::uint64_t kSaltWarm = 0xC1A57E2ULL;

const std::array<WorkloadShape, 3> kShapes = {{
    {"serve_cold_small", 16, 0, false, 1000, 24, 24, 61},
    {"serve_cold_large", 2, 0, false, 1000, 6, 6, 61},
    {"cluster_warm_mix", 4, 2, true, 1000, 12, 20, 31},
}};

/// Deterministic draw stream for one spec.
class Draw {
 public:
  explicit Draw(std::uint64_t state) noexcept : state_(state) {}
  std::uint64_t next() noexcept { return state_ = mix(state_, 0x9E37); }
  /// Uniform in [lo, hi] (the modulo bias is irrelevant at these ranges).
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

std::string mission_name(const char* prefix, std::uint64_t seed,
                         std::uint64_t index) {
  return std::string(prefix) + "-" + std::to_string(seed) + "-" +
         std::to_string(index);
}

ehw::sched::MissionSpec warm_shape() {
  ehw::sched::MissionSpec spec;
  spec.kind = ehw::sched::MissionKind::kDenoise;
  spec.size = 64;
  spec.generations = 30;
  spec.lanes = 1;
  return spec;
}

ehw::sched::MissionSpec warm_fingerprint(std::uint64_t seed, std::size_t j) {
  ehw::sched::MissionSpec spec = warm_shape();
  spec.name = mission_name("prime", seed, j);
  spec.seed = mix(mix(seed, kSaltWarm), 1'000'000 + j) | 1;
  spec.scene_seed = 7 + j;
  return spec;
}

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool parse_workload(const std::string& name, Workload& out) {
  for (std::size_t i = 0; i < kShapes.size(); ++i) {
    if (name == kShapes[i].name) {
      out = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

const WorkloadShape& shape_of(Workload workload) {
  return kShapes[static_cast<std::size_t>(workload)];
}

std::vector<ehw::sched::MissionSpec> warm_fingerprints(Workload workload,
                                                       std::uint64_t seed) {
  std::vector<ehw::sched::MissionSpec> specs;
  if (workload != Workload::kClusterWarmMix) return specs;
  for (std::size_t j = 0; j < kWarmFingerprints; ++j) {
    specs.push_back(warm_fingerprint(seed, j));
  }
  return specs;
}

int warm_slot(Workload workload, std::uint64_t seed, std::uint64_t index) {
  if (workload != Workload::kClusterWarmMix) return -1;
  if (index % 5 == 4) return -1;  // 1 in 5 is fresh
  Draw draw(mix(mix(seed, kSaltWarm), index));
  return static_cast<int>(draw.next() % kWarmFingerprints);
}

ehw::sched::MissionSpec spec_at(Workload workload, std::uint64_t seed,
                                std::uint64_t index) {
  using ehw::sched::MissionKind;
  ehw::sched::MissionSpec spec;
  switch (workload) {
    case Workload::kServeColdSmall: {
      Draw draw(mix(mix(seed, kSaltSmall), index));
      static constexpr std::array<MissionKind, 4> kKinds = {
          MissionKind::kDenoise, MissionKind::kEdge, MissionKind::kMorphology,
          MissionKind::kCascade};
      // Kind and lane count cycle with the index (every 12 missions hold
      // each pair once), so seeds differ only in sizes, generations and
      // evolution seeds, not in the proportions of the mix.
      spec.kind = kKinds[index % kKinds.size()];
      spec.lanes = 1 + (index / kKinds.size()) % 3;
      spec.size = draw.range(32, 64);
      spec.generations = draw.range(30, 60);
      spec.scene_seed = draw.range(1, 1u << 20);
      spec.seed = draw.next() | 1;  // distinct per mission: memo stays cold
      spec.name = mission_name("cs", seed, index);
      break;
    }
    case Workload::kServeColdLarge: {
      Draw draw(mix(mix(seed, kSaltLarge), index));
      spec.kind = index % 2 == 0 ? MissionKind::kDenoise : MissionKind::kEdge;
      spec.lanes = (index / 2) % 2 == 0 ? 1 : 4;
      spec.size = draw.range(384, 512);
      spec.generations = draw.range(4, 8);
      spec.scene_seed = draw.range(1, 1u << 20);
      spec.seed = draw.next() | 1;
      spec.name = mission_name("cl", seed, index);
      break;
    }
    case Workload::kClusterWarmMix: {
      const int slot = warm_slot(workload, seed, index);
      if (slot >= 0) {
        spec = warm_fingerprint(seed, static_cast<std::size_t>(slot));
      } else {
        spec = warm_shape();
        spec.seed = mix(mix(seed, kSaltWarm), index) | 1;
        spec.scene_seed = 7 + index % kWarmFingerprints;
      }
      spec.name = mission_name("wm", seed, index);
      break;
    }
  }
  return spec;
}

}  // namespace perfbench
