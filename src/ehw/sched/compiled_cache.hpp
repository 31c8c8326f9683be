#pragma once
// Genotype-keyed compiled-array cache shared by every mission on an
// ArrayPool. The key is EvolvablePlatform::configuration_fingerprint — a
// content hash of the genotype as materialized in configuration memory
// plus the defect map and ACB registers — so identical candidates reached
// by different missions, generations or neutral-drift revisits never
// recompile. Values are shared_ptr<const CompiledArray>: CompiledArray
// evaluation is const and allocation-free, so one instance serves any
// number of concurrently evaluating missions; eviction only drops the
// cache's reference, never an array a wave is still streaming through.
//
// Thread safety: the index is mutex-guarded; compilation runs OUTSIDE the
// lock so a slow compile never serializes unrelated missions. Two threads
// missing the same key may both compile — the first insert wins and the
// loser adopts it, keeping every caller behaviourally identical.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ehw/evo/genotype.hpp"
#include "ehw/pe/compiled.hpp"

namespace ehw::sched {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// How to rebuild one cached compiled array on a fresh pool: the
/// slice-local lane it was compiled for and the genotype line configured
/// there. The key is re-derived (never trusted) on import — a recipe
/// whose recomputed key differs (different platform seed, damaged lane)
/// is silently dropped, so warm-state files can never poison results.
struct CacheRecipe {
  std::uint64_t key = 0;
  std::size_t lane = 0;
  std::string genotype;  // serialize_genotype line
};

class CompiledArrayCache {
 public:
  /// `capacity` is the entry cap (LRU eviction beyond it); 0 disables
  /// caching entirely (every lookup compiles and counts a miss).
  explicit CompiledArrayCache(std::size_t capacity) : capacity_(capacity) {}

  CompiledArrayCache(const CompiledArrayCache&) = delete;
  CompiledArrayCache& operator=(const CompiledArrayCache&) = delete;

  using CompileFn = std::function<pe::CompiledArray()>;

  /// Returns the cached array for `key`, or compiles one via `compile`,
  /// inserts it (evicting the least-recently-used entry at capacity) and
  /// returns it. `was_hit` (optional) reports which path was taken. When
  /// `genotype` is given, an inserted entry records it with `lane` as its
  /// rebuild recipe (under the same lock as the insert).
  [[nodiscard]] std::shared_ptr<const pe::CompiledArray> get_or_compile(
      std::uint64_t key, const CompileFn& compile, bool* was_hit = nullptr,
      std::size_t lane = 0, const evo::Genotype* genotype = nullptr);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] CacheStats stats() const;
  void clear();

  /// Recipes of the currently resident entries, most recently used first
  /// — the persistable image of the cache. Genotypes are serialized here,
  /// not on the compile path.
  [[nodiscard]] std::vector<CacheRecipe> recipes() const;

  /// Inserts a pre-compiled value (warm-state import). Counts neither a
  /// hit nor a miss; no-op when caching is disabled or the key is
  /// already resident.
  void warm_insert(std::uint64_t key, std::size_t lane,
                   evo::Genotype genotype,
                   std::shared_ptr<const pe::CompiledArray> value);

 private:
  struct Entry {
    std::shared_ptr<const pe::CompiledArray> value;
    std::list<std::uint64_t>::iterator lru_pos;
    /// Rebuild recipe; `genotype` empty when never recorded (direct
    /// get_or_compile callers that don't persist).
    std::size_t lane = 0;
    std::optional<evo::Genotype> genotype;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, Entry> index_;
  CacheStats stats_;

  /// Inserts at the MRU end and evicts beyond capacity; caller holds
  /// `mutex_` and has checked that `key` is absent. Returns evictions.
  std::size_t insert_locked(std::uint64_t key, Entry entry);
};

}  // namespace ehw::sched
