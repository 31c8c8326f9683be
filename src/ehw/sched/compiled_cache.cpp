#include "ehw/sched/compiled_cache.hpp"

#include <tuple>

#include "ehw/evo/serialize.hpp"

namespace ehw::sched {

std::shared_ptr<const pe::CompiledArray> CompiledArrayCache::get_or_compile(
    std::uint64_t key, const CompileFn& compile, bool* was_hit,
    std::size_t lane, const evo::Genotype* genotype) {
  if (capacity_ == 0) {
    {
      std::lock_guard lock(mutex_);
      ++stats_.misses;
    }
    if (was_hit != nullptr) *was_hit = false;
    return std::make_shared<const pe::CompiledArray>(compile());
  }

  {
    std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      if (was_hit != nullptr) *was_hit = true;
      return it->second.value;
    }
    ++stats_.misses;
  }
  if (was_hit != nullptr) *was_hit = false;

  // Compile (and copy the recipe) outside the lock: a miss must not
  // serialize other missions.
  auto value = std::make_shared<const pe::CompiledArray>(compile());
  std::optional<evo::Genotype> recipe;
  if (genotype != nullptr) recipe = *genotype;

  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent miss inserted first; adopt its (behaviourally
    // identical) instance so everyone shares one copy.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.value;
  }
  stats_.evictions +=
      insert_locked(key, Entry{value, {}, lane, std::move(recipe)});
  return value;
}

std::size_t CompiledArrayCache::insert_locked(std::uint64_t key, Entry entry) {
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
  index_.emplace(key, std::move(entry));
  std::size_t evicted = 0;
  while (index_.size() > capacity_) {
    index_.erase(lru_.back());
    lru_.pop_back();
    ++evicted;
  }
  return evicted;
}

std::size_t CompiledArrayCache::size() const {
  std::lock_guard lock(mutex_);
  return index_.size();
}

CacheStats CompiledArrayCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void CompiledArrayCache::clear() {
  std::lock_guard lock(mutex_);
  index_.clear();
  lru_.clear();
}

std::vector<CacheRecipe> CompiledArrayCache::recipes() const {
  std::vector<std::tuple<std::uint64_t, std::size_t, evo::Genotype>> resident;
  {
    std::lock_guard lock(mutex_);
    resident.reserve(index_.size());
    for (const std::uint64_t key : lru_) {
      const Entry& entry = index_.at(key);
      if (entry.genotype.has_value()) {
        resident.emplace_back(key, entry.lane, *entry.genotype);
      }
    }
  }
  std::vector<CacheRecipe> out;
  out.reserve(resident.size());
  for (const auto& [key, lane, genotype] : resident) {
    out.push_back(CacheRecipe{key, lane, evo::serialize_genotype(genotype)});
  }
  return out;
}

void CompiledArrayCache::warm_insert(
    std::uint64_t key, std::size_t lane, evo::Genotype genotype,
    std::shared_ptr<const pe::CompiledArray> value) {
  if (capacity_ == 0) return;
  std::lock_guard lock(mutex_);
  if (index_.find(key) != index_.end()) return;
  static_cast<void>(insert_locked(
      key, Entry{std::move(value), {}, lane, std::move(genotype)}));
}

}  // namespace ehw::sched
