#include "ehw/fpga/config_memory.hpp"

#include <algorithm>
#include <bit>

namespace ehw::fpga {

ConfigMemory::ConfigMemory(std::size_t words, std::size_t block_words)
    : actual_(words, 0),
      intended_(words, 0),
      stuck_mask_(words, 0),
      stuck_value_(words, 0),
      block_words_(block_words == 0 ? words : block_words) {
  EHW_REQUIRE(words > 0, "config memory must not be empty");
  EHW_REQUIRE(words % block_words_ == 0,
              "config blocks must tile the memory exactly");
  EHW_REQUIRE(block_words_ <= 0xFFFFFFFFu, "config block too large");
  block_hash_.resize(words / block_words_);
  for (std::size_t b = 0; b < block_hash_.size(); ++b) {
    block_hash_[b] = compute_block_hash(b);
  }
}

ConfigWord ConfigMemory::read(std::size_t addr) const {
  check(addr);
  return actual_[addr];
}

ConfigWord ConfigMemory::read_intended(std::size_t addr) const {
  check(addr);
  return intended_[addr];
}

std::span<const ConfigWord> ConfigMemory::view(std::size_t base,
                                               std::size_t words) const {
  EHW_REQUIRE(base <= actual_.size() && words <= actual_.size() - base,
              "config view out of range");
  return std::span<const ConfigWord>(actual_).subspan(base, words);
}

void ConfigMemory::write(std::size_t addr, ConfigWord value) {
  check(addr);
  intended_[addr] = value;
  set_actual(addr, apply_stuck(addr, value));
}

void ConfigMemory::write_block(std::size_t base,
                               std::span<const ConfigWord> values) {
  EHW_REQUIRE(base <= actual_.size() && values.size() <= actual_.size() - base,
              "config block write out of range");
  std::size_t i = 0;
  while (i < values.size()) {
    const std::size_t addr = base + i;
    const std::size_t run =
        std::min(block_words_ - addr % block_words_, values.size() - i);
    if (run == block_words_) {
      for (std::size_t k = 0; k < run; ++k) {
        intended_[addr + k] = values[i + k];
        actual_[addr + k] = apply_stuck(addr + k, values[i + k]);
      }
      const std::size_t block = addr / block_words_;
      block_hash_[block] = compute_block_hash(block);
    } else {
      for (std::size_t k = 0; k < run; ++k) {
        intended_[addr + k] = values[i + k];
        set_actual(addr + k, apply_stuck(addr + k, values[i + k]));
      }
    }
    i += run;
  }
}

bool ConfigMemory::rewrite(std::size_t addr) {
  check(addr);
  const ConfigWord fresh = apply_stuck(addr, intended_[addr]);
  const bool changed = fresh != actual_[addr];
  set_actual(addr, fresh);
  return changed;
}

void ConfigMemory::flip_bit(std::size_t addr, unsigned bit) {
  check(addr);
  EHW_REQUIRE(bit < 32, "bit index out of range");
  set_actual(addr, actual_[addr] ^ (ConfigWord{1} << bit));
}

void ConfigMemory::set_stuck_bit(std::size_t addr, unsigned bit,
                                 bool stuck_value) {
  check(addr);
  EHW_REQUIRE(bit < 32, "bit index out of range");
  const ConfigWord m = ConfigWord{1} << bit;
  stuck_mask_[addr] |= m;
  if (stuck_value) {
    stuck_value_[addr] |= m;
  } else {
    stuck_value_[addr] &= ~m;
  }
  // The damage takes effect immediately on the SRAM cell.
  set_actual(addr, apply_stuck(addr, actual_[addr]));
}

void ConfigMemory::clear_stuck_bit(std::size_t addr, unsigned bit) {
  check(addr);
  EHW_REQUIRE(bit < 32, "bit index out of range");
  const ConfigWord m = ConfigWord{1} << bit;
  stuck_mask_[addr] &= ~m;
  stuck_value_[addr] &= ~m;
}

ConfigWord ConfigMemory::stuck_mask(std::size_t addr) const {
  check(addr);
  return stuck_mask_[addr];
}

std::size_t ConfigMemory::upset_word_count() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < actual_.size(); ++i) {
    // A word counts as upset when actual deviates from what a fresh write
    // of the intended value would produce (stuck bits are not "upsets").
    if (actual_[i] != apply_stuck(i, intended_[i])) ++n;
  }
  return n;
}

std::size_t ConfigMemory::stuck_bit_count() const noexcept {
  std::size_t n = 0;
  for (ConfigWord m : stuck_mask_) n += std::popcount(m);
  return n;
}

std::uint64_t ConfigMemory::compute_block_hash(std::size_t block) const {
  EHW_REQUIRE(block < block_hash_.size(), "config block out of range");
  const std::size_t base = block * block_words_;
  std::uint64_t hash = 0;
  for (std::size_t i = 0; i < block_words_; ++i) {
    hash += word_term(i, actual_[base + i]);
  }
  return hash;
}

}  // namespace ehw::fpga
