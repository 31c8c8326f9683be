#pragma once
// SRAM configuration memory model.
//
// Two planes are kept per word:
//   * `actual`   - what the SRAM cells currently hold (what the hardware
//                  decodes into circuit behaviour);
//   * `intended` - what the last deliberate write wanted (the golden image
//                  the scrubber compares against, exactly like scrubbing on
//                  the real device compares against the stored bitstream).
// Faults:
//   * SEU  = a bit flip in `actual` only. A scrub rewrite restores it.
//   * LPD  = stuck-at bits: a (mask, value) pair per word that every write
//            forces, so neither scrubbing nor reconfiguration can clear it.
// This is precisely the transient/permanent distinction of §II and §V.
//
// The memory is split into fixed-size blocks (the platform uses one block
// per PE slot). Every mutator that can change `actual` keeps a content hash
// of each block up to date eagerly, so fingerprinting an array costs one
// read per block instead of one hash per word, and const readers stay free
// of caches (safe to call from several threads at once).

#include <cstdint>
#include <span>
#include <vector>

#include "ehw/common/assert.hpp"

namespace ehw::fpga {

using ConfigWord = std::uint32_t;

class ConfigMemory {
 public:
  /// `block_words` is the hashing granule; 0 makes the whole memory one
  /// block. It must divide `words`.
  explicit ConfigMemory(std::size_t words, std::size_t block_words = 0);

  [[nodiscard]] std::size_t size() const noexcept { return actual_.size(); }

  /// The value hardware sees.
  [[nodiscard]] ConfigWord read(std::size_t addr) const;
  /// The value the last deliberate write intended (golden/scrub reference).
  [[nodiscard]] ConfigWord read_intended(std::size_t addr) const;

  /// Read-only view of `words` actual words starting at `base`. Valid
  /// until the memory is destroyed; contents follow later writes.
  [[nodiscard]] std::span<const ConfigWord> view(std::size_t base,
                                                 std::size_t words) const;

  /// Deliberate configuration write: records intent, then stores the value
  /// with stuck-at bits forced.
  void write(std::size_t addr, ConfigWord value);

  /// Deliberate write of consecutive words starting at `base` (a PBS
  /// payload). Each whole block covered is rehashed once, not per word.
  void write_block(std::size_t base, std::span<const ConfigWord> values);

  /// Re-applies the already-intended value (a scrub rewrite): clears SEUs,
  /// cannot clear stuck bits. Returns true if `actual` changed.
  bool rewrite(std::size_t addr);

  /// --- fault plane -------------------------------------------------------

  /// Flips one actual bit (Single Event Upset).
  void flip_bit(std::size_t addr, unsigned bit);

  /// Declares a stuck-at bit (Local Permanent Damage): the bit reads as
  /// `stuck_value` forever and writes cannot change it.
  void set_stuck_bit(std::size_t addr, unsigned bit, bool stuck_value);

  /// Removes a stuck-at bit (used by tests to model repair/replacement).
  void clear_stuck_bit(std::size_t addr, unsigned bit);

  [[nodiscard]] ConfigWord stuck_mask(std::size_t addr) const;

  /// Number of words whose actual value differs from intent (upset words).
  [[nodiscard]] std::size_t upset_word_count() const noexcept;

  /// Number of declared stuck bits over the whole memory.
  [[nodiscard]] std::size_t stuck_bit_count() const noexcept;

  /// --- block hashes --------------------------------------------------------

  [[nodiscard]] std::size_t block_words() const noexcept {
    return block_words_;
  }
  [[nodiscard]] std::size_t block_count() const noexcept {
    return block_hash_.size();
  }

  /// Content hash of the actual words of `block`: a pure function of those
  /// words and their offsets inside the block (not of the block's position
  /// or of how the words got there), kept current by every mutator.
  [[nodiscard]] std::uint64_t block_hash(std::size_t block) const {
    EHW_REQUIRE(block < block_hash_.size(), "config block out of range");
    return block_hash_[block];
  }

  /// Recomputes block_hash(block) from the words (what the eager updates
  /// must always agree with).
  [[nodiscard]] std::uint64_t compute_block_hash(std::size_t block) const;

 private:
  void check(std::size_t addr) const {
    EHW_REQUIRE(addr < actual_.size(), "config address out of range");
  }
  [[nodiscard]] ConfigWord apply_stuck(std::size_t addr,
                                       ConfigWord v) const noexcept {
    return (v & ~stuck_mask_[addr]) | (stuck_value_[addr] & stuck_mask_[addr]);
  }

  /// A block hash is the wrapping sum of one term per word: the splitmix64
  /// finalizer over (offset in block, word). The finalizer is a bijection,
  /// so changing any single word always changes its block's hash.
  [[nodiscard]] static std::uint64_t word_term(std::size_t offset,
                                               ConfigWord word) noexcept {
    std::uint64_t z = ((static_cast<std::uint64_t>(offset) << 32) | word) +
                      0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Stores a new actual value and moves its block hash by the delta.
  void set_actual(std::size_t addr, ConfigWord value) noexcept {
    const std::size_t offset = addr % block_words_;
    std::uint64_t& hash = block_hash_[addr / block_words_];
    hash += word_term(offset, value) - word_term(offset, actual_[addr]);
    actual_[addr] = value;
  }

  std::vector<ConfigWord> actual_;
  std::vector<ConfigWord> intended_;
  std::vector<ConfigWord> stuck_mask_;
  std::vector<ConfigWord> stuck_value_;
  std::size_t block_words_;
  std::vector<std::uint64_t> block_hash_;
};

}  // namespace ehw::fpga
