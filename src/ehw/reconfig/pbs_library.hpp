#pragma once
// The library of pre-synthesized partial bitstreams.
//
// The paper keeps one PBS per PE type in external DDR; the reconfiguration
// engine relocates it into the target slot. Here each function's payload is
// a deterministic pseudo-random word pattern (standing in for LUT/routing
// bits) with the function opcode stored in a defined field of word 0:
//
//   word 0, bits [7:0]  = opcode (0..15 = library functions, 0xFF = dummy)
//   word 0, bits [31:8] + words 1..N-1 = implementation pattern
//
// The PE decoder (ehw::pe) treats ANY deviation of the implementation
// pattern from the library's as a defective PE emitting random values.
// That realizes the paper's PE-level fault model: a fault in any element
// inside a PE corrupts its output.

#include <cstdint>
#include <span>

#include "ehw/fpga/bitstream.hpp"
#include "ehw/fpga/geometry.hpp"

namespace ehw::reconfig {

/// Opcode stored in a dummy-PE bitstream (the fault-injection payload).
inline constexpr std::uint8_t kDummyOpcode = 0xFF;

/// Number of library functions (4-bit gene space, §III.A).
inline constexpr std::size_t kFunctionCount = 16;

class PbsLibrary {
 public:
  /// Builds the library for a fabric with the given slot footprint. `seed`
  /// individualizes the synthetic implementation patterns (any fixed value
  /// is fine; it is part of the "synthesis" of the library).
  PbsLibrary(std::size_t words_per_slot, std::uint64_t seed = 0x5EED5EED);

  /// PBS implementing library function `opcode` (0..15).
  [[nodiscard]] const fpga::PartialBitstream& function(
      std::uint8_t opcode) const;

  /// The dummy-PE PBS used for PE-level fault injection (§VI.D).
  [[nodiscard]] const fpga::PartialBitstream& dummy() const noexcept {
    return dummy_;
  }

  [[nodiscard]] std::size_t words_per_slot() const noexcept {
    return words_per_slot_;
  }

  /// Extracts the opcode field from a slot readback's word 0.
  [[nodiscard]] static std::uint8_t opcode_of_word0(
      fpga::ConfigWord word0) noexcept {
    return static_cast<std::uint8_t>(word0 & 0xFFu);
  }

  /// True iff `payload` matches the library bit pattern for its opcode
  /// exactly (i.e. the slot is healthy). Dummy payloads never match. The
  /// one slot-health check: the decoder and the engine pass a view of
  /// configuration memory straight in.
  [[nodiscard]] bool is_intact(std::span<const fpga::ConfigWord> payload)
      const;

 private:
  [[nodiscard]] fpga::PartialBitstream synthesize(std::uint8_t opcode,
                                                  std::uint64_t seed) const;

  std::size_t words_per_slot_;
  std::vector<fpga::PartialBitstream> functions_;
  fpga::PartialBitstream dummy_;
};

}  // namespace ehw::reconfig
