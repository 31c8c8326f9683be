#include "ehw/reconfig/pbs_library.hpp"

#include <algorithm>
#include <string>

#include "ehw/common/rng.hpp"

namespace ehw::reconfig {

PbsLibrary::PbsLibrary(std::size_t words_per_slot, std::uint64_t seed)
    : words_per_slot_(words_per_slot) {
  EHW_REQUIRE(words_per_slot_ >= 1, "slot footprint must hold word 0");
  functions_.reserve(kFunctionCount);
  for (std::size_t op = 0; op < kFunctionCount; ++op) {
    functions_.push_back(synthesize(static_cast<std::uint8_t>(op), seed));
  }
  dummy_ = synthesize(kDummyOpcode, seed);
}

const fpga::PartialBitstream& PbsLibrary::function(std::uint8_t opcode) const {
  EHW_REQUIRE(opcode < kFunctionCount, "opcode outside the PE library");
  return functions_[opcode];
}

fpga::PartialBitstream PbsLibrary::synthesize(std::uint8_t opcode,
                                              std::uint64_t seed) const {
  std::vector<fpga::ConfigWord> payload(words_per_slot_);
  for (std::size_t i = 0; i < words_per_slot_; ++i) {
    const std::uint64_t h = hash_mix(seed, opcode, i);
    payload[i] = static_cast<fpga::ConfigWord>(h);
  }
  // Word 0 carries the opcode in its low byte; upper bits stay pattern.
  payload[0] = (payload[0] & ~fpga::ConfigWord{0xFF}) | opcode;
  const std::string name = opcode == kDummyOpcode
                               ? std::string("pbs:dummy")
                               : "pbs:fn" + std::to_string(opcode);
  return fpga::PartialBitstream(name, std::move(payload));
}

bool PbsLibrary::is_intact(std::span<const fpga::ConfigWord> payload) const {
  if (payload.size() != words_per_slot_) return false;
  const std::uint8_t opcode = opcode_of_word0(payload[0]);
  if (opcode >= kFunctionCount) return false;  // dummy or corrupted opcode
  return std::ranges::equal(payload, functions_[opcode].payload());
}

}  // namespace ehw::reconfig
