#include "ehw/fpga/bitstream.hpp"

namespace ehw::fpga {

PartialBitstream readback(const ConfigMemory& memory, std::size_t base,
                          std::size_t words, std::string name) {
  const std::span<const ConfigWord> actual = memory.view(base, words);
  return PartialBitstream(std::move(name),
                          std::vector<ConfigWord>(actual.begin(), actual.end()));
}

void write_payload(ConfigMemory& memory, std::size_t base,
                   const PartialBitstream& pbs) {
  memory.write_block(base, pbs.payload());
}

}  // namespace ehw::fpga
