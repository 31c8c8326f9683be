#include "ehw/pe/decoder.hpp"

#include "ehw/common/rng.hpp"

namespace ehw::pe {

CellConfig decode_slot(const fpga::ConfigMemory& memory,
                       const fpga::FabricGeometry& geometry,
                       const reconfig::PbsLibrary& library,
                       const fpga::SlotAddress& slot) {
  const std::span<const fpga::ConfigWord> payload = memory.view(
      geometry.slot_word_base(slot), geometry.words_per_slot());

  CellConfig config;
  if (library.is_intact(payload)) {
    config.op = static_cast<PeOp>(
        reconfig::PbsLibrary::opcode_of_word0(payload[0]));
    config.defective = false;
    return config;
  }
  // Any deviation from a library PBS — dummy payload, SEU-flipped bit,
  // stuck LPD bit, invalid opcode — misbehaves at the PE output.
  config.op = PeOp::kIdentityW;  // irrelevant; defective path wins
  config.defective = true;
  // Seed ties the random behaviour to the exact corrupted content and
  // location, so two different corruptions behave differently but each
  // is reproducible. Only defective slots pay for the content hash.
  std::uint64_t content_hash = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    content_hash = hash_mix(content_hash, payload[i], i);
  }
  config.defect_seed =
      hash_mix(content_hash, slot.array, slot.row * 97 + slot.col);
  return config;
}

SystolicArray decode_array(const fpga::ConfigMemory& memory,
                           const fpga::FabricGeometry& geometry,
                           const reconfig::PbsLibrary& library,
                           std::size_t array_index,
                           const std::vector<std::uint8_t>& input_taps,
                           std::uint8_t output_row) {
  const fpga::ArrayShape& shape = geometry.shape();
  EHW_REQUIRE(input_taps.size() == shape.rows + shape.cols,
              "one tap per array input required");
  SystolicArray array(shape);
  for (std::size_t r = 0; r < shape.rows; ++r) {
    for (std::size_t c = 0; c < shape.cols; ++c) {
      array.set_cell(r, c,
                     decode_slot(memory, geometry, library,
                                 {array_index, r, c}));
    }
  }
  for (std::size_t i = 0; i < input_taps.size(); ++i) {
    array.set_input_select(i, input_taps[i]);
  }
  array.set_output_row(output_row);
  return array;
}

}  // namespace ehw::pe
