#include "ehw/reconfig/engine.hpp"

namespace ehw::reconfig {

ReconfigurationEngine::ReconfigurationEngine(
    fpga::ConfigMemory& memory, const fpga::FabricGeometry& geometry,
    const PbsLibrary& library, sim::Timeline& timeline, sim::Trace* trace)
    : memory_(memory),
      geometry_(geometry),
      library_(library),
      timeline_(timeline),
      trace_(trace),
      self_(timeline.add_resource("icap")) {
  EHW_REQUIRE(library_.words_per_slot() == geometry_.words_per_slot(),
              "PBS library footprint must match the fabric slot size");
}

sim::Interval ReconfigurationEngine::write_pe(const fpga::SlotAddress& slot,
                                              std::uint8_t opcode,
                                              sim::SimTime earliest,
                                              sim::ResourceId array_resource,
                                              std::string_view trace_label) {
  const fpga::PartialBitstream& pbs =
      opcode == kDummyOpcode ? library_.dummy() : library_.function(opcode);
  const std::size_t base = geometry_.slot_word_base(slot);
  // Functional effect (relocation = writing the payload at this base).
  fpga::write_payload(memory_, base, pbs);
  // Timing: engine and target array are both busy for the PE write. The
  // 67.53 us constant already covers readback/merge/writeback.
  const sim::Interval span = timeline_.reserve_pair(
      self_, array_resource, earliest, kPeReconfigTime);
  ++stats_.pe_writes;
  stats_.busy_time += span.duration();
  if (trace_ != nullptr) {
    trace_->record(self_, trace_label.empty() ? "R" : trace_label, span);
  }
  return span;
}

fpga::PartialBitstream ReconfigurationEngine::readback_slot(
    const fpga::SlotAddress& slot, sim::SimTime earliest,
    sim::Interval* span) {
  const std::size_t base = geometry_.slot_word_base(slot);
  const std::size_t words = geometry_.words_per_slot();
  // Readback streams frames out of the ICAP: ~1 cycle per word @100 MHz.
  const sim::Interval iv = timeline_.reserve(
      self_, earliest, sim::cycles_at_mhz(words, 100.0));
  ++stats_.readbacks;
  stats_.busy_time += iv.duration();
  if (span != nullptr) *span = iv;
  return fpga::readback(memory_, base, words, "slot-readback");
}

sim::Interval ReconfigurationEngine::scrub_slot(const fpga::SlotAddress& slot,
                                                sim::SimTime earliest,
                                                sim::ResourceId array_resource,
                                                std::size_t* corrected,
                                                std::size_t* uncorrectable) {
  const std::size_t base = geometry_.slot_word_base(slot);
  const std::size_t words = geometry_.words_per_slot();
  std::size_t fixed = 0;
  std::size_t stuck = 0;
  for (std::size_t i = 0; i < words; ++i) {
    const std::size_t addr = base + i;
    if (memory_.read(addr) != memory_.read_intended(addr)) {
      memory_.rewrite(addr);
      if (memory_.read(addr) == memory_.read_intended(addr)) {
        ++fixed;
      } else {
        ++stuck;
      }
    }
  }
  if (corrected != nullptr) *corrected = fixed;
  if (uncorrectable != nullptr) *uncorrectable = stuck;
  // A scrub rewrite costs a full slot write through the same datapath.
  const sim::Interval span = timeline_.reserve_pair(
      self_, array_resource, earliest, kPeReconfigTime);
  ++stats_.scrub_rewrites;
  stats_.busy_time += span.duration();
  if (trace_ != nullptr) trace_->record(self_, "S", span);
  return span;
}

bool ReconfigurationEngine::slot_intact(const fpga::SlotAddress& slot,
                                        std::uint8_t* opcode_out) const {
  const std::span<const fpga::ConfigWord> payload = memory_.view(
      geometry_.slot_word_base(slot), geometry_.words_per_slot());
  if (opcode_out != nullptr) {
    *opcode_out = PbsLibrary::opcode_of_word0(payload[0]);
  }
  return library_.is_intact(payload);
}

}  // namespace ehw::reconfig
