#pragma once
// The reconfiguration engine — the modular DPR peripheral of [14] that the
// platform shares between all arrays. Key properties reproduced:
//
//   * there is exactly ONE engine, so every DPR request serializes on it
//     (this is why parallel evolution only overlaps *evaluations*, Fig. 11);
//   * a PE write costs 67.53 us at the nominal 100 MHz ICAP clock,
//     including the readback/relocate/writeback cycle the paper describes
//     (a PE is smaller than a clock-region frame set, so surrounding
//     configuration must be read back and merged);
//   * it can read back a slot, write a library PBS relocated to any slot,
//     and re-write (scrub) a slot.
//
// Scheduling: callers pass an `earliest` simulated time and the timeline
// resource of the target array; the engine books itself + the array and
// returns the busked interval. Functional state (config memory) is updated
// immediately — simulated time is bookkeeping layered on top.

#include <cstdint>
#include <string_view>

#include "ehw/fpga/bitstream.hpp"
#include "ehw/fpga/config_memory.hpp"
#include "ehw/fpga/geometry.hpp"
#include "ehw/reconfig/pbs_library.hpp"
#include "ehw/sim/time.hpp"
#include "ehw/sim/timeline.hpp"
#include "ehw/sim/trace.hpp"

namespace ehw::reconfig {

/// Per-PE reconfiguration latency measured in the paper (§VI.A): 67.53 us
/// with the ICAP at its nominal 100 MHz.
inline constexpr sim::SimTime kPeReconfigTime = sim::microseconds(67.53);

struct EngineStats {
  std::uint64_t pe_writes = 0;
  std::uint64_t readbacks = 0;
  std::uint64_t scrub_rewrites = 0;
  sim::SimTime busy_time = 0;
};

class ReconfigurationEngine {
 public:
  /// The engine registers itself as a timeline resource named "icap".
  ReconfigurationEngine(fpga::ConfigMemory& memory,
                        const fpga::FabricGeometry& geometry,
                        const PbsLibrary& library, sim::Timeline& timeline,
                        sim::Trace* trace = nullptr);

  [[nodiscard]] sim::ResourceId resource() const noexcept { return self_; }
  [[nodiscard]] const PbsLibrary& library() const noexcept { return library_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Writes the library PBS for `opcode` (or the dummy PBS when opcode ==
  /// kDummyOpcode) into `slot`, relocated to the slot's base address.
  /// Books the engine and `array_resource` for kPeReconfigTime starting no
  /// earlier than `earliest`. Returns the occupied interval.
  sim::Interval write_pe(const fpga::SlotAddress& slot, std::uint8_t opcode,
                         sim::SimTime earliest,
                         sim::ResourceId array_resource,
                         std::string_view trace_label = {});

  /// Reads the slot's current actual configuration back (no array booking:
  /// readback does not disturb operation).
  fpga::PartialBitstream readback_slot(const fpga::SlotAddress& slot,
                                       sim::SimTime earliest,
                                       sim::Interval* span = nullptr);

  /// Re-writes the slot from its intended plane (scrub step f of §V.A).
  /// Returns the interval; `corrected`/`uncorrectable` report the outcome.
  sim::Interval scrub_slot(const fpga::SlotAddress& slot, sim::SimTime earliest,
                           sim::ResourceId array_resource,
                           std::size_t* corrected = nullptr,
                           std::size_t* uncorrectable = nullptr);

  /// True iff the slot currently holds an intact library function and
  /// reports which opcode; false means corrupted/dummy content.
  [[nodiscard]] bool slot_intact(const fpga::SlotAddress& slot,
                                 std::uint8_t* opcode_out = nullptr) const;

 private:
  fpga::ConfigMemory& memory_;
  const fpga::FabricGeometry& geometry_;
  const PbsLibrary& library_;
  sim::Timeline& timeline_;
  sim::Trace* trace_;
  sim::ResourceId self_;
  EngineStats stats_;
};

}  // namespace ehw::reconfig
