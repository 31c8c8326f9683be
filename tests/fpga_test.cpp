// Tests for ehw/fpga: geometry addressing, the two-plane configuration
// memory, SEU/LPD fault semantics, and scrubbing.

#include <gtest/gtest.h>

#include "ehw/common/rng.hpp"
#include "ehw/fpga/bitstream.hpp"
#include "ehw/fpga/config_memory.hpp"
#include "ehw/fpga/fault.hpp"
#include "ehw/fpga/geometry.hpp"
#include "ehw/fpga/scrubber.hpp"

namespace ehw::fpga {
namespace {

FabricGeometry make_geometry(std::size_t arrays = 3) {
  return FabricGeometry(arrays, ArrayShape{4, 4});
}

TEST(Geometry, SlotIndexingRoundTrips) {
  const FabricGeometry g = make_geometry();
  std::size_t expected = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        const SlotAddress addr{a, r, c};
        EXPECT_EQ(g.slot_index(addr), expected);
        const std::size_t base = g.slot_word_base(addr);
        EXPECT_EQ(g.slot_of_word(base), addr);
        EXPECT_EQ(g.slot_of_word(base + g.words_per_slot() - 1), addr);
        ++expected;
      }
    }
  }
  EXPECT_EQ(g.total_slots(), 48u);
  EXPECT_EQ(g.total_words(), 48u * g.words_per_slot());
}

TEST(Geometry, RejectsOutOfRange) {
  const FabricGeometry g = make_geometry();
  EXPECT_THROW(static_cast<void>(g.slot_index({3, 0, 0})), std::logic_error);
  EXPECT_THROW(static_cast<void>(g.slot_index({0, 4, 0})), std::logic_error);
  EXPECT_THROW(static_cast<void>(g.slot_of_word(g.total_words())),
               std::logic_error);
}

TEST(Geometry, ClbFootprintMatchesPaper) {
  // 4x4 PEs x 10 CLBs + 16 cells of interconnect margin = 176 >= 160:
  // the layout constant the resource model reports separately is the
  // paper's 160-CLB clock region; geometry's own margin covers routing.
  const FabricGeometry g = make_geometry();
  EXPECT_EQ(g.layout().clbs_per_slot, 10u);
  EXPECT_GE(g.clbs_per_array(), 160u);
}

TEST(ConfigMemory, WriteThenRead) {
  ConfigMemory mem(16);
  mem.write(3, 0xDEADBEEF);
  EXPECT_EQ(mem.read(3), 0xDEADBEEFu);
  EXPECT_EQ(mem.read_intended(3), 0xDEADBEEFu);
  EXPECT_EQ(mem.upset_word_count(), 0u);
}

TEST(ConfigMemory, SeuDeviatesAndScrubRestores) {
  ConfigMemory mem(16);
  mem.write(5, 0xFFFF0000);
  mem.flip_bit(5, 0);
  EXPECT_EQ(mem.read(5), 0xFFFF0001u);
  EXPECT_EQ(mem.read_intended(5), 0xFFFF0000u);  // intent unchanged
  EXPECT_EQ(mem.upset_word_count(), 1u);
  EXPECT_TRUE(mem.rewrite(5));
  EXPECT_EQ(mem.read(5), 0xFFFF0000u);
  EXPECT_EQ(mem.upset_word_count(), 0u);
}

TEST(ConfigMemory, StuckBitDefeatsWrites) {
  ConfigMemory mem(16);
  mem.write(2, 0x0);
  mem.set_stuck_bit(2, 4, true);
  EXPECT_EQ(mem.read(2) & (1u << 4), 1u << 4);  // damage immediate
  mem.write(2, 0x0);                             // write cannot clear it
  EXPECT_EQ(mem.read(2), 1u << 4);
  EXPECT_EQ(mem.read_intended(2), 0u);
  mem.rewrite(2);  // scrub cannot clear it either
  EXPECT_EQ(mem.read(2), 1u << 4);
  EXPECT_EQ(mem.stuck_bit_count(), 1u);
  // Stuck deviation is not an "upset" (it is permanent damage).
  EXPECT_EQ(mem.upset_word_count(), 0u);
}

TEST(ConfigMemory, StuckAtZeroForcesZero) {
  ConfigMemory mem(8);
  mem.write(1, 0xFFFFFFFF);
  mem.set_stuck_bit(1, 31, false);
  EXPECT_EQ(mem.read(1), 0x7FFFFFFFu);
  mem.write(1, 0xFFFFFFFF);
  EXPECT_EQ(mem.read(1), 0x7FFFFFFFu);
  mem.clear_stuck_bit(1, 31);
  mem.write(1, 0xFFFFFFFF);
  EXPECT_EQ(mem.read(1), 0xFFFFFFFFu);
}

TEST(ConfigMemory, BoundsChecked) {
  ConfigMemory mem(4);
  EXPECT_THROW(static_cast<void>(mem.read(4)), std::logic_error);
  EXPECT_THROW(mem.write(9, 0), std::logic_error);
  EXPECT_THROW(mem.flip_bit(0, 32), std::logic_error);
}

TEST(Bitstream, ReadbackMatchesWrites) {
  ConfigMemory mem(64);
  std::vector<ConfigWord> payload{1, 2, 3, 4};
  const PartialBitstream pbs("test", payload);
  write_payload(mem, 8, pbs);
  const PartialBitstream back = readback(mem, 8, 4);
  EXPECT_EQ(back, pbs);
  EXPECT_EQ(back.word_count(), 4u);
}

TEST(Bitstream, OutOfRangeRejected) {
  ConfigMemory mem(4);
  const PartialBitstream pbs("p", {1, 2, 3});
  EXPECT_THROW(write_payload(mem, 2, pbs), std::logic_error);
  EXPECT_THROW(readback(mem, 2, 3), std::logic_error);
}

TEST(FaultInjector, SeuJournalAndEffect) {
  const FabricGeometry g = make_geometry();
  ConfigMemory mem(g.total_words());
  FaultInjector inj(mem, g, 99);
  const FaultRecord rec = inj.inject_seu_in_slot({1, 2, 3});
  EXPECT_EQ(rec.kind, FaultKind::kSeu);
  EXPECT_EQ(rec.slot, (SlotAddress{1, 2, 3}));
  // The flip landed inside the slot's word range.
  const std::size_t base = g.slot_word_base({1, 2, 3});
  EXPECT_GE(rec.word, base);
  EXPECT_LT(rec.word, base + g.words_per_slot());
  EXPECT_EQ(mem.upset_word_count(), 1u);
  EXPECT_EQ(inj.journal().size(), 1u);
}

TEST(FaultInjector, LpdIsObservableImmediately) {
  const FabricGeometry g = make_geometry();
  ConfigMemory mem(g.total_words());
  FaultInjector inj(mem, g, 7);
  const FaultRecord rec = inj.inject_lpd_in_slot({0, 0, 0});
  EXPECT_EQ(rec.kind, FaultKind::kLpd);
  // Stuck value is the complement of what was there: the bit now differs
  // from intent.
  const bool bit = (mem.read(rec.word) >> rec.bit) & 1u;
  EXPECT_EQ(bit, rec.stuck_value);
  EXPECT_EQ(mem.stuck_bit_count(), 1u);
}

TEST(FaultInjector, DescribeMentionsLocation) {
  const FabricGeometry g = make_geometry();
  ConfigMemory mem(g.total_words());
  FaultInjector inj(mem, g, 7);
  const FaultRecord rec = inj.inject_seu_anywhere();
  const std::string s = FaultInjector::describe(rec);
  EXPECT_NE(s.find("SEU"), std::string::npos);
  EXPECT_NE(s.find("array="), std::string::npos);
}

TEST(Scrubber, CorrectsSeuReportsLpd) {
  const FabricGeometry g = make_geometry(1);
  ConfigMemory mem(g.total_words());
  // Give intent everywhere.
  for (std::size_t i = 0; i < mem.size(); ++i) mem.write(i, 0xA5A5A5A5);
  FaultInjector inj(mem, g, 3);
  inj.inject_seu_in_slot({0, 1, 1});
  inj.inject_lpd(g.slot_word_base({0, 2, 2}), 3, false);  // A5: bit3 is 0? A5 = 1010 0101 -> bit3=0

  Scrubber scrub(mem, g);
  const ScrubReport r = scrub.scrub_all();
  EXPECT_EQ(r.words_checked, g.total_words());
  EXPECT_EQ(r.words_corrected, 1u);  // the SEU
  // The LPD at bit3 stuck-0 where intent has 0 is masked (no deviation):
  // supported-fault behaviour depends on the configured pattern (§V).
  EXPECT_EQ(mem.upset_word_count(), 0u);
  EXPECT_GT(r.duration, 0);
}

TEST(Scrubber, ReportsUncorrectableWhenStuckDisagrees) {
  const FabricGeometry g = make_geometry(1);
  ConfigMemory mem(g.total_words());
  for (std::size_t i = 0; i < mem.size(); ++i) mem.write(i, 0x0);
  // Stuck-at-1 where intent wants 0: uncorrectable deviation.
  mem.set_stuck_bit(5, 7, true);
  Scrubber scrub(mem, g);
  const ScrubReport r = scrub.scrub_array(0);
  EXPECT_EQ(r.words_corrected, 0u);
  EXPECT_EQ(r.words_uncorrectable, 1u);
  EXPECT_TRUE(r.found_fault());
}

TEST(Scrubber, SlotScrubTouchesOnlySlot) {
  const FabricGeometry g = make_geometry(2);
  ConfigMemory mem(g.total_words());
  for (std::size_t i = 0; i < mem.size(); ++i) mem.write(i, 0xFF00FF00);
  // Upsets in two different slots.
  mem.flip_bit(g.slot_word_base({0, 0, 0}), 1);
  mem.flip_bit(g.slot_word_base({1, 3, 3}), 1);
  Scrubber scrub(mem, g);
  const ScrubReport r = scrub.scrub_slot({0, 0, 0});
  EXPECT_EQ(r.words_corrected, 1u);
  EXPECT_EQ(mem.upset_word_count(), 1u);  // the other slot still upset
}

// --- block hashes ------------------------------------------------------------

void expect_block_hashes_current(const ConfigMemory& mem) {
  for (std::size_t b = 0; b < mem.block_count(); ++b) {
    ASSERT_EQ(mem.block_hash(b), mem.compute_block_hash(b)) << "block " << b;
  }
}

TEST(ConfigMemoryBlocks, EagerHashesMatchRecomputeAfterEveryMutator) {
  constexpr std::size_t kBlock = 10;
  ConfigMemory mem(4 * kBlock, kBlock);
  ASSERT_EQ(mem.block_count(), 4u);
  expect_block_hashes_current(mem);
  Rng rng(77);
  for (int op = 0; op < 2000; ++op) {
    const std::size_t addr = rng.below(mem.size());
    const auto bit = static_cast<unsigned>(rng.below(32));
    switch (rng.below(7)) {
      case 0:
        mem.write(addr, static_cast<ConfigWord>(rng()));
        break;
      case 1: {  // aligned or unaligned multi-word write, maybe spanning blocks
        const std::size_t len = 1 + rng.below(mem.size() - addr);
        std::vector<ConfigWord> words(len);
        for (ConfigWord& w : words) w = static_cast<ConfigWord>(rng());
        mem.write_block(addr, words);
        break;
      }
      case 2: {  // exactly one whole block
        std::vector<ConfigWord> words(kBlock);
        for (ConfigWord& w : words) w = static_cast<ConfigWord>(rng());
        mem.write_block(rng.below(4) * kBlock, words);
        break;
      }
      case 3:
        static_cast<void>(mem.rewrite(addr));
        break;
      case 4:
        mem.flip_bit(addr, bit);
        break;
      case 5:
        mem.set_stuck_bit(addr, bit, rng.chance(0.5));
        break;
      default:
        mem.clear_stuck_bit(addr, bit);
        break;
    }
    expect_block_hashes_current(mem);
  }
}

TEST(ConfigMemoryBlocks, HashDependsOnContentNotPositionOrHistory) {
  ConfigMemory mem(30, 10);
  const std::vector<ConfigWord> payload{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  mem.write_block(0, payload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    mem.write(20 + i, payload[i] ^ 0xFFu);  // different history ...
    mem.write(20 + i, payload[i]);          // ... same final content
  }
  EXPECT_EQ(mem.block_hash(0), mem.block_hash(2));
  EXPECT_NE(mem.block_hash(0), mem.block_hash(1));  // block 1 is all zero
  // Swapping two words changes the hash: offsets are part of each term.
  mem.write(20, payload[1]);
  mem.write(21, payload[0]);
  EXPECT_NE(mem.block_hash(0), mem.block_hash(2));
}

TEST(ConfigMemoryBlocks, DefaultIsOneBlockAndViewsFollowWrites) {
  ConfigMemory mem(16);
  EXPECT_EQ(mem.block_count(), 1u);
  EXPECT_EQ(mem.block_words(), 16u);
  const std::span<const ConfigWord> view = mem.view(4, 3);
  mem.write(5, 0xABCD);
  EXPECT_EQ(view[1], 0xABCDu);
  EXPECT_THROW(static_cast<void>(mem.view(14, 3)), std::logic_error);
  EXPECT_THROW(static_cast<void>(ConfigMemory(16, 5)), std::logic_error);
}

}  // namespace
}  // namespace ehw::fpga
