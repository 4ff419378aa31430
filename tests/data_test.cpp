// Unit tests for the BEV raster, the Sample wire layout and the weighted
// dataset store.
#include <gtest/gtest.h>

#include <bit>

#include "data/dataset.h"
#include "data/sample_io.h"

namespace lbchat::data {
namespace {

Sample make(std::uint64_t id, Command cmd = Command::kFollow, double weight = 1.0) {
  Sample s;
  s.bev = BevGrid{kDefaultBevSpec};
  s.command = cmd;
  s.weight = weight;
  s.id = id;
  return s;
}

TEST(BevGridTest, SetAndGet) {
  BevGrid g{kDefaultBevSpec};
  for (int i = 0; i < kDefaultBevSpec.numel(); ++i) {
    ASSERT_EQ(g.at(static_cast<std::size_t>(i)), 0) << i;
  }
  g.set(kDefaultBevSpec, 2, 5, 7);
  EXPECT_EQ(g.at(kDefaultBevSpec, 2, 5, 7), 1);
  EXPECT_EQ(g.at(kDefaultBevSpec, 2, 5, 8), 0);
  EXPECT_EQ(g.at(kDefaultBevSpec, 1, 5, 7), 0);
}

TEST(DataTest, BevIsBitPacked) {
  EXPECT_EQ(BevGrid{kDefaultBevSpec}.bits.size(), 128u);
}

/// The bytes a Sample saves under `spec`.
std::vector<std::uint8_t> saved(const Sample& s, const BevSpec& spec) {
  ByteWriter w;
  Save io{w};
  fields(io, s, spec);
  return w.take();
}

Sample loaded(std::span<const std::uint8_t> bytes, const BevSpec& spec) {
  ByteReader r{bytes};
  Load io{r};
  Sample s;
  fields(io, s, spec);
  EXPECT_TRUE(r.exhausted());
  return s;
}

TEST(BevGridTest, BitOrderIsPinned) {
  // Cell i ([c][r][col] row-major) is bit i%8 of byte i/8, LSB first, in
  // memory and in the saved Sample: after the command byte and the u32
  // length, the BEV bytes are these.
  struct Cell {
    int c, r, col;
    std::size_t byte;
    std::uint8_t value;
  };
  const struct {
    BevSpec spec;
    std::vector<Cell> cells;
  } cases[] = {
      {BevSpec{4, 16, 16, 2.0}, {{0, 0, 0, 0, 0x01}, {0, 0, 9, 1, 0x02}, {1, 2, 3, 36, 0x08},
                                 {3, 15, 15, 127, 0x80}}},
      {BevSpec{4, 8, 8, 2.0}, {{0, 0, 7, 0, 0x80}, {2, 3, 4, 19, 0x10}, {3, 7, 6, 31, 0x40}}},
  };
  for (const auto& tc : cases) {
    Sample s;
    s.bev = BevGrid{tc.spec};
    std::vector<std::uint8_t> want(bev_bytes(tc.spec), 0);
    for (const Cell& cell : tc.cells) {
      s.bev.set(tc.spec, cell.c, cell.r, cell.col);
      want[cell.byte] = cell.value;
    }
    EXPECT_EQ(s.bev.bits, want) << tc.spec.height;
    for (const Cell& cell : tc.cells) {
      EXPECT_EQ(s.bev.at(tc.spec, cell.c, cell.r, cell.col), 1);
      EXPECT_EQ(s.bev.at(cell.byte * 8 + static_cast<std::size_t>(std::countr_zero(cell.value))),
                1);
    }
    const auto bytes = saved(s, tc.spec);
    ASSERT_GE(bytes.size(), 5 + want.size());
    EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin() + 5, bytes.begin() + 5 + want.size()),
              want);
    // Clearing a cell clears only its bit.
    const Cell& first = tc.cells.front();
    s.bev.set(tc.spec, first.c, first.r, first.col, 0);
    want[first.byte] = 0;
    EXPECT_EQ(s.bev.bits, want);
  }
}

TEST(BevGridTest, StrayTailBitsLoadCanonically) {
  // 3x5x5 = 75 cells: the tenth byte carries cells 72..74 in bits 0..2 and
  // five bits that are no cell. A frame with those bits set loads as the
  // frame without them, and re-saves canonically.
  const BevSpec spec{3, 5, 5, 2.0};
  Sample s;
  s.bev = BevGrid{spec};
  s.bev.set(spec, 2, 4, 4);  // cell 74, bit 2 of byte 9
  s.bev.set(spec, 0, 0, 1);
  s.weight = 2.0;
  s.id = 7;
  const auto canonical = saved(s, spec);
  ASSERT_EQ(bev_bytes(spec), 10u);
  const std::size_t last = 5 + 9;
  ASSERT_EQ(canonical[last], 0x04);
  auto stray = canonical;
  stray[last] |= 0xF8;
  const Sample back = loaded(stray, spec);
  EXPECT_EQ(back.bev.bits, s.bev.bits);
  EXPECT_EQ(back.bev.bits.back(), 0x04);
  EXPECT_EQ(saved(back, spec), canonical);
}

TEST(BevGridTest, LoadRejectsABevOfAnotherSpec) {
  Sample s;
  s.bev = BevGrid{BevSpec{4, 8, 8, 2.0}};
  EXPECT_THROW((void)loaded(saved(s, kDefaultBevSpec), kDefaultBevSpec), std::runtime_error);
}

TEST(FrameTest, PackedSampleBytes) {
  // 4*16*16 bits packed = 128 bytes + command + 8 float waypoints + weight.
  EXPECT_EQ(packed_sample_bytes(kDefaultBevSpec), 128u + 1u + 32u + 8u);
}

TEST(DatasetTest, AddAndSize) {
  WeightedDataset ds;
  EXPECT_TRUE(ds.empty());
  ds.add(make(1));
  ds.add(make(2, Command::kLeft, 2.0));
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_DOUBLE_EQ(ds.total_weight(), 3.0);
  EXPECT_TRUE(ds.contains(1));
  EXPECT_FALSE(ds.contains(3));
}

TEST(DatasetTest, NegativeWeightRejected) {
  WeightedDataset ds;
  EXPECT_THROW(ds.add(make(1, Command::kFollow, -1.0)), std::invalid_argument);
}

TEST(DatasetTest, AbsorbDeduplicatesById) {
  WeightedDataset ds;
  ds.add(make(1));
  const std::vector<Sample> incoming{make(1), make(2), make(3), make(2)};
  const auto added = ds.absorb(incoming);
  EXPECT_EQ(added, 2u);  // ids 2 and 3; duplicate id 2 skipped
  EXPECT_EQ(ds.size(), 3u);
}

TEST(DatasetTest, AbsorbKeepsOriginalWeightsByDefault) {
  WeightedDataset ds;
  const std::vector<Sample> incoming{make(7, Command::kLeft, 4.0)};
  ds.absorb(incoming);
  EXPECT_DOUBLE_EQ(ds[0].weight, 4.0);
}

TEST(DatasetTest, AbsorbCanOverrideWeights) {
  WeightedDataset ds;
  const std::vector<Sample> incoming{make(7, Command::kLeft, 4.0)};
  ds.absorb(incoming, 1.5);
  EXPECT_DOUBLE_EQ(ds[0].weight, 1.5);
}

TEST(DatasetTest, SampleBatchThrowsOnEmpty) {
  WeightedDataset ds;
  Rng rng{1};
  EXPECT_THROW(ds.sample_batch(rng, 4), std::logic_error);
}

TEST(DatasetTest, SampleBatchRespectsWeights) {
  WeightedDataset ds;
  ds.add(make(0, Command::kFollow, 1.0));
  ds.add(make(1, Command::kFollow, 9.0));
  Rng rng{5};
  int heavy = 0;
  const int draws = 20000;
  for (int i = 0; i < draws / 10; ++i) {
    for (const auto idx : ds.sample_batch(rng, 10)) heavy += idx == 1 ? 1 : 0;
  }
  EXPECT_NEAR(heavy / static_cast<double>(draws), 0.9, 0.02);
}

TEST(DatasetTest, SampleBatchUniformWhenAllZeroWeights) {
  WeightedDataset ds;
  ds.add(make(0, Command::kFollow, 0.0));
  ds.add(make(1, Command::kFollow, 0.0));
  Rng rng{7};
  int ones = 0;
  const int draws = 10000;
  for (const auto idx : ds.sample_batch(rng, draws)) ones += idx == 1 ? 1 : 0;
  EXPECT_NEAR(ones / static_cast<double>(draws), 0.5, 0.03);
}

TEST(DatasetTest, CommandHistogram) {
  WeightedDataset ds;
  ds.add(make(0, Command::kFollow));
  ds.add(make(1, Command::kLeft));
  ds.add(make(2, Command::kLeft));
  ds.add(make(3, Command::kStraight));
  const auto h = ds.command_histogram();
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 2u);
  EXPECT_EQ(h[2], 0u);
  EXPECT_EQ(h[3], 1u);
}

TEST(DatasetTest, AbsorbAfterManyRoundsStaysDeduplicated) {
  WeightedDataset ds;
  std::vector<Sample> coreset;
  for (std::uint64_t i = 0; i < 50; ++i) coreset.push_back(make(i));
  for (int round = 0; round < 10; ++round) ds.absorb(coreset);
  EXPECT_EQ(ds.size(), 50u);
}

}  // namespace
}  // namespace lbchat::data
