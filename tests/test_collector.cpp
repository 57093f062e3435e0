#include "src/host/collector.hpp"

#include <gtest/gtest.h>

namespace tpp::host {
namespace {

core::ExecutedTpp stackTpp(std::vector<std::uint32_t> pmem,
                           std::uint16_t spBytes, std::uint8_t hops = 0) {
  core::ExecutedTpp t;
  t.header.pmemWords = static_cast<std::uint8_t>(pmem.size());
  t.header.stackPointer = spBytes;
  t.header.hopNumber = hops;
  t.pmem = std::move(pmem);
  return t;
}

TEST(SplitStackRecords, EvenRecords) {
  const auto t = stackTpp({1, 2, 3, 4, 5, 6}, 24);
  const auto recs = splitStackRecords(t, 2).records;
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0], (HopRecord{1, 2}));
  EXPECT_EQ(recs[2], (HopRecord{5, 6}));
}

TEST(SplitStackRecords, PartialTailDiscarded) {
  const auto t = stackTpp({1, 2, 3, 4, 5}, 20);
  const auto split = splitStackRecords(t, 2);
  EXPECT_EQ(split.records.size(), 2u);
  EXPECT_TRUE(split.truncated);
}

TEST(SplitStackRecords, RespectsStackPointerNotCapacity) {
  // 8 words allocated, only 4 pushed.
  const auto t = stackTpp({1, 2, 3, 4, 0, 0, 0, 0}, 16);
  const auto split = splitStackRecords(t, 2);
  EXPECT_EQ(split.records.size(), 2u);
  EXPECT_FALSE(split.truncated);
}

TEST(SplitStackRecords, SkipsImmediateRegion) {
  // Two immediates, then one record of two values.
  const auto t = stackTpp({0xff, 0x02, 10, 20}, 16);
  const auto recs = splitStackRecords(t, 2, /*initialSpWords=*/2).records;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0], (HopRecord{10, 20}));
}

TEST(SplitStackRecords, ZeroValuesPerHopIsEmpty) {
  const auto t = stackTpp({1, 2}, 8);
  EXPECT_TRUE(splitStackRecords(t, 0).records.empty());
}

TEST(SplitHopRecords, UsesHopCountAndPerHopSize) {
  core::ExecutedTpp t;
  t.header.perHopWords = 2;
  t.header.hopNumber = 2;
  t.header.pmemWords = 6;
  t.pmem = {1, 2, 3, 4, 99, 99};  // third record not reached
  const auto recs = splitHopRecords(t);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0], (HopRecord{1, 2}));
  EXPECT_EQ(recs[1], (HopRecord{3, 4}));
}

TEST(SplitHopRecords, TruncatesAtMemoryEnd) {
  core::ExecutedTpp t;
  t.header.perHopWords = 4;
  t.header.hopNumber = 3;  // claims 3 hops but memory holds 2 records
  t.header.pmemWords = 8;
  t.pmem = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(splitHopRecords(t).size(), 2u);
}

TEST(SplitHopRecords, ZeroPerHopIsEmpty) {
  core::ExecutedTpp t;
  t.header.perHopWords = 0;
  t.header.hopNumber = 3;
  EXPECT_TRUE(splitHopRecords(t).empty());
}

TEST(HopSampleAverager, MeansPerHopAndColumn) {
  HopSampleAverager avg(2);
  avg.add({{10, 100}, {20, 200}});
  avg.add({{30, 300}, {40, 400}});
  EXPECT_EQ(avg.probeCount(), 2u);
  EXPECT_EQ(avg.hopCount(), 2u);
  EXPECT_DOUBLE_EQ(avg.mean(0, 0), 20.0);
  EXPECT_DOUBLE_EQ(avg.mean(0, 1), 200.0);
  EXPECT_DOUBLE_EQ(avg.mean(1, 0), 30.0);
  EXPECT_DOUBLE_EQ(avg.mean(1, 1), 300.0);
}

TEST(HopSampleAverager, ToleratesVaryingHopCounts) {
  HopSampleAverager avg(1);
  avg.add({{10}});
  avg.add({{20}, {100}});
  EXPECT_DOUBLE_EQ(avg.mean(0, 0), 15.0);
  EXPECT_DOUBLE_EQ(avg.mean(1, 0), 100.0);  // only one sample at hop 1
}

TEST(HopSampleAverager, OutOfRangeIsZero) {
  HopSampleAverager avg(1);
  avg.add({{10}});
  EXPECT_DOUBLE_EQ(avg.mean(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(avg.mean(0, 5), 0.0);
}

// ------------------------------------------------- multi-word records
//
// The sketch read probe (monitor::CountMinSketch::readProbeProgram) burns
// two CEXEC immediates and pushes 1 + rows words at the one pinned switch:
// a 5-word record behind a 2-word immediate region for the default d = 4.
// These pin the hole-aware splitter on exactly that shape.

TEST(SplitStackRecordsChecked, SketchReadRecordParses) {
  // [imm, imm | epoch, row0..row3], sp = 7 words.
  const auto t = stackTpp({0xffffffff, 1, 3, 51, 52, 50, 53}, 28);
  const auto split = splitStackRecords(t, 5, /*initialSpWords=*/2);
  EXPECT_FALSE(split.truncated);
  ASSERT_TRUE(split.complete(1));
  ASSERT_EQ(split.records.size(), 1u);
  EXPECT_EQ(split.records[0], (HopRecord{3, 51, 52, 50, 53}));
}

TEST(SplitStackRecordsChecked, PartialSketchRecordIsTruncatedNotDropped) {
  // A TPP-unaware hop forwarded mid-push: only 3 of the 5 words landed.
  const auto t = stackTpp({0xffffffff, 1, 3, 51, 52}, 20);
  const auto split = splitStackRecords(t, 5, /*initialSpWords=*/2);
  EXPECT_TRUE(split.truncated);
  EXPECT_TRUE(split.records.empty());
  EXPECT_FALSE(split.complete(1));
}

TEST(SplitStackRecordsChecked, CexecSkippedHopsYieldShortTrace) {
  // Two TCPU hops on the path, but the probe is CEXEC-pinned to one
  // switch: one whole record, structurally clean, short of 2 hops.
  const auto t = stackTpp({0xffffffff, 1, 3, 51, 52, 50, 53, 0, 0, 0, 0, 0},
                          28, /*hops=*/2);
  const auto split = splitStackRecords(t, 5, /*initialSpWords=*/2);
  EXPECT_FALSE(split.truncated);
  ASSERT_EQ(split.records.size(), 1u);
  EXPECT_TRUE(split.complete(1));
  EXPECT_FALSE(split.complete(2));
}

TEST(SplitStackRecordsChecked, StackPointerPastPmemIsTruncated) {
  // A corrupted header claims more pushed words than packet memory holds.
  const auto t = stackTpp({0xffffffff, 1, 3, 51}, 48);
  const auto split = splitStackRecords(t, 5, /*initialSpWords=*/2);
  EXPECT_TRUE(split.truncated);
  EXPECT_TRUE(split.records.empty());
}

TEST(SplitStackRecordsChecked, StackPointerBelowImmediatesIsTruncated) {
  const auto t = stackTpp({0xffffffff, 1}, 4);
  const auto split = splitStackRecords(t, 5, /*initialSpWords=*/2);
  EXPECT_TRUE(split.truncated);
  EXPECT_TRUE(split.records.empty());
}

TEST(HopSampleAverager, ResetClears) {
  HopSampleAverager avg(1);
  avg.add({{10}});
  avg.reset();
  EXPECT_EQ(avg.probeCount(), 0u);
  EXPECT_EQ(avg.hopCount(), 0u);
  EXPECT_DOUBLE_EQ(avg.mean(0, 0), 0.0);
}

}  // namespace
}  // namespace tpp::host
