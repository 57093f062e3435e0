// Fat-tree fabric + ECMP multipath forwarding.
#include <gtest/gtest.h>

#include <set>

#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/host/collector.hpp"
#include "src/host/topology.hpp"

namespace tpp::host {
namespace {

struct FatTreeFixture : public ::testing::Test {
  Testbed tb;
  FatTreeIndex ix;
  void SetUp() override {
    ix = buildFatTree(tb, 4, LinkParams{1'000'000'000, sim::Time::us(1)});
  }

  int ping(std::size_t from, std::size_t to) {
    int delivered = 0;
    tb.host(to).bindUdp(9000, [&](const UdpDatagram&) { ++delivered; });
    tb.host(from).sendUdp(tb.host(to).mac(), tb.host(to).ip(), 9000, 9000,
                          {});
    tb.sim().run();
    return delivered;
  }
};

TEST_F(FatTreeFixture, DimensionsForK4) {
  EXPECT_EQ(ix.coreCount(), 4u);
  EXPECT_EQ(ix.hostCount(), 16u);
  EXPECT_EQ(tb.hostCount(), 16u);
  EXPECT_EQ(tb.switchCount(), 4u + 4 * 4u);  // cores + 4 pods x (2+2)
}

TEST_F(FatTreeFixture, SameEdgeDelivery) {
  EXPECT_EQ(ping(ix.host(0, 0, 0), ix.host(0, 0, 1)), 1);
}

TEST_F(FatTreeFixture, IntraPodCrossEdgeDelivery) {
  EXPECT_EQ(ping(ix.host(0, 0, 0), ix.host(0, 1, 1)), 1);
}

TEST_F(FatTreeFixture, CrossPodDelivery) {
  EXPECT_EQ(ping(ix.host(0, 0, 0), ix.host(3, 1, 1)), 1);
}

TEST_F(FatTreeFixture, AllPairsFromOneHost) {
  for (std::size_t to = 1; to < ix.hostCount(); ++to) {
    Testbed tb2;
    auto ix2 = buildFatTree(tb2, 4, LinkParams{1'000'000'000,
                                               sim::Time::us(1)});
    (void)ix2;
    int delivered = 0;
    tb2.host(to).bindUdp(9000, [&](const UdpDatagram&) { ++delivered; });
    tb2.host(0).sendUdp(tb2.host(to).mac(), tb2.host(to).ip(), 9000, 9000,
                        {});
    tb2.sim().run();
    EXPECT_EQ(delivered, 1) << "host 0 -> host " << to;
  }
}

TEST_F(FatTreeFixture, EcmpSpreadsFlowsAcrossCores) {
  // Many distinct flows from pod 0 to pod 1 must exercise more than one
  // core switch.
  for (std::uint16_t flow = 0; flow < 32; ++flow) {
    tb.host(ix.host(0, 0, 0))
        .sendUdp(tb.host(ix.host(1, 0, 0)).mac(),
                 tb.host(ix.host(1, 0, 0)).ip(),
                 static_cast<std::uint16_t>(10000 + flow), 9000, {});
  }
  tb.sim().run();
  std::size_t coresTouched = 0;
  for (std::size_t c = 0; c < ix.coreCount(); ++c) {
    if (tb.sw(ix.coreSw(c)).stats().totalRxPackets > 0) ++coresTouched;
  }
  EXPECT_GE(coresTouched, 2u);
}

TEST_F(FatTreeFixture, OneFlowStaysOnOnePath) {
  // All packets of one 5-tuple hash to the same path: exactly one core
  // sees them.
  for (int i = 0; i < 16; ++i) {
    tb.host(ix.host(0, 0, 0))
        .sendUdp(tb.host(ix.host(2, 0, 0)).mac(),
                 tb.host(ix.host(2, 0, 0)).ip(), 12345, 9000, {});
  }
  tb.sim().run();
  std::size_t coresTouched = 0;
  std::uint64_t packetsAtCores = 0;
  for (std::size_t c = 0; c < ix.coreCount(); ++c) {
    const auto rx = tb.sw(ix.coreSw(c)).stats().totalRxPackets;
    if (rx > 0) ++coresTouched;
    packetsAtCores += rx;
  }
  EXPECT_EQ(coresTouched, 1u);
  EXPECT_EQ(packetsAtCores, 16u);
}

TEST_F(FatTreeFixture, CrossPodPathIsFiveHopsWithEcmpMetadata) {
  core::ProgramBuilder b;
  b.push(core::addr::SwitchId);
  b.push(core::addr::AltRoutes);
  b.reserve(16);
  std::optional<core::ExecutedTpp> result;
  auto& src = tb.host(ix.host(0, 0, 0));
  auto& dst = tb.host(ix.host(1, 0, 0));
  src.onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  src.sendProbe(dst.mac(), dst.ip(), *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  EXPECT_EQ(result->header.hopNumber, 5);
  const auto records = splitStackRecords(*result, 2).records;
  ASSERT_EQ(records.size(), 5u);
  // Upward hops have ECMP alternates; the final edge hop's only
  // "alternate" is the covering default route (no ECMP siblings).
  EXPECT_GE(records[0][1], 1u);   // edge: 2-way up
  EXPECT_GE(records[1][1], 1u);   // agg: 2-way up
  EXPECT_EQ(records[4][1], 1u);   // dest edge: /32 + covering 0/0 default
}

}  // namespace
}  // namespace tpp::host
