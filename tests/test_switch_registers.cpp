// End-to-end verification of every dataplane register a TPP can read,
// against the switch's ground-truth counters — the Table 2 contract, field
// by field.
#include <gtest/gtest.h>

#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/host/collector.hpp"
#include "src/host/flow.hpp"
#include "src/host/topology.hpp"

namespace tpp::asic {
namespace {

namespace addr = core::addr;
using host::Testbed;

struct RegisterFixture : public ::testing::Test {
  Testbed tb;
  std::vector<core::ExecutedTpp> results;

  void SetUp() override {
    buildChain(tb, 2, host::LinkParams{1'000'000'000, sim::Time::us(5)});
    tb.host(0).onTppResult(
        [this](const core::ExecutedTpp& t) { results.push_back(t); });
  }

  // Sends a single-PUSH probe and returns the value read at each hop.
  std::vector<std::uint32_t> readAll(std::uint16_t address) {
    core::ProgramBuilder b;
    b.push(address);
    b.reserve(4);
    const auto before = results.size();
    tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), *b.build());
    tb.sim().run(tb.sim().now() + sim::Time::ms(5));
    if (results.size() != before + 1) return {};
    std::vector<std::uint32_t> out;
    for (const auto& rec : host::splitStackRecords(results.back(), 1).records) {
      out.push_back(rec[0]);
    }
    return out;
  }

  void pumpTraffic(int packets) {
    for (int i = 0; i < packets; ++i) {
      tb.host(0).sendUdp(tb.host(1).mac(), tb.host(1).ip(), 30000, 30000,
                         std::vector<std::uint8_t>(500, 0));
    }
    tb.sim().run(tb.sim().now() + sim::Time::ms(10));
  }
};

TEST_F(RegisterFixture, TxCountersMatchGroundTruth) {
  pumpTraffic(10);
  const auto txPackets = readAll(addr::TxPackets);
  ASSERT_EQ(txPackets.size(), 2u);
  // Probe reads the register BEFORE its own transmission is counted.
  EXPECT_EQ(txPackets[0], tb.sw(0).portStats(1).txPackets - 1);
  const auto txBytes = readAll(addr::TxBytes);
  ASSERT_EQ(txBytes.size(), 2u);
  EXPECT_GT(txBytes[0], 10u * 500u);
}

TEST_F(RegisterFixture, RxCountersUseIngressPort) {
  pumpTraffic(10);
  const auto rxPackets = readAll(addr::RxPackets);
  ASSERT_EQ(rxPackets.size(), 2u);
  // At sw0, ingress is h0's port which saw the 10 data packets + probes.
  EXPECT_GE(rxPackets[0], 11u);
  const auto rxBytes = readAll(addr::RxBytes);
  EXPECT_GE(rxBytes[0], 10u * 500u);
}

TEST_F(RegisterFixture, SwitchTotalsVisible) {
  pumpTraffic(5);
  const auto totalRx = readAll(addr::TotalRxPackets);
  ASSERT_EQ(totalRx.size(), 2u);
  EXPECT_GE(totalRx[0], 6u);
  const auto totalTx = readAll(addr::TotalTxPackets);
  EXPECT_GE(totalTx[0], 6u);
  const auto drops = readAll(addr::TotalDrops);
  EXPECT_EQ(drops[0], tb.sw(0).stats().totalDrops);
}

TEST_F(RegisterFixture, QueueCumulativeCounters) {
  pumpTraffic(10);
  const auto enq = readAll(addr::QueueEnqueuedBytes);
  ASSERT_EQ(enq.size(), 2u);
  // The probe reads the counter before its own enqueue is recorded.
  EXPECT_LT(enq[0], tb.sw(0).queueStats(1, 0).enqueuedBytes);
  EXPECT_GE(tb.sw(0).queueStats(1, 0).enqueuedBytes - enq[0], 60u);
  EXPECT_GT(enq[0], 10u * 500u);
  const auto dropped = readAll(addr::QueueDroppedPackets);
  EXPECT_EQ(dropped[0], 0u);
}

TEST_F(RegisterFixture, QueueCapacityMatchesConfig) {
  const auto cap = readAll(addr::QueueCapacityBytes);
  ASSERT_EQ(cap.size(), 2u);
  EXPECT_EQ(cap[0], tb.sw(0).config().bufferPerQueueBytes);
}

TEST_F(RegisterFixture, CapacityRegisterInMbps) {
  const auto cap = readAll(addr::LinkCapacityMbps);
  ASSERT_EQ(cap.size(), 2u);
  EXPECT_EQ(cap[0], 1000u);  // 1 Gb/s egress
  EXPECT_EQ(cap[1], 1000u);
}

TEST_F(RegisterFixture, TimeHiLowTogetherEncodeNanoseconds) {
  // Advance past 2^32 ns (~4.3 s) so TimeHi is non-zero.
  tb.sim().run(sim::Time::sec(5));
  core::ProgramBuilder b;
  b.push(addr::TimeHi);
  b.push(addr::TimeLo);
  b.reserve(4);
  const auto before = results.size();
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), *b.build());
  tb.sim().run(tb.sim().now() + sim::Time::ms(5));
  ASSERT_EQ(results.size(), before + 1);
  const auto recs = host::splitStackRecords(results.back(), 2).records;
  ASSERT_EQ(recs.size(), 2u);
  const auto ns =
      (static_cast<std::uint64_t>(recs[0][0]) << 32) | recs[0][1];
  EXPECT_NEAR(static_cast<double>(ns), 5e9, 0.1e9);
}

TEST_F(RegisterFixture, RxUtilizationTracksIngressLoad) {
  // 400 Mb/s into sw0's ingress; utilization reads in ppm of 1 Gb/s.
  host::FlowSpec spec;
  spec.dstMac = tb.host(1).mac();
  spec.dstIp = tb.host(1).ip();
  spec.rateBps = 400e6;
  host::PacedFlow flow(tb.host(0), spec, 1);
  flow.start(sim::Time::zero());
  tb.sim().run(sim::Time::ms(50));
  const auto util = readAll(addr::RxUtilization);
  flow.stop();
  tb.sim().run(tb.sim().now() + sim::Time::ms(10));
  ASSERT_EQ(util.size(), 2u);
  EXPECT_NEAR(util[0], 390'000.0, 50'000.0);  // payload fraction of 400k ppm
}

TEST_F(RegisterFixture, PortQueueBytesAggregatesAllQueues) {
  // Steer to queue 5 and pile up a backlog behind a paused egress... the
  // simplest observable: with idle network both reads agree at zero.
  const auto perQueue = readAll(addr::QueueBytes);
  const auto perPort = readAll(addr::PortQueueBytes);
  ASSERT_EQ(perQueue.size(), 2u);
  ASSERT_EQ(perPort.size(), 2u);
  EXPECT_EQ(perQueue[0], 0u);
  EXPECT_EQ(perPort[0], 0u);
}

TEST_F(RegisterFixture, TableVersionsAdvanceWithControlChanges) {
  const auto v1 = readAll(addr::L3TableVersion);
  tb.sw(0).l3().add(net::Ipv4Address::fromOctets(10, 50, 0, 0), 16, 1);
  const auto v2 = readAll(addr::L3TableVersion);
  ASSERT_EQ(v1.size(), 2u);
  ASSERT_EQ(v2.size(), 2u);
  EXPECT_EQ(v2[0], v1[0] + 1);
  EXPECT_EQ(v2[1], v1[1]);  // only sw0 changed

  const auto t1 = readAll(addr::TcamVersion);
  TcamKey k;  // narrow rule that never matches live traffic
  k.ipDst = {net::Ipv4Address::fromOctets(10, 99, 0, 1), 32};
  tb.sw(1).tcam().add(k, TcamAction{0, std::nullopt, true}, -1000);
  const auto t2 = readAll(addr::TcamVersion);
  ASSERT_EQ(t2.size(), 2u);
  EXPECT_EQ(t2[1], t1[1] + 1);
}

TEST_F(RegisterFixture, L2VersionAdvancesOnRelearn) {
  const auto v1 = readAll(addr::L2TableVersion);
  tb.sw(0).l2().add(net::MacAddress::fromIndex(200), 0);
  const auto v2 = readAll(addr::L2TableVersion);
  EXPECT_EQ(v2[0], v1[0] + 1);
}

TEST_F(RegisterFixture, BootEpochReadableAndBumpsOnReboot) {
  const auto e1 = readAll(addr::SwitchBootEpoch);
  ASSERT_EQ(e1.size(), 2u);
  EXPECT_EQ(e1[0], 1u);  // first life
  tb.sw(0).reboot();
  const auto e2 = readAll(addr::SwitchBootEpoch);
  ASSERT_EQ(e2.size(), 2u);
  EXPECT_EQ(e2[0], e1[0] + 1);
  EXPECT_EQ(e2[1], e1[1]);  // only sw0 rebooted
  EXPECT_EQ(tb.sw(0).stats().reboots, 1u);
}

// Satellite: per-port drop-tail counters exposed through the memory map.
TEST(DropCounterRegisters, PerPortDropTailCountersMatchGroundTruth) {
  Testbed tb;
  SwitchConfig cfg;
  cfg.bufferPerQueueBytes = 3000;  // tiny buffer: a 1G burst into 10M drops
  buildDumbbell(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(5)},
                host::LinkParams{10'000'000, sim::Time::us(5)}, cfg);
  std::vector<core::ExecutedTpp> results;
  tb.host(0).onTppResult(
      [&](const core::ExecutedTpp& t) { results.push_back(t); });
  for (int i = 0; i < 50; ++i) {
    tb.host(0).sendUdp(tb.host(1).mac(), tb.host(1).ip(), 30000, 30000,
                       std::vector<std::uint8_t>(1000, 0));
  }
  tb.sim().run(tb.sim().now() + sim::Time::ms(100));  // burst drains

  core::ProgramBuilder b;
  b.push(addr::PortDroppedPackets);
  b.push(addr::PortDroppedBytes);
  b.reserve(4);
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), *b.build());
  tb.sim().run(tb.sim().now() + sim::Time::ms(5));
  ASSERT_EQ(results.size(), 1u);
  const auto recs = host::splitStackRecords(results.back(), 2).records;
  ASSERT_EQ(recs.size(), 2u);

  // Hop 0 = left switch, egress = the dropping bottleneck port (port 1).
  std::uint64_t truthPackets = 0, truthBytes = 0;
  for (std::size_t q = 0; q < tb.sw(0).config().queuesPerPort; ++q) {
    truthPackets += tb.sw(0).queueStats(1, q).droppedPackets;
    truthBytes += tb.sw(0).queueStats(1, q).droppedBytes;
  }
  EXPECT_GT(truthPackets, 0u);
  EXPECT_EQ(recs[0][0], truthPackets);
  EXPECT_EQ(recs[0][1], static_cast<std::uint32_t>(truthBytes));
  // Hop 1 = right switch: nothing dropped toward the receiver.
  EXPECT_EQ(recs[1][0], 0u);
}

}  // namespace
}  // namespace tpp::asic
