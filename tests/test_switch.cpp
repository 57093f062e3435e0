#include "src/asic/switch.hpp"

#include <gtest/gtest.h>

#include "src/apps/ndb.hpp"
#include "src/core/assembler.hpp"
#include "src/core/memory_map.hpp"
#include "src/host/collector.hpp"
#include "src/host/topology.hpp"

namespace tpp::asic {
namespace {

namespace addr = core::addr;
using host::Testbed;

struct ChainFixture : public ::testing::Test {
  Testbed tb;
  void SetUp() override {
    host::LinkParams lp{1'000'000'000, sim::Time::us(1)};
    buildChain(tb, /*switches=*/3, lp);
  }
  host::Host& h0() { return tb.host(0); }
  host::Host& h1() { return tb.host(1); }
};

TEST_F(ChainFixture, UdpDeliveredAcrossChain) {
  std::vector<std::uint8_t> payload{1, 2, 3, 4};
  int delivered = 0;
  h1().bindUdp(5000, [&](const host::UdpDatagram& d) {
    ++delivered;
    EXPECT_EQ(d.srcIp, h0().ip());
    EXPECT_EQ(d.payload.size(), 4u);
    EXPECT_EQ(d.payload[2], 3);
  });
  h0().sendUdp(h1().mac(), h1().ip(), 4000, 5000, payload);
  tb.sim().run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(tb.sw(0).stats().totalRxPackets, 1u);
  EXPECT_EQ(tb.sw(0).stats().totalTxPackets, 1u);
  EXPECT_EQ(tb.sw(2).stats().totalTxPackets, 1u);
}

TEST_F(ChainFixture, UnroutableDestinationCountsMiss) {
  h0().sendUdp(net::MacAddress::fromIndex(99), net::Ipv4Address::forHost(99),
               1, 2, {});
  tb.sim().run();
  EXPECT_EQ(tb.sw(0).stats().forwardingMisses, 1u);
  EXPECT_EQ(tb.sw(0).stats().totalDrops, 1u);
}

TEST_F(ChainFixture, ProbeExecutesOnEveryHop) {
  core::ProgramBuilder b;
  b.push(addr::SwitchId);
  b.reserve(8);
  std::optional<core::ExecutedTpp> result;
  h0().onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  h0().sendProbe(h1().mac(), h1().ip(), *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  EXPECT_EQ(result->header.hopNumber, 3);
  const auto records = host::splitStackRecords(*result, 1).records;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0][0], tb.sw(0).config().switchId);
  EXPECT_EQ(records[1][0], tb.sw(1).config().switchId);
  EXPECT_EQ(records[2][0], tb.sw(2).config().switchId);
}

TEST_F(ChainFixture, PacketMetadataReflectsForwarding) {
  core::ProgramBuilder b;
  b.push(addr::InputPort);
  b.push(addr::OutputPort);
  b.push(addr::MatchedTable);
  b.reserve(9);
  std::optional<core::ExecutedTpp> result;
  h0().onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  h0().sendProbe(h1().mac(), h1().ip(), *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  const auto records = host::splitStackRecords(*result, 3).records;
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec[0], 0u);  // arrived on the left port
    EXPECT_EQ(rec[1], 1u);  // departed on the right port
    // TCAM is empty, dst IP routes via L3 (table id 2).
    EXPECT_EQ(rec[2], 2u);
  }
}

TEST_F(ChainFixture, SwitchStatsNamespaceReadable) {
  core::ProgramBuilder b;
  b.push(addr::PortCount);
  b.push(addr::L3TableVersion);
  b.push(addr::TotalRxPackets);
  b.reserve(9);
  std::optional<core::ExecutedTpp> result;
  h0().onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  h0().sendProbe(h1().mac(), h1().ip(), *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  const auto records = host::splitStackRecords(*result, 3).records;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0][0], tb.sw(0).config().ports);
  EXPECT_EQ(records[0][1], tb.sw(0).l3().version());
  EXPECT_GE(records[0][2], 1u);  // the probe itself was received
}

TEST_F(ChainFixture, TimeRegistersTickWithSimClock) {
  core::ProgramBuilder b;
  b.push(addr::TimeLo);
  b.reserve(4);
  std::vector<std::uint32_t> times;
  h0().onTppResult([&](const core::ExecutedTpp& t) {
    const auto recs = host::splitStackRecords(t, 1).records;
    if (!recs.empty()) times.push_back(recs[0][0]);
  });
  h0().sendProbe(h1().mac(), h1().ip(), *b.build());
  tb.sim().schedule(sim::Time::ms(1), [&] {
    h0().sendProbe(h1().mac(), h1().ip(), *b.build());
  });
  tb.sim().run();
  ASSERT_EQ(times.size(), 2u);
  // Second probe hit switch 0 roughly 1 ms later.
  EXPECT_NEAR(static_cast<double>(times[1] - times[0]), 1e6, 1e5);
}

TEST_F(ChainFixture, ScratchWriteReadAcrossPackets) {
  // Program 1 stores 0xCAFE into global SRAM on every hop; program 2 reads
  // it back — end-hosts communicating through switch memory.
  auto store = core::assemble("STORE [Sram:Word0], 0xCAFE\n");
  auto load = core::assemble(".reserve 4\nPUSH [Sram:Word0]\n");
  std::vector<core::ExecutedTpp> results;
  h0().onTppResult([&](const core::ExecutedTpp& t) { results.push_back(t); });
  h0().sendProbe(h1().mac(), h1().ip(), std::get<core::Program>(store));
  tb.sim().schedule(sim::Time::ms(1), [&] {
    h0().sendProbe(h1().mac(), h1().ip(), std::get<core::Program>(load));
  });
  tb.sim().run();
  ASSERT_EQ(results.size(), 2u);
  const auto records = host::splitStackRecords(results[1], 1).records;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0][0], 0xCAFEu);
  EXPECT_EQ(tb.sw(1).scratchRead(core::kSramBase), 0xCAFEu);
}

TEST_F(ChainFixture, WriteToStatisticFaults) {
  auto program = core::assemble("STORE [Queue:QueueSize], 1\n");
  std::optional<core::ExecutedTpp> result;
  h0().onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  h0().sendProbe(h1().mac(), h1().ip(), std::get<core::Program>(program));
  tb.sim().run();
  ASSERT_TRUE(result);
  EXPECT_EQ(result->header.faultCode, core::Fault::ReadOnlyViolation);
}

TEST_F(ChainFixture, GrantEnforcementFaultsForeignTask) {
  // Install grants: task 1 owns SRAM words [0,4); task 2 owns [4,8).
  for (std::size_t i = 0; i < tb.switchCount(); ++i) {
    ASSERT_TRUE(tb.sw(i).sramAllocator().allocate(1, 4));
    ASSERT_TRUE(tb.sw(i).sramAllocator().allocate(2, 4));
  }
  // Task 2 writing task 1's word 0 must fault.
  core::ProgramBuilder b;
  b.task(2);
  b.storeImm(core::kSramBase + 0, 1);
  std::optional<core::ExecutedTpp> result;
  h0().onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  h0().sendProbe(h1().mac(), h1().ip(), *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  EXPECT_EQ(result->header.faultCode, core::Fault::GrantViolation);
  EXPECT_EQ(tb.sw(0).scratchRead(core::kSramBase), 0u);

  // Task 2 writing its own window succeeds.
  core::ProgramBuilder ok;
  ok.task(2);
  ok.storeImm(core::kSramBase + 4, 7);
  result.reset();
  h0().sendProbe(h1().mac(), h1().ip(), *ok.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  EXPECT_EQ(result->header.faultCode, core::Fault::None);
  EXPECT_EQ(tb.sw(0).scratchRead(core::kSramBase + 4), 7u);
}

TEST_F(ChainFixture, PerPortScratchResolvesAgainstEgress) {
  // Seed different values in each switch's egress-port scratch word 0.
  tb.sw(0).scratchWrite(core::kPortScratchBase, 111, /*port=*/1);
  tb.sw(1).scratchWrite(core::kPortScratchBase, 222, /*port=*/1);
  tb.sw(2).scratchWrite(core::kPortScratchBase, 333, /*port=*/1);
  core::ProgramBuilder b;
  b.push(core::kPortScratchBase);
  b.reserve(4);
  std::optional<core::ExecutedTpp> result;
  h0().onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  h0().sendProbe(h1().mac(), h1().ip(), *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  const auto records = host::splitStackRecords(*result, 1).records;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0][0], 111u);
  EXPECT_EQ(records[1][0], 222u);
  EXPECT_EQ(records[2][0], 333u);
}

TEST_F(ChainFixture, UnmappedAddressFaults) {
  core::ProgramBuilder b;
  b.push(0x0042);
  b.reserve(2);
  std::optional<core::ExecutedTpp> result;
  h0().onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  h0().sendProbe(h1().mac(), h1().ip(), *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  EXPECT_EQ(result->header.faultCode, core::Fault::UnmappedAddress);
  // TPPs forward like normal packets even after faulting.
  EXPECT_EQ(result->header.hopNumber, 3);
}

TEST_F(ChainFixture, TcpuDisabledSkipsExecution) {
  // Rebuild with TCPU off at every switch.
  Testbed tb2;
  asic::SwitchConfig cfg;
  cfg.tcpuEnabled = false;
  buildChain(tb2, 2, host::LinkParams{1'000'000'000, sim::Time::us(1)}, cfg);
  core::ProgramBuilder b;
  b.push(addr::SwitchId);
  b.reserve(4);
  std::optional<core::ExecutedTpp> result;
  tb2.host(1).onTppArrival([&](const core::ExecutedTpp& t) { result = t; });
  tb2.host(0).sendProbe(tb2.host(1).mac(), tb2.host(1).ip(), *b.build());
  tb2.sim().run();
  ASSERT_TRUE(result);
  EXPECT_EQ(result->header.hopNumber, 0);  // nobody executed it
  EXPECT_EQ(result->header.stackPointer, 0);
}

TEST_F(ChainFixture, EdgeFilterStripsAtIngressSwitch) {
  tb.sw(0).edgeFilter().setPortPolicy(0, core::EdgePolicy::Strip);
  bool tppArrived = false;
  int udpArrived = 0;
  h1().onTppArrival([&](const core::ExecutedTpp&) { tppArrived = true; });
  h1().bindUdp(5000, [&](const host::UdpDatagram&) { ++udpArrived; });
  core::ProgramBuilder b;
  b.push(addr::SwitchId);
  b.reserve(4);
  std::vector<std::uint8_t> payload{9};
  h0().sendUdpWithTpp(h1().mac(), h1().ip(), 4000, 5000, payload, *b.build());
  tb.sim().run();
  EXPECT_FALSE(tppArrived);   // shim removed at the edge
  EXPECT_EQ(udpArrived, 1);   // inner datagram still delivered
}

TEST_F(ChainFixture, UtilizationRegisterTracksOfferedLoad) {
  // Saturate the first link for a while, then probe.
  host::FlowSpec spec;
  spec.dstMac = h1().mac();
  spec.dstIp = h1().ip();
  spec.rateBps = 500e6;  // half line rate
  spec.payloadBytes = 1000;
  host::PacedFlow flow(h0(), spec, 1);
  flow.start(sim::Time::zero());
  std::optional<core::ExecutedTpp> result;
  h0().onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  core::ProgramBuilder b;
  b.push(addr::TxUtilization);
  b.reserve(4);
  tb.sim().schedule(sim::Time::ms(50), [&] {
    h0().sendProbe(h1().mac(), h1().ip(), *b.build());
  });
  tb.sim().run(sim::Time::ms(60));
  flow.stop();
  ASSERT_TRUE(result);
  const auto records = host::splitStackRecords(*result, 1).records;
  ASSERT_EQ(records.size(), 3u);
  // Offered load ≈ 50% of capacity, in ppm.
  EXPECT_NEAR(records[0][0], 500'000.0, 60'000.0);
}

TEST(SwitchUnit, TcamDropActionDropsPacket) {
  Testbed tb;
  buildChain(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(1)});
  TcamKey k;
  k.ipDst = {tb.host(1).ip(), 32};
  tb.sw(0).tcam().add(k, TcamAction{0, std::nullopt, /*drop=*/true}, 100);
  int delivered = 0;
  tb.host(1).bindUdp(5000, [&](const host::UdpDatagram&) { ++delivered; });
  tb.host(0).sendUdp(tb.host(1).mac(), tb.host(1).ip(), 4000, 5000, {});
  tb.sim().run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(tb.sw(0).stats().totalDrops, 1u);
}

TEST(SwitchUnit, TcamQueueSteeringVisibleToTpp) {
  Testbed tb;
  buildChain(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(1)});
  // Steer everything to h1 into queue 5 of the egress port.
  TcamKey k;
  k.ipDst = {tb.host(1).ip(), 32};
  tb.sw(0).tcam().add(k, TcamAction{1, std::uint8_t{5}, false}, 100);
  core::ProgramBuilder b;
  b.push(addr::QueueId);
  b.push(addr::MatchedTable);
  b.reserve(2);
  std::optional<core::ExecutedTpp> result;
  tb.host(0).onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  const auto records = host::splitStackRecords(*result, 2).records;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0][0], 5u);
  EXPECT_EQ(records[0][1], 3u);  // TCAM
}

TEST(SwitchUnit, BufferOverflowDropsAndCounts) {
  Testbed tb;
  asic::SwitchConfig cfg;
  cfg.bufferPerQueueBytes = 3000;  // tiny buffer
  // 10 Mb/s bottleneck behind a 1G edge.
  host::LinkParams edge{1'000'000'000, sim::Time::us(1)};
  host::LinkParams bottleneck{10'000'000, sim::Time::us(1)};
  buildDumbbell(tb, 1, edge, bottleneck, cfg);
  host::FlowSpec spec;
  spec.dstMac = tb.host(1).mac();
  spec.dstIp = tb.host(1).ip();
  spec.rateBps = 100e6;  // 10x the bottleneck
  host::PacedFlow flow(tb.host(0), spec, 1);
  flow.start(sim::Time::zero());
  tb.sim().run(sim::Time::ms(20));
  flow.stop();
  tb.sim().run();
  const auto& qs = tb.sw(0).queueStats(1, 0);
  EXPECT_GT(qs.droppedPackets, 0u);
  EXPECT_GT(tb.sw(0).portStats(1).txDrops, 0u);
  EXPECT_LE(qs.bytes, cfg.bufferPerQueueBytes);
}

TEST(SwitchUnit, PipelineDelayDefersForwarding) {
  Testbed tb;
  asic::SwitchConfig cfg;
  cfg.pipelineDelay = sim::Time::us(100);
  buildChain(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(1)}, cfg);
  sim::Time deliveredAt;
  tb.host(1).bindUdp(5000, [&](const host::UdpDatagram&) {
    deliveredAt = tb.sim().now();
  });
  tb.host(0).sendUdp(tb.host(1).mac(), tb.host(1).ip(), 4000, 5000, {});
  tb.sim().run();
  EXPECT_GE(deliveredAt, sim::Time::us(100));
}

}  // namespace
}  // namespace tpp::asic
