// The paper's program listings, verbatim, assembled and executed — each
// test asserts the behaviour the surrounding prose describes.
#include <gtest/gtest.h>

#include <variant>

#include "src/core/assembler.hpp"
#include "src/core/memory_map.hpp"
#include "src/host/collector.hpp"
#include "src/host/topology.hpp"

namespace tpp {
namespace {

using host::Testbed;

core::Program assembleOrDie(std::string_view src) {
  auto r = core::assemble(src);
  if (auto* e = std::get_if<core::AssemblyError>(&r)) {
    ADD_FAILURE() << "line " << e->line << ": " << e->message;
    return {};
  }
  return std::get<core::Program>(r);
}

struct ListingsFixture : public ::testing::Test {
  Testbed tb;
  std::optional<core::ExecutedTpp> result;

  void SetUp() override {
    buildChain(tb, 3, host::LinkParams{1'000'000'000, sim::Time::us(1)});
    tb.host(0).onTppResult(
        [this](const core::ExecutedTpp& t) { result = t; });
  }

  const core::ExecutedTpp& probe(const core::Program& program) {
    result.reset();
    tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
    tb.sim().run(tb.sim().now() + sim::Time::ms(5));
    EXPECT_TRUE(result.has_value());
    return *result;
  }
};

TEST_F(ListingsFixture, Section21QueueSizeQuery) {
  // "the instruction PUSH [Queue:QueueSize] copies the queue register onto
  //  packet memory. As the packet traverses each hop, the packet memory
  //  records snapshots of queue size statistics at each hop." — §2.1
  const auto& tpp = probe(assembleOrDie(R"(
      .reserve 3
      PUSH [Queue:QueueSize]
  )"));
  // Fig 1: SP advances one word per hop: 0x0 -> 0x4 -> 0x8 -> 0xc.
  EXPECT_EQ(tpp.header.stackPointer, 0xc);
  EXPECT_EQ(tpp.header.hopNumber, 3);
  EXPECT_EQ(host::splitStackRecords(tpp, 1).records.size(), 3u);
}

TEST_F(ListingsFixture, Section22Phase1Collect) {
  // The RCP* rate controller's collect program, verbatim from §2.2.
  const auto& tpp = probe(assembleOrDie(R"(
      PUSH [Switch:SwitchID]
      PUSH [Link:QueueSize]
      PUSH [Link:RX-Utilization]
      PUSH [Link:RCP-RateRegister]
  )"));
  const auto records = host::splitStackRecords(tpp, 4).records;
  ASSERT_EQ(records.size(), 3u);
  // Switch ids identify each hop; the receiver "simply echos a fully
  // executed TPP back to the sender" (tested by getting a result at all).
  EXPECT_EQ(records[0][0], 1u);
  EXPECT_EQ(records[1][0], 2u);
  EXPECT_EQ(records[2][0], 3u);
}

TEST_F(ListingsFixture, Section22Phase3UpdateExecutesOnlyOnBottleneck) {
  // "CEXEC reg,mask,value ensures the TPP executes on a switch only if
  //  (reg & mask) == value… it sends a TPP that only executes on the
  //  bottleneck switch link to update its per-link state." — §2.2
  const std::uint32_t newRateKbps = 4321;
  auto program = assembleOrDie(R"(
      .define BottleneckSwitchID 0x2
      .init 2 4321
      CEXEC [Switch:SwitchID], 0xFFFFFFFF, $BottleneckSwitchID
      STORE [Link:RCP-RateRegister], [Packet:2]
  )");
  probe(program);
  // Only switch 2 (the middle hop) took the write; its egress toward h1 is
  // port 1. Switches 1 and 3 must be untouched.
  EXPECT_EQ(tb.sw(1).scratchRead(core::addr::RcpRateRegister, 1),
            newRateKbps);
  EXPECT_EQ(tb.sw(0).scratchRead(core::addr::RcpRateRegister, 1), 0u);
  EXPECT_EQ(tb.sw(2).scratchRead(core::addr::RcpRateRegister, 1), 0u);
}

TEST_F(ListingsFixture, Section22CstoreSemantics) {
  // "CSTORE dst,cond,src stores src into dst only if dst==cond" — §2.2
  const auto& success = probe(assembleOrDie(R"(
      CSTORE [Sram:Word0], 0, 7
  )"));
  EXPECT_EQ(success.header.faultCode, core::Fault::None);
  EXPECT_EQ(tb.sw(0).scratchRead(core::kSramBase), 7u);
  // Second run: dst is now 7 on every switch, cond 0 no longer matches.
  probe(assembleOrDie("CSTORE [Sram:Word0], 0, 9\n"));
  EXPECT_EQ(tb.sw(0).scratchRead(core::kSramBase), 7u);
}

TEST_F(ListingsFixture, Section23NdbTrace) {
  // The forwarding-plane debugger's per-packet program, verbatim — §2.3.
  const auto& tpp = probe(assembleOrDie(R"(
      PUSH [Switch:ID]
      PUSH [PacketMetadata:MatchedEntryID]
      PUSH [PacketMetadata:InputPort]
  )"));
  const auto records = host::splitStackRecords(tpp, 3).records;
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    EXPECT_GT(rec[0], 0u);   // a real switch id
    EXPECT_GT(rec[1], 0u);   // a version-stamped entry
    EXPECT_EQ(rec[2], 0u);   // arrived on the left port everywhere
  }
}

TEST_F(ListingsFixture, Section322HopAddressing) {
  // "LOAD [Switch:SwitchID], [Packet:hop[1]] will copy the switch ID into
  //  PacketMemory[1] on the first hop, PacketMemory[17] on the second
  //  hop…" (with 16-byte per-hop size; ours uses words) — §3.2.2
  auto program = assembleOrDie(R"(
      .mode hop
      .perhop 4
      .reserve 12
      LOAD [Switch:SwitchID], [Packet:hop[1]]
  )");
  const auto& tpp = probe(program);
  EXPECT_EQ(tpp.pmem[1], 1u);   // hop 0: base 0*4, offset 1
  EXPECT_EQ(tpp.pmem[5], 2u);   // hop 1: base 1*4, offset 1
  EXPECT_EQ(tpp.pmem[9], 3u);   // hop 2
}

TEST_F(ListingsFixture, Section321PacketMetadataAddresses) {
  // "the memory locations 0xa000 + {0x1,0x2} could refer to the input port
  //  and the selected route" — §3.2.1, exercised with literal addresses.
  const auto& tpp = probe(assembleOrDie(R"(
      .reserve 6
      PUSH [0xA001]
      PUSH [0xA002]
  )"));
  const auto records = host::splitStackRecords(tpp, 2).records;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0][0], 0u);  // input port
  EXPECT_EQ(records[0][1], 1u);  // selected route (egress port)
}

}  // namespace
}  // namespace tpp
