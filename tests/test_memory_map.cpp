#include "src/core/memory_map.hpp"

#include <gtest/gtest.h>

#include <iomanip>
#include <ostream>

namespace tpp::core {
namespace {

TEST(MemoryMap, ResolvesPaperMnemonics) {
  const auto& m = MemoryMap::standard();
  // The exact names the paper's example programs use.
  EXPECT_EQ(m.resolve("Switch:SwitchID"), addr::SwitchId);
  EXPECT_EQ(m.resolve("Switch:ID"), addr::SwitchId);
  EXPECT_EQ(m.resolve("Queue:QueueSize"), addr::QueueBytes);
  EXPECT_EQ(m.resolve("Link:QueueSize"), addr::PortQueueBytes);
  EXPECT_EQ(m.resolve("Link:RX-Utilization"), addr::RxUtilization);
  EXPECT_EQ(m.resolve("Link:RCP-RateRegister"), addr::RcpRateRegister);
  EXPECT_EQ(m.resolve("PacketMetadata:MatchedEntryID"), addr::MatchedEntryId);
  EXPECT_EQ(m.resolve("PacketMetadata:InputPort"), addr::InputPort);
}

TEST(MemoryMap, PaperExampleAddressesMatchText) {
  // §3.2.1: "The memory locations 0xa000 + {0x1,0x2} could refer to the
  // input port and the selected route."
  EXPECT_EQ(addr::InputPort, 0xa001);
  EXPECT_EQ(addr::OutputPort, 0xa002);
  // §2: "[Queue:QueueSize] will be compiled to a virtual memory address
  // (say) 0xb000."
  EXPECT_EQ(addr::QueueBytes, 0xb000);
}

TEST(MemoryMap, UnknownNameFails) {
  EXPECT_FALSE(MemoryMap::standard().resolve("Queue:DoesNotExist"));
  EXPECT_FALSE(MemoryMap::standard().resolve(""));
}

TEST(MemoryMap, ReverseLookup) {
  const auto* info = MemoryMap::standard().lookup(addr::QueueBytes);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "Queue:QueueSize");
  EXPECT_EQ(MemoryMap::standard().lookup(0x0123), nullptr);
}

TEST(MemoryMap, EveryRegisteredStatResolvesToItsAddress) {
  const auto& m = MemoryMap::standard();
  for (const auto& s : m.all()) {
    EXPECT_EQ(m.resolve(s.name), s.address) << s.name;
  }
}

TEST(MemoryMap, AllFourPaperNamespacesPopulated) {
  // Table 2: per-switch, per-port, per-queue, per-packet.
  const auto& m = MemoryMap::standard();
  bool sw = false, port = false, queue = false, pkt = false;
  for (const auto& s : m.all()) {
    switch (MemoryMap::namespaceOf(s.address)) {
      case StatNamespace::Switch: sw = true; break;
      case StatNamespace::Port: port = true; break;
      case StatNamespace::Queue: queue = true; break;
      case StatNamespace::PacketMeta: pkt = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(sw);
  EXPECT_TRUE(port);
  EXPECT_TRUE(queue);
  EXPECT_TRUE(pkt);
}

TEST(MemoryMap, OnlyScratchIsWritable) {
  const auto& m = MemoryMap::standard();
  for (const auto& s : m.all()) {
    const bool scratch =
        MemoryMap::namespaceOf(s.address) == StatNamespace::Sram ||
        MemoryMap::namespaceOf(s.address) == StatNamespace::PortScratch;
    EXPECT_EQ(MemoryMap::writable(s.address), scratch) << s.name;
    EXPECT_EQ(s.access == Access::ReadWrite, scratch) << s.name;
  }
}

TEST(MemoryMap, AddExtendsWithoutBreakingStandard) {
  MemoryMap m = MemoryMap::standard();
  m.add(StatInfo{"Task:MyWord", static_cast<std::uint16_t>(kSramBase + 10),
                 Access::ReadWrite, "test"});
  EXPECT_EQ(m.resolve("Task:MyWord"), kSramBase + 10);
  EXPECT_EQ(m.resolve("Queue:QueueSize"), addr::QueueBytes);
}

struct NamespaceCase {
  std::uint16_t address;
  StatNamespace expected;
};

// Names the case by its address; the default printer would dump the
// struct's bytes, padding included.
void PrintTo(const NamespaceCase& c, std::ostream* os) {
  *os << "0x" << std::hex << std::setw(4) << std::setfill('0') << c.address;
}

class NamespaceBoundaries : public ::testing::TestWithParam<NamespaceCase> {};

TEST_P(NamespaceBoundaries, Classifies) {
  EXPECT_EQ(MemoryMap::namespaceOf(GetParam().address), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Edges, NamespaceBoundaries,
    ::testing::Values(
        NamespaceCase{0x0000, StatNamespace::Unmapped},
        NamespaceCase{0x0fff, StatNamespace::Unmapped},
        NamespaceCase{0x1000, StatNamespace::Switch},
        NamespaceCase{0x1fff, StatNamespace::Switch},
        NamespaceCase{0x2000, StatNamespace::Port},
        NamespaceCase{0x2fff, StatNamespace::Port},
        NamespaceCase{0x3000, StatNamespace::Unmapped},
        NamespaceCase{0x9fff, StatNamespace::Unmapped},
        NamespaceCase{0xa000, StatNamespace::PacketMeta},
        NamespaceCase{0xafff, StatNamespace::PacketMeta},
        NamespaceCase{0xb000, StatNamespace::Queue},
        NamespaceCase{0xbfff, StatNamespace::Queue},
        NamespaceCase{0xc000, StatNamespace::Unmapped},
        NamespaceCase{0xd000, StatNamespace::PortScratch},
        NamespaceCase{0xdfff, StatNamespace::PortScratch},
        NamespaceCase{0xe000, StatNamespace::Sram},
        NamespaceCase{0xffff, StatNamespace::Sram}));

}  // namespace
}  // namespace tpp::core
