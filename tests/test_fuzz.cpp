// Robustness property tests: the dataplane must never crash, corrupt
// memory, or mis-account on adversarial inputs — random programs, random
// bytes, random topologies.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/assembler.hpp"
#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/host/collector.hpp"
#include "src/host/topology.hpp"
#include "src/net/byte_io.hpp"
#include "src/sim/random.hpp"
#include "src/sim/trace.hpp"

namespace tpp {
namespace {

using host::Testbed;

// ----------------------------------------------------- random programs

core::Program randomProgram(sim::Rng& rng) {
  core::ProgramBuilder b;
  const auto instrs = rng.uniformInt(0, 12);
  for (std::int64_t i = 0; i < instrs; ++i) {
    const auto op = static_cast<core::Opcode>(rng.uniformInt(0, 10));
    auto addr = static_cast<std::uint16_t>(rng.uniformInt(0, 0xffff));
    auto off = static_cast<std::uint8_t>(rng.uniformInt(0, 40));
    // Zero the don't-care operand fields (as the builder API does) so
    // assembly text is a complete representation.
    if (op == core::Opcode::Nop) {
      addr = 0;
      off = 0;
    }
    if (op == core::Opcode::Push || op == core::Opcode::Pop) off = 0;
    b.raw({op, addr, off});
  }
  b.task(static_cast<std::uint16_t>(rng.uniformInt(0, 3)));
  if (rng.bernoulli(0.3)) {
    b.mode(core::AddressingMode::Hop);
    b.perHop(static_cast<std::uint8_t>(rng.uniformInt(1, 6)));
  }
  b.reserve(static_cast<std::uint8_t>(rng.uniformInt(0, 32)));
  return *b.build();
}

class RandomProgramFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramFuzz, NetworkSurvivesArbitraryPrograms) {
  Testbed tb;
  buildChain(tb, 3, host::LinkParams{1'000'000'000, sim::Time::us(1)});
  sim::Rng rng(GetParam());

  std::size_t echoed = 0;
  tb.host(0).onTppResult([&](const core::ExecutedTpp& t) {
    ++echoed;
    // Structural invariants that must hold for ANY program:
    EXPECT_LE(t.header.stackPointer,
              t.header.pmemWords * core::kWordSize);
    if (t.header.faultCode != core::Fault::None) {
      EXPECT_TRUE(t.header.flags & core::kFlagFaulted);
    }
    EXPECT_EQ(t.header.hopNumber, 3);  // probes always traverse 3 switches
  });

  const int kProbes = 60;
  for (int i = 0; i < kProbes; ++i) {
    tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(),
                         randomProgram(rng));
  }
  tb.sim().run();
  EXPECT_EQ(echoed, static_cast<std::size_t>(kProbes));
  // Statistics stayed read-only: no fuzz program may alter the switch id
  // or the table versions.
  EXPECT_EQ(tb.sw(0).l3().version(), tb.sw(1).l3().version());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ------------------------------------------------------- random bytes

class RandomBytesFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomBytesFuzz, ParsersRejectGarbageGracefully) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const auto size = static_cast<std::size_t>(rng.uniformInt(0, 200));
    std::vector<std::uint8_t> bytes(size);
    for (auto& byte : bytes) {
      byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
    net::Packet packet(bytes);
    // None of these may crash or read out of bounds; returning nullopt or
    // false is always acceptable.
    (void)core::parseExecuted(packet);
    (void)core::TppView::at(packet, 14);
    (void)core::stripTppShim(packet);
    (void)net::EthernetHeader::parse(packet.span());
    (void)net::Ipv4Header::parse(packet.span());
  }
  SUCCEED();
}

TEST_P(RandomBytesFuzz, SwitchSurvivesGarbageFrames) {
  Testbed tb;
  buildChain(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(1)});
  sim::Rng rng(GetParam() + 1000);
  for (int round = 0; round < 100; ++round) {
    const auto size = static_cast<std::size_t>(rng.uniformInt(14, 300));
    auto packet = net::Packet::make(size);
    for (auto& byte : packet->bytes()) {
      byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
    // Mark a third of them as TPPs so the TCPU path gets fuzzed too.
    if (round % 3 == 0) net::putBe16(packet->span(), 12, net::kEtherTypeTpp);
    tb.sw(0).receive(std::move(packet), 0);
  }
  tb.sim().run();
  // Every frame was either forwarded or counted as a drop/miss.
  const auto& st = tb.sw(0).stats();
  EXPECT_EQ(st.totalRxPackets, 100u);
  EXPECT_EQ(st.totalTxPackets + st.totalDrops, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u));

// -------------------------------------------------- random topologies

class RandomTreeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreeFuzz, RoutingWorksOnRandomTrees) {
  sim::Rng rng(GetParam());
  Testbed tb;
  const auto switches = static_cast<std::size_t>(rng.uniformInt(2, 8));
  asic::SwitchConfig cfg;
  cfg.ports = 16;
  for (std::size_t s = 0; s < switches; ++s) tb.addSwitch(cfg);
  // Random tree over switches: node s>0 links to a random earlier switch.
  std::vector<std::size_t> nextPort(switches, 0);
  for (std::size_t s = 1; s < switches; ++s) {
    const auto parent =
        static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(s) - 1));
    tb.link(tb.sw(s), nextPort[s]++, tb.sw(parent), nextPort[parent]++,
            1'000'000'000, sim::Time::us(1));
  }
  // 2-4 hosts on random switches.
  const auto hosts = static_cast<std::size_t>(rng.uniformInt(2, 4));
  for (std::size_t h = 0; h < hosts; ++h) {
    auto& host = tb.addHost();
    const auto sw =
        static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(switches) - 1));
    tb.link(host, 0, tb.sw(sw), nextPort[sw]++, 1'000'000'000,
            sim::Time::us(1));
  }
  tb.installAllRoutes();

  // All ordered pairs can ping.
  int expected = 0, delivered = 0;
  for (std::size_t a = 0; a < hosts; ++a) {
    for (std::size_t b = 0; b < hosts; ++b) {
      if (a == b) continue;
      ++expected;
      tb.host(b).bindUdp(static_cast<std::uint16_t>(9000 + a),
                         [&](const host::UdpDatagram&) { ++delivered; });
      tb.host(a).sendUdp(tb.host(b).mac(), tb.host(b).ip(),
                         static_cast<std::uint16_t>(9000 + a),
                         static_cast<std::uint16_t>(9000 + a), {});
    }
  }
  tb.sim().run();
  EXPECT_EQ(delivered, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeFuzz,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u));

// ----------------------------------------------- assembler round trips

class AssemblerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssemblerFuzz, DisassembleAssembleIsIdentity) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const auto program = randomProgram(rng);
    const auto text = core::disassemble(program);
    auto result = core::assemble(text);
    ASSERT_TRUE(std::holds_alternative<core::Program>(result)) << text;
    EXPECT_EQ(std::get<core::Program>(result), program) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerFuzz,
                         ::testing::Values(7u, 77u, 777u));

// ------------------------------------------- trace decoder adversarial

class TraceDecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Pure garbage bytes: decode must flag, never crash or accept.
TEST_P(TraceDecoderFuzz, DecoderSurvivesGarbage) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    const auto size = static_cast<std::size_t>(rng.uniformInt(0, 400));
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
    const auto trace = sim::decodeTrace(bytes);
    // Random bytes essentially never form a valid image (magic + version
    // + exact record size), so a clean result implies an empty record set
    // at most — never fabricated structure.
    if (trace.ok) {
      EXPECT_TRUE(trace.records.empty());
    }
  }
}

// A VALID serialized ring, then truncated at every possible length and
// corrupted at random offsets: the decoder must either succeed on the
// intact image or flag (ok=false) — and must never mis-parse silently.
TEST_P(TraceDecoderFuzz, DecoderFlagsTruncationAndCorruption) {
  // The corpus is built by recording into a live ring; under TPP_TRACE=OFF
  // record() is a no-op and there is no intact image to corrupt.
  if (!sim::kTraceCompiledIn) GTEST_SKIP() << "built with TPP_TRACE=OFF";
  sim::Rng rng(GetParam() + 5000);
  sim::Tracer tracer(64);
  const std::uint32_t a1 = tracer.actor("sw0");
  const std::uint32_t a2 = tracer.actor("host0");
  for (int i = 0; i < 100; ++i) {
    tracer.record(sim::Time::us(i), sim::TraceKind::EventFire,
                  i % 2 != 0 ? a1 : a2, static_cast<std::uint16_t>(i % 5),
                  static_cast<std::uint32_t>(i));
  }
  const auto bytes = tracer.serialize();
  const auto intact = sim::decodeTrace(bytes);
  ASSERT_TRUE(intact.ok) << intact.error;
  ASSERT_EQ(intact.records.size(), 64u);  // ring wrapped at capacity
  EXPECT_EQ(intact.overwritten, 36u);
  EXPECT_EQ(intact.actors, (std::vector<std::string>{"sw0", "host0"}));

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    const auto t = sim::decodeTrace(prefix);
    EXPECT_FALSE(t.ok) << "truncation at " << cut << " not flagged";
    EXPECT_FALSE(t.error.empty());
    EXPECT_LE(t.records.size(), intact.records.size());
  }

  for (int round = 0; round < 300; ++round) {
    auto corrupted = bytes;
    const auto flips = rng.uniformInt(1, 8);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(corrupted.size()) - 1));
      corrupted[at] ^= static_cast<std::uint8_t>(
          1u << rng.uniformInt(0, 7));
    }
    const auto t = sim::decodeTrace(corrupted);  // must not crash
    if (t.ok) {
      // Flips can land in record payloads (timestamps, args) the decoder
      // cannot validate — but the structure it reports must stay sane.
      EXPECT_EQ(t.records.size(), intact.records.size());
      EXPECT_EQ(t.actors.size(), intact.actors.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceDecoderFuzz,
                         ::testing::Values(13u, 1313u, 131313u));

// -------------------------------------- hop-record parser adversarial

class RecordSplitFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// splitStackRecords on adversarial ExecutedTpps: random headers
// (stackPointer pointing anywhere, including past pmem), random pmem sizes,
// random valuesPerHop. Must never crash; `truncated` flags the lies.
TEST_P(RecordSplitFuzz, SplitSurvivesCorruptHeaders) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 2000; ++round) {
    core::ExecutedTpp tpp;
    tpp.header.pmemWords = static_cast<std::uint8_t>(rng.uniformInt(0, 64));
    // Deliberately decoupled from pmemWords: a corrupted echo can claim
    // any stack pointer, including far beyond the actual buffer.
    tpp.header.stackPointer =
        static_cast<std::uint16_t>(rng.uniformInt(0, 1024));
    tpp.pmem.resize(static_cast<std::size_t>(rng.uniformInt(0, 64)));
    for (auto& w : tpp.pmem) {
      w = static_cast<std::uint32_t>(rng.uniformInt(0, 1 << 30));
    }
    const auto valuesPerHop =
        static_cast<std::size_t>(rng.uniformInt(1, 8));
    const auto spWords = static_cast<std::size_t>(rng.uniformInt(0, 20));
    const auto split =
        host::splitStackRecords(tpp, valuesPerHop, spWords);
    // Whatever was parsed must actually fit in the real pmem buffer.
    EXPECT_LE(spWords + split.records.size() * valuesPerHop,
              std::max(tpp.pmem.size(), spWords));
    for (const auto& rec : split.records) {
      EXPECT_EQ(rec.size(), valuesPerHop);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordSplitFuzz,
                         ::testing::Values(21u, 2121u, 212121u));

}  // namespace
}  // namespace tpp
