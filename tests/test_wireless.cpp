// Wireless SNR annotation (paper §2.3, "Other possibilities").
#include <gtest/gtest.h>

#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/host/collector.hpp"
#include "src/host/topology.hpp"

namespace tpp::asic {
namespace {

using host::Testbed;

TEST(Wireless, SnrIsInTheMemoryMap) {
  EXPECT_EQ(core::MemoryMap::standard().resolve("Link:SNR"),
            core::addr::WirelessSnr);
  EXPECT_FALSE(core::MemoryMap::writable(core::addr::WirelessSnr));
}

TEST(Wireless, SnrDefaultsToZero) {
  Testbed tb;
  buildChain(tb, 1, host::LinkParams{100'000'000, sim::Time::us(10)});
  EXPECT_EQ(tb.sw(0).portSnr(0), 0u);
}

TEST(Wireless, PhySetsAndTppReadsEgressSnr) {
  Testbed tb;
  buildChain(tb, 2, host::LinkParams{100'000'000, sim::Time::us(10)});
  // sw0's port 0 faces h0 (the "station"); sw1's port 1 faces h1.
  tb.sw(0).setPortSnr(0, 2375);  // 23.75 dB
  tb.sw(1).setPortSnr(1, 3150);

  core::ProgramBuilder b;
  b.push(core::addr::WirelessSnr);
  b.reserve(4);
  std::optional<core::ExecutedTpp> result;
  // Downlink probe: h1 -> h0, so the egress port at sw0 is the wireless one.
  tb.host(0).onTppArrival([&](const core::ExecutedTpp& t) { result = t; });
  tb.host(1).sendUdpWithTpp(tb.host(0).mac(), tb.host(0).ip(), 40, 40, {},
                            *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  const auto records = host::splitStackRecords(*result, 1).records;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1][0], 2375u);  // hop 2 = sw0, egress toward h0
}

TEST(Wireless, TppWriteToSnrFaults) {
  Testbed tb;
  buildChain(tb, 1, host::LinkParams{100'000'000, sim::Time::us(10)});
  core::ProgramBuilder b;
  b.storeImm(core::addr::WirelessSnr, 9999);
  std::optional<core::ExecutedTpp> result;
  tb.host(0).onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), *b.build());
  tb.sim().run();
  ASSERT_TRUE(result);
  EXPECT_EQ(result->header.faultCode, core::Fault::ReadOnlyViolation);
  EXPECT_EQ(tb.sw(0).portSnr(1), 0u);
}

TEST(Wireless, RapidSnrChangesVisiblePerProbe) {
  Testbed tb;
  buildChain(tb, 1, host::LinkParams{100'000'000, sim::Time::us(10)});
  core::ProgramBuilder b;
  b.push(core::addr::WirelessSnr);
  b.reserve(2);
  const auto program = *b.build();
  std::vector<std::uint32_t> seen;
  tb.host(0).onTppResult([&](const core::ExecutedTpp& t) {
    const auto recs = host::splitStackRecords(t, 1).records;
    if (!recs.empty()) seen.push_back(recs[0][0]);
  });
  for (int i = 0; i < 5; ++i) {
    tb.sim().schedule(sim::Time::ms(i), [&, i] {
      tb.sw(0).setPortSnr(1, static_cast<std::uint32_t>(1000 + 100 * i));
      tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
    });
  }
  tb.sim().run();
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1000, 1100, 1200, 1300, 1400}));
}

}  // namespace
}  // namespace tpp::asic
