// In-switch monitoring subsystem (DESIGN.md §14): count-min sketch
// accuracy against exact ground truth, the host-side readers and the
// CSTORE epoch-reset protocol, Dapper-style flow diagnosis, spin-bit RTT
// tracking, and the dynamic SRAM oracle's cross-check of the full
// monitoring deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/apps/deployment.hpp"
#include "src/apps/task_ids.hpp"
#include "src/core/interference.hpp"
#include "src/host/collector.hpp"
#include "src/host/flow.hpp"
#include "src/host/tcp.hpp"
#include "src/host/telemetry.hpp"
#include "src/host/topology.hpp"
#include "src/monitor/dapper.hpp"
#include "src/monitor/ground_truth.hpp"
#include "src/monitor/sketch.hpp"
#include "src/monitor/spin.hpp"

namespace tpp::monitor {
namespace {

using host::Testbed;

host::LinkParams fastLink() {
  return host::LinkParams{10'000'000'000ull, sim::Time::us(5)};
}

// ------------------------------------------------------------- geometry

TEST(CountMinSketch, GeometryAndBounds) {
  const CountMinSketch s({.taskId = 8, .rows = 4, .width = 64});
  EXPECT_EQ(s.words(), 2 + 4 * 64);
  EXPECT_NEAR(s.epsilon(), std::exp(1.0) / 64.0, 1e-12);
  EXPECT_NEAR(s.delta(), std::exp(-4.0), 1e-12);
}

// ------------------------------------------------- accuracy vs truth

// One switch, the resident update hook, and a mix of heavy and mouse UDP
// flows. The sketch must never underestimate, must stay inside the
// (eps, delta) overestimate bound, and must report every true heavy
// hitter at 2x the threshold (recall 1.0 follows from the no-
// underestimate guarantee — this asserts the deployed artifact actually
// delivers it).
struct SketchRig : public ::testing::Test {
  static constexpr std::uint64_t kHhThreshold = 32;
  Testbed tb;
  CountMinSketch sketch{{.taskId = apps::kTaskSketch, .rows = 4,
                         .width = 16}};
  GroundTruthCounter truth;
  std::uint16_t base = 0;

  void SetUp() override {
    buildChain(tb, 1, fastLink());
    asic::Switch& sw = tb.sw(0);
    std::string whyNot;
    const auto grant = sw.sramAllocator().allocate(
        apps::kTaskSketch, sketch.words(), core::StatNamespace::Sram,
        &whyNot);
    ASSERT_TRUE(grant) << whyNot;
    base = grant->baseAddress();
    ASSERT_TRUE(sw.scratchWrite(
        static_cast<std::uint16_t>(base + CountMinSketch::kThresholdWord),
        static_cast<std::uint32_t>(kHhThreshold)));
    sw.installHook(sketch.updateHook(base));
    sw.setEgressInterceptor(&truth);
  }

  // `packetsPerFlow[f]` UDP packets from host 0 to host 1, each flow on
  // its own source port (distinct 5-tuple, distinct flow hash).
  void offer(const std::vector<std::uint32_t>& packetsPerFlow) {
    std::vector<std::unique_ptr<host::PacedFlow>> flows;
    for (std::size_t f = 0; f < packetsPerFlow.size(); ++f) {
      host::FlowSpec spec;
      spec.dstMac = tb.host(1).mac();
      spec.dstIp = tb.host(1).ip();
      spec.srcPort = static_cast<std::uint16_t>(21000 + f);
      spec.dstPort = 22000;
      spec.payloadBytes = 1000;
      spec.rateBps = 40e6;
      spec.totalBytes = std::uint64_t{1000} * packetsPerFlow[f];
      flows.push_back(
          std::make_unique<host::PacedFlow>(tb.host(0), spec, f));
      flows.back()->start(sim::Time::zero());
    }
    tb.sim().run();
    for (const auto& fl : flows) EXPECT_TRUE(fl->finished());
  }

  CountMinSketch::ReadWordFn readWord() {
    return [this](std::uint16_t address) {
      return tb.sw(0).scratchRead(address);
    };
  }
};

TEST_F(SketchRig, HoldsEpsDeltaBoundAndHeavyHitterRecall) {
  std::vector<std::uint32_t> plan;
  for (int f = 0; f < 4; ++f) plan.push_back(80);  // heavy: >= 2x threshold
  for (int f = 0; f < 56; ++f) {
    plan.push_back(1 + static_cast<std::uint32_t>(f % 9));  // mice
  }
  offer(plan);

  ASSERT_EQ(truth.flows().size(), plan.size());
  // Every eligible packet ran the (single, always-on, stride-1) hook.
  EXPECT_EQ(truth.eligiblePackets(), tb.sw(0).hookExecutions());

  const double epsN =
      sketch.epsilon() * static_cast<double>(truth.eligiblePackets());
  std::uint64_t checks = 0, underestimates = 0, epsViolations = 0;
  std::uint64_t hhTrue = 0, hhMissed = 0;
  for (const auto& [hash, counts] : truth.flows()) {
    const auto est = sketch.estimate(readWord(), base, hash);
    ASSERT_TRUE(est) << "counter read failed for flow " << hash;
    ++checks;
    if (*est < counts.packets) ++underestimates;
    if (static_cast<double>(*est) >
        static_cast<double>(counts.packets) + epsN) {
      ++epsViolations;
    }
    if (counts.packets >= 2 * kHhThreshold) {
      ++hhTrue;
      if (*est < kHhThreshold) ++hhMissed;
    }
  }
  EXPECT_EQ(checks, plan.size());
  EXPECT_EQ(underestimates, 0u);  // count-min never undershoots at stride 1
  const auto allowed = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(3.0 * sketch.delta() * static_cast<double>(checks))));
  EXPECT_LE(epsViolations, allowed);
  EXPECT_EQ(hhTrue, 4u);
  EXPECT_EQ(hhMissed, 0u) << "heavy-hitter recall below 1.0";
}

TEST_F(SketchRig, ReadProbeMatchesControlPlaneEstimate) {
  offer({50, 7, 3});
  // Pick the heavy flow's hash from the ground truth.
  std::uint64_t heavy = 0;
  for (const auto& [hash, counts] : truth.flows()) {
    if (counts.packets == 50) heavy = hash;
  }
  ASSERT_NE(heavy, 0u);

  // The wire reader: a probe that CEXEC-pins to the switch and pushes
  // [epoch, row0..row3] for this flow. Switch ids are 1-based.
  const auto prog = sketch.readProbeProgram(base, /*switchId=*/1, heavy);
  std::optional<core::ExecutedTpp> result;
  tb.host(0).onTppResult(
      [&](const core::ExecutedTpp& t) { result = t; });
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), prog);
  tb.sim().run();
  ASSERT_TRUE(result);

  // CEXEC burned 2 immediate words; one hop pushed 1 + rows values.
  const auto split = host::splitStackRecords(
      *result, 1 + sketch.config().rows, /*initialSpWords=*/2);
  EXPECT_FALSE(split.truncated);
  ASSERT_TRUE(split.complete(1));
  const auto& rec = split.records[0];
  const std::uint32_t epoch = rec[0];
  std::uint32_t minRow = rec[1];
  for (std::size_t r = 2; r < rec.size(); ++r) {
    minRow = std::min(minRow, rec[r]);
  }
  EXPECT_EQ(epoch, *tb.sw(0).scratchRead(
                       static_cast<std::uint16_t>(
                           base + CountMinSketch::kEpochWord)));
  const auto est = sketch.estimate(readWord(), base, heavy);
  ASSERT_TRUE(est);
  EXPECT_EQ(minRow, *est);
  EXPECT_GE(minRow, 50u);
}

TEST_F(SketchRig, EpochResetProtocolBumpsAndZeroes) {
  offer({20});
  std::uint64_t flow = truth.flows().begin()->first;
  const std::uint16_t counter0 = sketch.counterAddress(base, 0, flow);
  const std::uint32_t observed = *tb.sw(0).scratchRead(counter0);
  ASSERT_GE(observed, 20u);

  // A stale expected epoch must not take (CSTORE mismatch)...
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(),
                       sketch.epochBumpProgram(base, 1, /*expected=*/7));
  tb.sim().run();
  const std::uint16_t epochAddr =
      static_cast<std::uint16_t>(base + CountMinSketch::kEpochWord);
  EXPECT_EQ(*tb.sw(0).scratchRead(epochAddr), 0u);

  // ...the current one does, and the observed-value reset zeroes the
  // counter exactly once (a second identical reset misses its CSTORE).
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(),
                       sketch.epochBumpProgram(base, 1, /*expected=*/0));
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(),
                       sketch.counterResetProgram(counter0, 1, observed));
  tb.sim().run();
  EXPECT_EQ(*tb.sw(0).scratchRead(epochAddr), 1u);
  EXPECT_EQ(*tb.sw(0).scratchRead(counter0), 0u);
}

// ------------------------------------------------------------- dapper

TEST(FlowDiagnoser, ClassifiesKnownCauses) {
  const FlowDiagnoser d;  // default knobs
  using V = FlowDiagnoser::Verdict;
  FlowDiagnoser::FlowRecord r;

  r.pkts = 3;
  EXPECT_EQ(d.classify(r), V::Unknown);

  // Advertised window pinched at/below the floor -> receiver-limited.
  r = {.pkts = 100, .bytes = 100'000, .maxGapNs = 10'000,
       .sumGapNs = 990'000, .minWndBytes = 2048};
  EXPECT_EQ(d.classify(r), V::ReceiverLimited);

  // One retransmission-shaped gap dominating the mean -> network-limited.
  r = {.pkts = 100, .bytes = 100'000, .maxGapNs = 200'000'000,
       .sumGapNs = 400'000'000, .minWndBytes = 65'000};
  EXPECT_EQ(d.classify(r), V::NetworkLimited);

  // Arrivals paced far below line rate -> sender-limited.
  r = {.pkts = 100, .bytes = 100'000, .maxGapNs = 30'000'000,
       .sumGapNs = 99 * 20'000'000u, .minWndBytes = 65'000};
  EXPECT_EQ(d.classify(r), V::SenderLimited);

  // Tight, even arrivals with an open window -> healthy.
  r = {.pkts = 100, .bytes = 100'000, .maxGapNs = 50'000,
       .sumGapNs = 990'000, .minWndBytes = 65'000};
  EXPECT_EQ(d.classify(r), V::Healthy);
}

TEST(FlowDiagnoser, VerdictNamesAreStable) {
  using V = FlowDiagnoser::Verdict;
  EXPECT_EQ(verdictName(V::Unknown), "unknown");
  EXPECT_EQ(verdictName(V::ReceiverLimited), "receiver-limited");
  EXPECT_EQ(verdictName(V::NetworkLimited), "network-limited");
  EXPECT_EQ(verdictName(V::SenderLimited), "sender-limited");
  EXPECT_EQ(verdictName(V::Healthy), "healthy");
}

// End-to-end: the resident init/update hook pair records a real TCP
// transfer's segments, and the host-side reader recovers a classifiable
// record keyed by the data direction's flow hash.
TEST(FlowDiagnoser, RecordsLiveTcpFlow) {
  Testbed tb;
  buildChain(tb, 1, fastLink());
  asic::Switch& sw = tb.sw(0);
  const FlowDiagnoser dapper({.taskId = apps::kTaskDapper, .slots = 32});
  std::string whyNot;
  const auto grant = sw.sramAllocator().allocate(
      apps::kTaskDapper, dapper.words(), core::StatNamespace::Sram,
      &whyNot);
  ASSERT_TRUE(grant) << whyNot;
  const std::uint16_t base = grant->baseAddress();
  sw.installHook(dapper.initHook(base));
  sw.installHook(dapper.updateHook(base));
  GroundTruthCounter truth;
  sw.setEgressInterceptor(&truth);

  host::TcpConnection::Config cfg;
  host::TcpListener listener(tb.host(1), 23000, cfg);
  host::TcpConnection conn(tb.host(0), cfg);
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000,
               200 * 1024);
  tb.sim().run(sim::Time::ms(100));
  ASSERT_EQ(conn.bytesAcked(), 200u * 1024);

  // The data direction is the byte-heavy one of the two the switch saw.
  ASSERT_EQ(truth.flows().size(), 2u);
  std::uint64_t dataHash = 0, dataBytes = 0, dataPkts = 0;
  for (const auto& [hash, counts] : truth.flows()) {
    if (counts.bytes > dataBytes) {
      dataHash = hash;
      dataBytes = counts.bytes;
      dataPkts = counts.packets;
    }
  }

  const auto readWord = [&sw](std::uint16_t address) {
    return sw.scratchRead(address);
  };
  const auto rec = dapper.record(readWord, base, dataHash);
  ASSERT_TRUE(rec) << "slot never claimed or lost to a collision";
  EXPECT_GE(rec->pkts, dapper.config().minPackets);
  EXPECT_LE(rec->pkts, dataPkts);
  EXPECT_GT(rec->bytes, 0u);
  EXPECT_GT(rec->minWndBytes, 0u);
  EXPECT_NE(dapper.classify(*rec), FlowDiagnoser::Verdict::Unknown);
}

// --------------------------------------------------------- spin-bit RTT

TEST(SpinRttMonitor, TracksRttOfLiveTcpFlow) {
  Testbed tb;
  // 1 Gb/s, 50 us per link: RTT ~= 4 x 50 us propagation + serialization.
  buildChain(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(50)});
  asic::Switch& sw = tb.sw(0);
  const SpinRttMonitor spin({.taskId = apps::kTaskSpinRtt, .slots = 32});
  std::string whyNot;
  const auto grant = sw.sramAllocator().allocate(
      apps::kTaskSpinRtt, spin.words(), core::StatNamespace::Sram, &whyNot);
  ASSERT_TRUE(grant) << whyNot;
  const std::uint16_t base = grant->baseAddress();
  sw.installHook(spin.hook(base));
  GroundTruthCounter truth;
  sw.setEgressInterceptor(&truth);

  host::TcpConnection::Config cfg;
  host::TcpListener listener(tb.host(1), 23000, cfg);
  host::TcpConnection conn(tb.host(0), cfg);
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000,
               512 * 1024);
  // Sample mid-transfer: the last flip-to-flip interval then reflects the
  // steady-state round trip, not the FIN-side tail of the stream.
  tb.sim().run(sim::Time::ms(3));
  ASSERT_GT(conn.bytesAcked(), 0u);
  ASSERT_LT(conn.bytesAcked(), 512u * 1024);

  std::uint64_t dataHash = 0, dataBytes = 0;
  for (const auto& [hash, counts] : truth.flows()) {
    if (counts.bytes > dataBytes) {
      dataHash = hash;
      dataBytes = counts.bytes;
    }
  }
  const auto readWord = [&sw](std::uint16_t address) {
    return sw.scratchRead(address);
  };
  const auto sample = spin.sample(readWord, base, dataHash);
  tb.sim().run(sim::Time::ms(200));
  ASSERT_EQ(conn.bytesAcked(), 512u * 1024);
  ASSERT_TRUE(sample) << "spin bit never flipped enough to estimate";
  EXPECT_GE(sample->flips, SpinRttMonitor::kMinFlips);
  // The estimate is one full round trip: at least the 200 us propagation
  // floor, and within a small factor of it on this uncongested path.
  EXPECT_GE(sample->rttNs, 200'000u);
  EXPECT_LE(sample->rttNs, 2'000'000u);
}

// ------------------------------------- static/dynamic oracle cross-check

// The full monitoring deployment (sketch + dapper + spin resident hooks)
// under live traffic: the dynamic SRAM race oracle must observe zero
// conflicts the static interference analysis did not predict — and since
// the static report certifies the monitor tasks conflict-free, zero
// conflicts at all.
TEST(MonitorDeployment, OracleSeesNoStaticDynamicDivergence) {
  Testbed tb;
  buildChain(tb, 1, fastLink());
  asic::Switch& sw = tb.sw(0);

  const CountMinSketch sketch({.taskId = apps::kTaskSketch});
  const FlowDiagnoser dapper({.taskId = apps::kTaskDapper});
  const SpinRttMonitor spin({.taskId = apps::kTaskSpinRtt});
  std::uint16_t bases[3] = {};
  const std::uint16_t words[3] = {sketch.words(), dapper.words(),
                                  spin.words()};
  const std::uint16_t tasks[3] = {apps::kTaskSketch, apps::kTaskDapper,
                                  apps::kTaskSpinRtt};
  for (int i = 0; i < 3; ++i) {
    std::string whyNot;
    const auto grant = sw.sramAllocator().allocate(
        tasks[i], words[i], core::StatNamespace::Sram, &whyNot);
    ASSERT_TRUE(grant) << whyNot;
    bases[i] = grant->baseAddress();
  }
  sw.installHook(sketch.updateHook(bases[0]));
  sw.installHook(dapper.initHook(bases[1]));
  sw.installHook(dapper.updateHook(bases[1]));
  sw.installHook(spin.hook(bases[2]));

  // Static verdict for this exact layout (token word parked clear of the
  // monitor grants — no limiter runs here).
  const auto dep = apps::shippedDeployment(
      /*tokenAddress=*/static_cast<std::uint16_t>(core::kSramBase + 0x700),
      /*maxHops=*/8, bases[0], bases[1], bases[2]);
  const auto report = core::analyzeInterference(dep.tasks, dep.options);
  EXPECT_TRUE(report.ok()) << (report.findings.empty()
                                   ? ""
                                   : report.findings.front().message);

  host::SramOracleSet oracles(tb.switchCount());
  host::armSramOracle(tb, oracles);

  host::TcpConnection::Config cfg;
  host::TcpListener listener(tb.host(1), 23000, cfg);
  host::TcpConnection conn(tb.host(0), cfg);
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, 96 * 1024);
  host::FlowSpec udp;
  udp.dstMac = tb.host(1).mac();
  udp.dstIp = tb.host(1).ip();
  udp.srcPort = 25000;
  udp.totalBytes = 64 * 1024;
  udp.rateBps = 100e6;
  host::PacedFlow cross(tb.host(0), udp, 7);
  cross.start(sim::Time::zero());
  tb.sim().run(sim::Time::ms(100));
  ASSERT_EQ(conn.bytesAcked(), 96u * 1024);

  for (std::size_t i = 0; i < oracles.size(); ++i) oracles.at(i).flush();
  EXPECT_GT(oracles.accesses(), 0u);
  EXPECT_TRUE(oracles.conflicts().empty());
  EXPECT_TRUE(oracles.divergences(report, dep.tasks).empty());
}

}  // namespace
}  // namespace tpp::monitor
