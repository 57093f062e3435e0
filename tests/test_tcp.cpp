// host::TcpConnection / TcpListener: the state machine under clean and
// lossy fabrics, plus the TppTcpController's early-cut behavior.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/apps/tpp_tcp.hpp"
#include "src/host/collector.hpp"
#include "src/host/tcp.hpp"
#include "src/host/telemetry.hpp"
#include "src/host/topology.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/trace.hpp"

namespace tpp {
namespace {

using host::TcpConnection;
using host::TcpListener;
using host::TcpSegment;
using host::Testbed;

host::LinkParams fastLink() {
  return host::LinkParams{1'000'000'000, sim::Time::us(5)};
}

// ------------------------------------------------------------ wire format

TEST(TcpSegment, SerializeParseRoundTrip) {
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  TcpSegment s;
  s.flags = TcpSegment::kAck | TcpSegment::kFin;
  s.seq = 0x01020304;
  s.ack = 0x0a0b0c0d;
  s.wnd = 65536;
  s.payload = payload;
  std::vector<std::uint8_t> wire;
  s.serialize(wire);
  const auto parsed = TcpSegment::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flags, s.flags);
  EXPECT_EQ(parsed->seq, s.seq);
  EXPECT_EQ(parsed->ack, s.ack);
  EXPECT_EQ(parsed->wnd, s.wnd);
  ASSERT_EQ(parsed->payload.size(), payload.size());
}

TEST(TcpSegment, AnySingleBitFlipIsRejected) {
  std::vector<std::uint8_t> payload(32);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  TcpSegment s;
  s.flags = TcpSegment::kAck;
  s.seq = 1234;
  s.ack = 5678;
  s.wnd = 1000;
  s.payload = payload;
  std::vector<std::uint8_t> wire;
  s.serialize(wire);
  ASSERT_TRUE(TcpSegment::parse(wire).has_value());
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = wire;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(TcpSegment::parse(flipped).has_value())
          << "bit " << bit << " of byte " << byte << " slipped through";
    }
  }
}

TEST(TcpSegment, TruncationIsRejected) {
  std::vector<std::uint8_t> payload(10, 0xab);
  TcpSegment s;
  s.payload = payload;
  std::vector<std::uint8_t> wire;
  s.serialize(wire);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(
        TcpSegment::parse(std::span(wire.data(), cut)).has_value());
  }
}

// --------------------------------------------------------- clean fabric

struct ChainRig {
  explicit ChainRig(std::size_t switches = 1,
                    TcpConnection::Config cfg = {}) {
    buildChain(tb, switches, fastLink());
    listener = std::make_unique<TcpListener>(tb.host(1), kPort, cfg);
    conn = std::make_unique<TcpConnection>(tb.host(0), cfg);
  }

  void connect(std::uint64_t bytes) {
    conn->connect(tb.host(1).mac(), tb.host(1).ip(), kPort, 30000, bytes);
  }

  static constexpr std::uint16_t kPort = 23000;
  Testbed tb;
  std::unique_ptr<TcpListener> listener;
  std::unique_ptr<TcpConnection> conn;
};

TEST(TcpConnection, HandshakeTransferAndTeardown) {
  ChainRig rig;
  bool established = false;
  bool closed = false;
  rig.conn->onEstablished([&] { established = true; });
  rig.conn->onClosed([&] { closed = true; });
  rig.connect(64 * 1024);
  rig.tb.sim().run(sim::Time::ms(100));

  EXPECT_TRUE(established);
  EXPECT_TRUE(closed);
  EXPECT_TRUE(rig.conn->closedCleanly());
  EXPECT_EQ(rig.conn->state(), TcpConnection::State::Closed);
  EXPECT_EQ(rig.conn->bytesAcked(), 64u * 1024);
  EXPECT_EQ(rig.conn->retransmits(), 0u);

  ASSERT_EQ(rig.listener->connectionCount(), 1u);
  const TcpConnection& srv = rig.listener->connection(0);
  EXPECT_EQ(srv.deliveredBytes(), 64u * 1024);
  EXPECT_EQ(srv.patternErrors(), 0u);
  EXPECT_TRUE(srv.closedCleanly());
}

TEST(TcpConnection, ZeroByteTransferStillHandshakesAndCloses) {
  ChainRig rig;
  rig.connect(0);
  rig.tb.sim().run(sim::Time::ms(50));
  EXPECT_TRUE(rig.conn->closedCleanly());
  ASSERT_EQ(rig.listener->connectionCount(), 1u);
  EXPECT_EQ(rig.listener->deliveredBytes(), 0u);
  EXPECT_TRUE(rig.listener->connection(0).closedCleanly());
}

TEST(TcpConnection, SlowStartGrowsCwndExponentially) {
  TcpConnection::Config cfg;
  cfg.initialCwndSegments = 2;
  ChainRig rig(1, cfg);
  const std::uint32_t initialCwnd = 2 * cfg.mss;
  rig.connect(256 * 1024);
  EXPECT_EQ(rig.conn->cwndBytes(), initialCwnd);
  rig.tb.sim().run(sim::Time::ms(100));
  EXPECT_TRUE(rig.conn->closedCleanly());
  EXPECT_GT(rig.conn->cwndBytes(), 4 * initialCwnd);  // it actually opened
  EXPECT_GT(rig.conn->srtt(), sim::Time::zero());
}

TEST(TcpConnection, SrttConvergesToPathRtt) {
  ChainRig rig(3);  // 4 links each way, 5us propagation each
  rig.connect(100 * 1024);
  rig.tb.sim().run(sim::Time::ms(100));
  ASSERT_TRUE(rig.conn->closedCleanly());
  // Path floor: 8 * 5us propagation + serialization. Queueing at the
  // first hop adds self-induced delay once the window opens, so the upper
  // bound only asserts sanity, not the bare floor.
  EXPECT_GT(rig.conn->srtt(), sim::Time::us(40));
  EXPECT_LT(rig.conn->srtt(), sim::Time::ms(2));
}

// --------------------------------------------------------- lossy fabric

struct LossyRig {
  explicit LossyRig(double dropProb, TcpConnection::Config cfg = {},
                    std::uint64_t seed = 7) {
    buildChain(tb, 1, fastLink());
    inj = std::make_unique<sim::FaultInjector>(tb.sim(), seed);
    auto& fwd = inj->link("chain:fwd", {dropProb, 0.0});
    auto& rev = inj->link("chain:rev", {dropProb, 0.0});
    tb.linkAt(0).aToB().setFaultState(&fwd);  // host0 -> sw0
    tb.linkAt(1).bToA().setFaultState(&rev);  // sw0 <- host1 (ack path)
    listener = std::make_unique<TcpListener>(tb.host(1), 23000, cfg);
    conn = std::make_unique<TcpConnection>(tb.host(0), cfg);
  }

  void connect(std::uint64_t bytes) {
    conn->connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, bytes);
  }

  Testbed tb;
  std::unique_ptr<sim::FaultInjector> inj;
  std::unique_ptr<TcpListener> listener;
  std::unique_ptr<TcpConnection> conn;
};

TEST(TcpConnection, RecoversFromLossAndDeliversExactlyOnce) {
  LossyRig rig(0.02);
  rig.connect(200 * 1024);
  rig.tb.sim().run(sim::Time::sec(5));
  ASSERT_TRUE(rig.conn->closedCleanly()) << rig.conn->error();
  EXPECT_GT(rig.inj->totalDrops(), 0u);
  EXPECT_GT(rig.conn->retransmits(), 0u);
  ASSERT_EQ(rig.listener->connectionCount(), 1u);
  const TcpConnection& srv = rig.listener->connection(0);
  EXPECT_EQ(srv.deliveredBytes(), 200u * 1024);
  EXPECT_EQ(srv.patternErrors(), 0u);
}

TEST(TcpConnection, FastRetransmitFiresOnDupAcks) {
  // Enough loss to hit a mid-window drop while later segments still land.
  LossyRig rig(0.03, {}, /*seed=*/11);
  rig.connect(400 * 1024);
  rig.tb.sim().run(sim::Time::sec(5));
  ASSERT_TRUE(rig.conn->closedCleanly()) << rig.conn->error();
  EXPECT_GT(rig.conn->dupAcksSeen(), 0u);
  EXPECT_GT(rig.conn->fastRetransmits(), 0u);
  EXPECT_GT(rig.conn->cwndCuts(), 0u);
  const TcpConnection& srv = rig.listener->connection(0);
  EXPECT_GT(srv.outOfOrderSegments(), 0u);
  EXPECT_EQ(srv.deliveredBytes(), 400u * 1024);
  EXPECT_EQ(srv.patternErrors(), 0u);
}

TEST(TcpConnection, CorruptionIsDetectedAndRecovered) {
  Testbed tb;
  buildChain(tb, 1, fastLink());
  sim::FaultInjector inj(tb.sim(), 13);
  auto& fwd = inj.link("fwd", {0.0, 0.02});  // corrupt only, no drops
  tb.linkAt(0).aToB().setFaultState(&fwd);
  TcpListener listener(tb.host(1), 23000);
  TcpConnection conn(tb.host(0), {});
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, 200 * 1024);
  tb.sim().run(sim::Time::sec(5));
  ASSERT_TRUE(conn.closedCleanly()) << conn.error();
  EXPECT_GT(inj.totalCorrupted(), 0u);
  ASSERT_EQ(listener.connectionCount(), 1u);
  const TcpConnection& srv = listener.connection(0);
  // Every corrupted segment was caught by a checksum somewhere (UDP-layer
  // parse or the TCP segment checksum) — none leaked into the stream.
  EXPECT_EQ(srv.deliveredBytes(), 200u * 1024);
  EXPECT_EQ(srv.patternErrors(), 0u);
}

TEST(TcpConnection, RtoBackoffIsCappedAndGiveUpSurfacesError) {
  TcpConnection::Config cfg;
  cfg.initialRto = sim::Time::ms(10);
  cfg.maxRto = sim::Time::ms(40);
  cfg.maxRetries = 5;
  Testbed tb;
  buildChain(tb, 1, fastLink());
  sim::Tracer tracer(1u << 12);
  host::armTracing(tb, tracer);

  // Black hole: the host->switch link drops everything.
  sim::FaultInjector inj(tb.sim(), 3);
  auto& fwd = inj.link("hole", {1.0, 0.0});
  tb.linkAt(0).aToB().setFaultState(&fwd);

  TcpConnection conn(tb.host(0), cfg);
  std::string error;
  conn.onError([&](const std::string& e) { error = e; });
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, 10'000);
  tb.sim().run(sim::Time::sec(10));

  EXPECT_TRUE(conn.failed());
  EXPECT_TRUE(conn.done());
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(conn.rtoFires(), cfg.maxRetries + 1);
  // rto_ doubled from 10ms and must have pinned at the 40ms cap.
  EXPECT_EQ(conn.rto(), cfg.maxRto);

  if (sim::kTraceCompiledIn) {
    const auto decoded = sim::decodeTrace(tracer.serialize());
    ASSERT_TRUE(decoded.ok);
    std::vector<std::uint32_t> rtoUs;
    for (const auto& r : decoded.records) {
      if (r.kindOf() == sim::TraceKind::TcpRto) rtoUs.push_back(r.b);
    }
    // 5 backoffs recorded before the give-up: 20, 40, 40, 40, 40 ms.
    ASSERT_EQ(rtoUs.size(), cfg.maxRetries);
    EXPECT_EQ(rtoUs.front(), 20'000u);
    EXPECT_EQ(rtoUs.back(), 40'000u);
    for (const auto us : rtoUs) EXPECT_LE(us, 40'000u);
  }
}

TEST(TcpConnection, HandshakeLossIsRetried) {
  // Deterministic down-window covering the first SYN only.
  Testbed tb;
  buildChain(tb, 1, fastLink());
  sim::FaultInjector inj(tb.sim(), 1);
  auto& fwd = inj.link("fwd", {0.0, 0.0});
  tb.linkAt(0).aToB().setFaultState(&fwd);
  inj.linkDownWindow(fwd, sim::Time::zero(), sim::Time::ms(5));

  TcpListener listener(tb.host(1), 23000);
  TcpConnection conn(tb.host(0), {});
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, 5'000);
  tb.sim().run(sim::Time::sec(2));
  EXPECT_TRUE(conn.closedCleanly()) << conn.error();
  EXPECT_GT(conn.retransmits(), 0u);  // the SYN itself was retransmitted
  EXPECT_EQ(listener.deliveredBytes(), 5'000u);
}

TEST(TcpConnection, CutCwndFloorsAtOneMssAndTraces) {
  Testbed tb;
  buildChain(tb, 1, fastLink());
  sim::Tracer tracer(1u << 10);
  host::armTracing(tb, tracer);
  TcpListener listener(tb.host(1), 23000);
  TcpConnection conn(tb.host(0), {});
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, 1u << 20);
  tb.sim().run(sim::Time::ms(2));
  ASSERT_TRUE(conn.established());
  const auto before = conn.cwndBytes();
  conn.cutCwnd(0.5, /*reason=*/2);
  EXPECT_LT(conn.cwndBytes(), before);
  for (int i = 0; i < 40; ++i) conn.cutCwnd(0.5, 2);
  EXPECT_EQ(conn.cwndBytes(), 1000u);  // floored at one mss
  if (sim::kTraceCompiledIn) {
    const auto decoded = sim::decodeTrace(tracer.serialize());
    ASSERT_TRUE(decoded.ok);
    bool sawCut = false;
    for (const auto& r : decoded.records) {
      if (r.kindOf() == sim::TraceKind::TcpCwndCut && r.c == 2) {
        sawCut = true;
      }
    }
    EXPECT_TRUE(sawCut);
  }
  tb.sim().run(sim::Time::sec(2));
  EXPECT_TRUE(conn.closedCleanly());
}

TEST(TcpListener, DemuxesConcurrentConnectionsByPeer) {
  Testbed tb;
  buildStar(tb, 4, fastLink());
  host::Host& receiver = tb.host(4);
  TcpListener listener(receiver, 23000);
  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (std::size_t i = 0; i < 4; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(tb.host(i), TcpConnection::Config{}));
    conns.back()->connect(receiver.mac(), receiver.ip(), 23000,
                          static_cast<std::uint16_t>(30000 + i),
                          (i + 1) * 10'000);
  }
  tb.sim().run(sim::Time::sec(1));
  ASSERT_EQ(listener.connectionCount(), 4u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(conns[i]->closedCleanly());
    total += listener.connection(i).deliveredBytes();
    EXPECT_EQ(listener.connection(i).patternErrors(), 0u);
  }
  EXPECT_EQ(total, 10'000u + 20'000 + 30'000 + 40'000);
}

// ------------------------------------------------------ TppTcpController

TEST(TppTcpController, ProbeProgramVerifiesAndParses) {
  const auto program = apps::makeTcpCongestionProbeProgram(4);
  EXPECT_EQ(program.taskId, apps::kTaskTcpTpp);
  Testbed tb;
  buildChain(tb, 2, fastLink());
  std::vector<core::ExecutedTpp> echoes;
  tb.host(0).onTppResult(
      [&](const core::ExecutedTpp& t) { echoes.push_back(t); });
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
  tb.sim().run(sim::Time::ms(10));
  ASSERT_EQ(echoes.size(), 1u);
  const auto split =
      host::splitStackRecords(echoes[0], apps::kTcpProbeValuesPerHop);
  EXPECT_FALSE(split.truncated);
  ASSERT_EQ(split.records.size(), 2u);
  EXPECT_EQ(split.records[0][0], tb.sw(0).config().switchId);
  EXPECT_EQ(split.records[1][0], tb.sw(1).config().switchId);
}

TEST(TppTcpController, CutsBeforeLossWhenQueueBuilds) {
  // A slow egress off a fast ingress: the switch queue builds while TCP
  // opens its window; the probe must cut cwnd before the buffer is full.
  Testbed tb;
  asic::SwitchConfig scfg;
  scfg.bufferPerQueueBytes = 64 * 1024;
  tb.addHost();
  tb.addHost();
  auto& sw = tb.addSwitch(scfg);
  tb.link(tb.host(0), 0, sw, 0, 1'000'000'000, sim::Time::us(5));
  tb.link(sw, 1, tb.host(1), 0, 100'000'000, sim::Time::us(5));
  tb.installAllRoutes();

  TcpListener listener(tb.host(1), 23000);
  TcpConnection conn(tb.host(0), {});
  apps::TppTcpController::Config tcfg;
  tcfg.queueThresholdBytes = 16 * 1024;
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, 2u << 20);
  apps::TppTcpController ctl(tb.host(0), conn, tcfg);
  ctl.start(sim::Time::zero());
  tb.sim().run(sim::Time::sec(5));
  ctl.stop();

  EXPECT_TRUE(conn.closedCleanly()) << conn.error();
  EXPECT_GT(ctl.probesSent(), 10u);
  EXPECT_GT(ctl.maxQueueSeen(), tcfg.queueThresholdBytes);
  EXPECT_GT(ctl.probeCuts(), 0u);
  EXPECT_EQ(listener.connection(0).patternErrors(), 0u);
  EXPECT_EQ(listener.deliveredBytes(), 2u << 20);
}

TEST(TppTcpController, DegradesToLossBasedOnProbeBlackout) {
  // TCPU off everywhere: probes come back unexecuted (truncated records),
  // so the controller never acts — and TCP still completes on its own.
  Testbed tb;
  buildChain(tb, 1, fastLink());
  tb.sw(0).setTcpuEnabled(false);
  TcpListener listener(tb.host(1), 23000);
  TcpConnection conn(tb.host(0), {});
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, 200 * 1024);
  apps::TppTcpController ctl(tb.host(0), conn, {});
  ctl.start(sim::Time::zero());
  tb.sim().run(sim::Time::sec(2));
  ctl.stop();
  EXPECT_TRUE(conn.closedCleanly());
  EXPECT_GT(ctl.truncatedRounds(), 0u);
  EXPECT_EQ(ctl.probeCuts(), 0u);
  EXPECT_EQ(listener.deliveredBytes(), 200u * 1024);
}

TEST(TppTcpController, SkipsRoundOnBootEpochChange) {
  Testbed tb;
  buildChain(tb, 2, fastLink());
  TcpListener listener(tb.host(1), 23000);
  TcpConnection conn(tb.host(0), {});
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, 4u << 20);
  apps::TppTcpController ctl(tb.host(0), conn, {});
  ctl.start(sim::Time::zero());
  tb.sim().schedule(sim::Time::ms(5), [&] { tb.sw(1).reboot(); });
  tb.sim().run(sim::Time::sec(5));
  ctl.stop();
  EXPECT_TRUE(conn.closedCleanly()) << conn.error();
  EXPECT_GE(ctl.epochChanges(), 1u);
  EXPECT_EQ(listener.deliveredBytes(), 4u << 20);
  EXPECT_EQ(listener.patternErrors(), 0u);
}

}  // namespace
}  // namespace tpp
