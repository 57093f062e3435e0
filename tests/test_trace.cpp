// Flight recorder: ring semantics, serialization round-trip, register
// exposure, testbed wiring, and probe-lifecycle reconstruction — including
// the acceptance case "diagnose a chaos loss from the recorder alone".
#include <gtest/gtest.h>

#include <vector>

#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/host/collector.hpp"
#include "src/host/prober.hpp"
#include "src/host/telemetry.hpp"
#include "src/host/topology.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/trace.hpp"

namespace tpp {
namespace {

using host::Testbed;
using sim::TraceKind;
using sim::Tracer;

// Under -DTPP_TRACE=OFF the recorder is an empty inline and content
// assertions are meaningless — skip them instead of failing the build's
// test suite. (The null-check wiring itself is still exercised by the
// unguarded tests below.)
#define REQUIRE_TRACE_COMPILED_IN()                        \
  do {                                                     \
    if (!sim::kTraceCompiledIn) {                          \
      GTEST_SKIP() << "built with TPP_TRACE=OFF";          \
    }                                                      \
  } while (0)

// ------------------------------------------------------------------ ring

TEST(Tracer, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Tracer(1).capacity(), 2u);
  EXPECT_EQ(Tracer(8).capacity(), 8u);
  EXPECT_EQ(Tracer(9).capacity(), 16u);
  EXPECT_EQ(Tracer(1000).capacity(), 1024u);
}

TEST(Tracer, RingOverwritesOldestAndCountsLosses) {
  REQUIRE_TRACE_COMPILED_IN();
  Tracer t(8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    t.record(sim::Time::ns(i), TraceKind::EventFire, 0, 0, i);
  }
  EXPECT_EQ(t.written(), 20u);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.overwritten(), 12u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(snap[i].a, 12u + i) << "oldest-first order";
    EXPECT_EQ(snap[i].tsNanos, 12 + static_cast<std::int64_t>(i));
  }
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.overwritten(), 0u);
}

TEST(Tracer, ActorInterningIsStable) {
  Tracer t;
  const auto a = t.actor("sw0");
  const auto b = t.actor("sw1");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(t.actor("sw0"), a) << "re-interning returns the same id";
  EXPECT_EQ(t.actors(), (std::vector<std::string>{"sw0", "sw1"}));
}

TEST(Tracer, SerializeDecodeRoundTrips) {
  REQUIRE_TRACE_COMPILED_IN();
  Tracer t(16);
  const auto sw = t.actor("sw0");
  const auto h = t.actor("host0");
  t.record(sim::Time::us(1), TraceKind::ProbeSend, h, 3, 17, 4, 2);
  t.record(sim::Time::us(2), TraceKind::TcpuExecute, sw, 3, 1, 4, 0, 12);
  t.record(sim::Time::us(3), TraceKind::ProbeEcho, h, 3, 17, 1, 0);

  const auto decodedBack = sim::decodeTrace(t.serialize());
  ASSERT_TRUE(decodedBack.ok) << decodedBack.error;
  EXPECT_EQ(decodedBack.records, t.snapshot());
  EXPECT_EQ(decodedBack.actors, t.actors());
  EXPECT_EQ(decodedBack.overwritten, 0u);
  EXPECT_FALSE(decodedBack.truncated);
  EXPECT_EQ(decodedBack.actorName(sw), "sw0");
  EXPECT_EQ(decodedBack.actorName(99), "?");
}

// ------------------------------------------------------ simulator wiring

TEST(Trace, ScheduleAndFireShareEventSeq) {
  REQUIRE_TRACE_COMPILED_IN();
  sim::Simulator s;
  Tracer t;
  s.setTracer(&t);
  s.schedule(sim::Time::us(5), [] {});
  s.schedule(sim::Time::us(1), [] {});
  s.run();
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);  // 2 schedules + 2 fires
  EXPECT_EQ(snap[0].kindOf(), TraceKind::EventSchedule);
  EXPECT_EQ(snap[1].kindOf(), TraceKind::EventSchedule);
  EXPECT_EQ(snap[2].kindOf(), TraceKind::EventFire);
  EXPECT_EQ(snap[3].kindOf(), TraceKind::EventFire);
  // The later-scheduled, earlier-firing event (seq 1) fires first; seqs key
  // fires back to their schedule records.
  EXPECT_EQ(snap[2].a, snap[1].a);
  EXPECT_EQ(snap[3].a, snap[0].a);
  // EventSchedule's b/c encode the fire-at instant.
  const std::uint64_t fireAt =
      (static_cast<std::uint64_t>(snap[0].c) << 32) | snap[0].b;
  EXPECT_EQ(fireAt, 5000u);
}

// --------------------------------------------------------- register reads

core::Program telemetryReadProgram() {
  core::ProgramBuilder b;
  b.push(core::addr::SimEventsFired);
  b.push(core::addr::TcpuInstrsRetired);
  b.push(core::addr::TppsExecuted);
  b.push(core::addr::TraceRecords);
  b.push(core::addr::TraceDrops);
  b.push(core::addr::ProbesInFlight);
  b.reserve(6);  // exactly one hop record — register tests run on chain-1
  b.task(7);
  return *b.build();
}

// Small per-hop probe with room for 8 hops; used on longer chains.
core::Program probeProgram() {
  core::ProgramBuilder b;
  b.push(core::addr::SwitchId);
  b.reserve(8);
  b.task(7);
  return *b.build();
}

TEST(Trace, TelemetryRegistersReadableByTpps) {
  REQUIRE_TRACE_COMPILED_IN();
  Testbed tb;
  buildChain(tb, 1, host::LinkParams{});
  Tracer tracer;
  host::armTracing(tb, tracer);

  host::ReliableProber prober(
      tb.host(0), {tb.host(1).mac(), tb.host(1).ip()});
  host::bindProbeGauge(prober, tb, tb.host(0));

  const auto program = telemetryReadProgram();
  std::vector<std::uint32_t> values;
  prober.send(program, [&](const core::ExecutedTpp& tpp) {
    const auto split = host::splitStackRecords(
        tpp, 6, host::ReliableProber::seqWordIndex(program) + 1);
    ASSERT_EQ(split.records.size(), 1u);
    values = split.records[0];
  });
  tb.sim().run();

  ASSERT_EQ(values.size(), 6u);
  EXPECT_GT(values[0], 0u) << "SimEventsFired";
  EXPECT_GT(values[1], 0u) << "InstrsRetired (this probe's own pushes)";
  EXPECT_EQ(values[2], 0u) << "TppsExecuted counts completed TPPs; this "
                              "probe is still mid-execution";
  EXPECT_GT(values[3], 0u) << "TraceRecords (ring is armed and written)";
  EXPECT_EQ(values[4], 0u) << "TraceDrops (default ring far from full)";
  EXPECT_EQ(values[5], 1u) << "ProbesInFlight (this probe, via the gauge)";
}

TEST(Trace, TelemetryRegistersReadZeroWhenDisarmed) {
  Testbed tb;
  buildChain(tb, 1, host::LinkParams{});
  host::ReliableProber prober(
      tb.host(0), {tb.host(1).mac(), tb.host(1).ip()});
  const auto program = telemetryReadProgram();
  std::vector<std::uint32_t> values;
  prober.send(program, [&](const core::ExecutedTpp& tpp) {
    const auto split = host::splitStackRecords(
        tpp, 6, host::ReliableProber::seqWordIndex(program) + 1);
    ASSERT_EQ(split.records.size(), 1u);
    values = split.records[0];
  });
  tb.sim().run();
  ASSERT_EQ(values.size(), 6u);
  EXPECT_EQ(values[3], 0u) << "TraceRecords without a tracer";
  EXPECT_EQ(values[4], 0u) << "TraceDrops without a tracer";
  EXPECT_EQ(values[5], 0u) << "ProbesInFlight without the gauge bound";
}

TEST(Trace, ProbeGaugeReturnsToZero) {
  Testbed tb;
  buildChain(tb, 1, host::LinkParams{});
  host::ReliableProber prober(
      tb.host(0), {tb.host(1).mac(), tb.host(1).ip()});
  host::bindProbeGauge(prober, tb, tb.host(0));
  const auto att = tb.attachmentOf(tb.host(0));
  prober.send(telemetryReadProgram(), {});
  EXPECT_EQ(att.sw->portProbesInFlight(att.port), 1u);
  tb.sim().run();
  EXPECT_EQ(att.sw->portProbesInFlight(att.port), 0u);
}

// ----------------------------------------------- lifecycle reconstruction

TEST(Trace, ReconstructsHealthyProbeLifecycle) {
  REQUIRE_TRACE_COMPILED_IN();
  Testbed tb;
  buildChain(tb, 3, host::LinkParams{});
  Tracer tracer;
  host::armTracing(tb, tracer);

  host::ReliableProber prober(
      tb.host(0), {tb.host(1).mac(), tb.host(1).ip()});
  bool echoed = false;
  const auto seq = prober.send(probeProgram(),
                               [&](const core::ExecutedTpp&) { echoed = true; });
  tb.sim().run();
  ASSERT_TRUE(echoed);

  const auto trace = host::decoded(tracer);
  ASSERT_TRUE(trace.ok) << trace.error;
  const auto lc = host::reconstructProbeLifecycle(trace, 7, seq);
  ASSERT_TRUE(lc.found);
  EXPECT_EQ(lc.outcome, host::ProbeLifecycle::Outcome::Echoed);
  EXPECT_FALSE(lc.ambiguous);
  EXPECT_EQ(lc.retransmits, 0u);
  ASSERT_EQ(lc.hops.size(), 3u) << "one TCPU execution per chain switch";
  for (std::size_t i = 0; i < 3; ++i) {
    // The TCPU bumps the hop counter as part of execution, so the record
    // carries the post-increment value: 1, 2, 3 along the chain.
    EXPECT_EQ(lc.hops[i].hopNumber, i + 1);
    EXPECT_EQ(trace.actorName(lc.hops[i].actor),
              "sw" + std::to_string(i));
    EXPECT_EQ(lc.hops[i].faultCode, 0u);
  }
  ASSERT_TRUE(lc.endTsNanos.has_value());
  EXPECT_GT(*lc.endTsNanos, lc.sendTsNanos);

  const auto text = host::describeLifecycle(lc, trace.actors);
  EXPECT_NE(text.find("send"), std::string::npos);
  EXPECT_NE(text.find("echo"), std::string::npos);
}

// The acceptance criterion: a chaos-style loss is diagnosable from the
// flight recorder alone — the reconstructed lifecycle shows the probe
// executing on switches before the dead link and nowhere after it.
TEST(Trace, DiagnosesWhereAProbeDiedFromRecorderAlone) {
  REQUIRE_TRACE_COMPILED_IN();
  Testbed tb;
  buildChain(tb, 3, host::LinkParams{});
  Tracer tracer;
  host::armTracing(tb, tracer);

  // Kill the sw0→sw1 link (testbed link 1 is sw0—sw1; aToB carries the
  // forward direction) for the whole run: every copy of the probe dies
  // there, after executing on sw0 only.
  sim::FaultInjector inj(tb.sim(), /*seed=*/42);
  auto& dead = inj.link("sw0->sw1");
  inj.linkDownWindow(dead, sim::Time::zero(), sim::Time::sec(10));
  tb.linkAt(1).aToB().setFaultState(&dead);

  host::ReliableProber::Config cfg{tb.host(1).mac(), tb.host(1).ip()};
  cfg.timeout = sim::Time::ms(1);
  cfg.maxRetries = 1;
  host::ReliableProber prober(tb.host(0), cfg);
  bool lost = false;
  const auto seq = prober.send(probeProgram(), {},
                               [&](std::uint32_t) { lost = true; });
  tb.sim().run(sim::Time::sec(1));
  ASSERT_TRUE(lost);

  const auto trace = host::decoded(tracer);
  ASSERT_TRUE(trace.ok) << trace.error;
  const auto lc = host::reconstructProbeLifecycle(trace, 7, seq);
  ASSERT_TRUE(lc.found);
  EXPECT_EQ(lc.outcome, host::ProbeLifecycle::Outcome::Lost);
  EXPECT_EQ(lc.retransmits, 1u);
  ASSERT_FALSE(lc.hops.empty());
  for (const auto& hop : lc.hops) {
    EXPECT_EQ(trace.actorName(hop.actor), "sw0")
        << "probe must never appear past the dead link";
  }
  // The recorder also caught the wire-level verdicts.
  std::size_t faultDrops = 0;
  for (const auto& r : trace.records) {
    if (r.kindOf() == TraceKind::LinkFaultDrop) ++faultDrops;
  }
  EXPECT_EQ(faultDrops, 2u) << "original + one retransmit";

  const auto text = host::describeLifecycle(lc, trace.actors);
  EXPECT_NE(text.find("LOST"), std::string::npos);
}

TEST(Trace, OverlappingSameTaskProbesFlagAmbiguity) {
  REQUIRE_TRACE_COMPILED_IN();
  Testbed tb;
  buildChain(tb, 2, host::LinkParams{});
  Tracer tracer;
  host::armTracing(tb, tracer);
  host::ReliableProber prober(
      tb.host(0), {tb.host(1).mac(), tb.host(1).ip()});
  const auto s1 = prober.send(probeProgram(), {});
  const auto s2 = prober.send(probeProgram(), {});
  tb.sim().run();
  const auto trace = host::decoded(tracer);
  const auto lc1 = host::reconstructProbeLifecycle(trace, 7, s1);
  const auto lc2 = host::reconstructProbeLifecycle(trace, 7, s2);
  ASSERT_TRUE(lc1.found);
  ASSERT_TRUE(lc2.found);
  EXPECT_TRUE(lc1.ambiguous);
  EXPECT_TRUE(lc2.ambiguous);
}

// ---------------------------------------------------------- exporters

TEST(Trace, ExportersEmitEveryRecord) {
  REQUIRE_TRACE_COMPILED_IN();
  Tracer t(16);
  const auto sw = t.actor("sw0");
  t.record(sim::Time::us(1), TraceKind::ProbeSend, sw, 3, 17);
  t.record(sim::Time::us(2), TraceKind::ProbeEcho, sw, 3, 17, 2, 0);
  const auto trace = host::decoded(t);

  const auto csv = host::toCsv(trace);
  EXPECT_NE(csv.find("ts_nanos,actor,kind"), std::string::npos);
  EXPECT_NE(csv.find("1000,sw0,probe_send,3,17"), std::string::npos);
  EXPECT_NE(csv.find("2000,sw0,probe_echo,3,17,2"), std::string::npos);

  const auto json = host::toChromeJson(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"probe_send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sw0\""), std::string::npos);

  for (const auto& r : trace.records) {
    EXPECT_FALSE(host::describeRecord(r, trace.actors).empty());
  }
}

// A disarmed testbed writes nothing (the null-check path really is off).
TEST(Trace, DisarmedTestbedWritesNothing) {
  Testbed tb;
  buildChain(tb, 2, host::LinkParams{});
  host::ReliableProber prober(
      tb.host(0), {tb.host(1).mac(), tb.host(1).ip()});
  prober.send(probeProgram(), {});
  tb.sim().run();
  // No tracer anywhere: nothing to assert on the ring itself, but the run
  // must complete and the probe echo (exercised all trace sites disarmed).
  EXPECT_EQ(prober.outstanding(), 0u);
  EXPECT_EQ(prober.losses(), 0u);
}

}  // namespace
}  // namespace tpp
