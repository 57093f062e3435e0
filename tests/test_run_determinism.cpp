// Run determinism wall (`ctest -L determinism`). Four hand-wired
// scenarios (microburst, rcpstar, incast, tcp) x five seeds must be
// byte-reproducible run to run; driving a run through several run(until)
// slices must record the very same trace as one call; and arming the
// flight recorder must not change what the simulation does. The
// declarative scenario runner gets the same guards at the bottom.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/apps/deployment.hpp"
#include "src/apps/microburst.hpp"
#include "src/apps/rcpstar.hpp"
#include "src/apps/tpp_tcp.hpp"
#include "src/core/interference.hpp"
#include "src/host/flow.hpp"
#include "src/host/tcp.hpp"
#include "src/host/telemetry.hpp"
#include "src/host/topology.hpp"
#include "src/sim/random.hpp"
#include "src/sim/trace.hpp"
#include "src/workload/generators.hpp"
#include "src/workload/scenario.hpp"

namespace tpp::test {

enum class Scenario { Microburst, RcpStar, Incast, Tcp };

const char* scenarioName(Scenario s) {
  switch (s) {
    case Scenario::Microburst: return "microburst";
    case Scenario::RcpStar: return "rcpstar";
    case Scenario::Incast: return "incast";
    case Scenario::Tcp: return "tcp";
  }
  return "?";
}

namespace {

constexpr std::size_t kRing = 1u << 12;
constexpr std::uint64_t kSeeds[] = {11, 23, 37, 41, 59};

// What one run produced: the serialized trace (empty when the recorder is
// disarmed) and the counters that say what the simulation did.
struct Outcome {
  std::vector<std::uint8_t> trace;
  std::vector<std::uint64_t> counters;
};

// Drives one scenario: arms the recorder if asked, runs each timed phase
// in `slices` equal run(until) calls, and collects the outcome.
class Runner {
 public:
  Runner(bool armed, std::size_t slices) : armed_(armed), slices_(slices) {}

  host::Testbed& tb() { return tb_; }

  // Call once the topology is built, so every link gets a recorder.
  void arm() {
    if (armed_) host::armTracing(tb_, tracer_);
  }
  void runTo(sim::Time until) {
    for (std::size_t i = 1; i <= slices_; ++i) {
      tb_.run(until * static_cast<std::int64_t>(i) /
              static_cast<std::int64_t>(slices_));
    }
  }
  void drain() { tb_.run(); }
  // A scenario-specific observable (e.g. a flow's completion instant),
  // compared along with the counters.
  void note(std::uint64_t v) { notes_.push_back(v); }

  Outcome outcome() {
    Outcome out;
    if (armed_) out.trace = tracer_.serialize();
    auto& c = out.counters;
    c.push_back(tb_.sim().eventsExecuted());
    c.push_back(static_cast<std::uint64_t>(tb_.sim().now().nanos()));
    for (std::size_t i = 0; i < tb_.linkCount(); ++i) {
      for (const net::Channel* ch :
           {&tb_.linkAt(i).aToB(), &tb_.linkAt(i).bToA()}) {
        c.push_back(ch->packetsDelivered());
        c.push_back(ch->bytesDelivered());
        c.push_back(ch->packetsFaultDropped());
      }
    }
    for (std::size_t i = 0; i < tb_.switchCount(); ++i) {
      const asic::Switch& sw = tb_.sw(i);
      c.push_back(sw.stats().totalRxPackets);
      c.push_back(sw.stats().totalTxPackets);
      c.push_back(sw.stats().totalDrops);
      c.push_back(sw.stats().tppsExecuted);
      c.push_back(sw.tcpu().instructionsExecuted());
    }
    c.insert(c.end(), notes_.begin(), notes_.end());
    return out;
  }

 private:
  bool armed_;
  std::size_t slices_;
  host::Testbed tb_;
  sim::Tracer tracer_{kRing};
  std::vector<std::uint64_t> notes_;
};

// Seed-jittered periodic incast bursts into the star's receiver, one
// single-sender burst generator per host, with a TPP monitor watching
// from sender 3.
void runMicroburst(Runner& r, std::uint64_t seed) {
  host::Testbed& tb = r.tb();
  asic::SwitchConfig cfg;
  cfg.bufferPerQueueBytes = 256 * 1024;
  buildStar(tb, 4, host::LinkParams{1'000'000'000, sim::Time::us(2)}, cfg);
  r.arm();

  host::Host& receiver = tb.host(4);
  sim::Rng rng(seed);
  std::vector<std::unique_ptr<workload::IncastBurst>> bursts;
  for (std::size_t i = 0; i < 4; ++i) {
    sim::Rng sub = rng.fork("sender" + std::to_string(i));
    workload::IncastBurst::Config icfg;
    icfg.dstMac = receiver.mac();
    icfg.dstIp = receiver.ip();
    icfg.burstBytes = 2'000 + 1'000 * static_cast<std::uint64_t>(
                                          sub.uniformInt(0, 6));
    icfg.period = sim::Time::ms(1);
    icfg.dstPort = static_cast<std::uint16_t>(21000 + 100 * i);
    bursts.push_back(std::make_unique<workload::IncastBurst>(
        std::vector<host::Host*>{&tb.host(i)}, icfg));
    bursts.back()->start(
        sim::Time::us(100 + 50 * static_cast<std::int64_t>(i) +
                      sub.uniformInt(0, 400)));
  }

  apps::MicroburstMonitor::Config mcfg;
  mcfg.dstMac = receiver.mac();
  mcfg.dstIp = receiver.ip();
  mcfg.interval = sim::Time::us(500);
  apps::MicroburstMonitor monitor(tb.host(3), mcfg);
  monitor.start(sim::Time::zero());

  r.runTo(sim::Time::ms(5));
  monitor.stop();
  for (auto& b : bursts) b->stop();
  r.drain();
}

// One RCP*-controlled flow and one fixed-rate competitor crossing the
// dumbbell bottleneck; the seed varies the competitor's rate and the
// controlled flow's payload.
void runRcpStar(Runner& r, std::uint64_t seed) {
  host::Testbed& tb = r.tb();
  asic::SwitchConfig cfg;
  cfg.bufferPerQueueBytes = 64 * 1024;
  buildDumbbell(tb, 2, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{20'000'000, sim::Time::us(200)}, cfg);
  r.arm();
  // The race oracle runs under the determinism wall: the observed SRAM
  // interleavings must stay inside the static interference verdict.
  host::SramOracleSet oracles(tb.switchCount());
  host::armSramOracle(tb, oracles);

  host::FlowSpec spec;
  spec.dstMac = tb.host(2).mac();
  spec.dstIp = tb.host(2).ip();
  spec.srcPort = 21000;
  spec.dstPort = 21000;
  spec.payloadBytes = 800 + 40 * (seed % 5);
  spec.rateBps = 500e3;
  host::PacedFlow flow(tb.host(0), spec, /*flowId=*/1);

  apps::RcpStarController::Config ccfg;
  ccfg.params.alpha = 0.5;
  ccfg.params.beta = 1.0;
  ccfg.params.rttSeconds = 0.005;
  ccfg.period = sim::Time::ms(2);
  ccfg.probesPerPeriod = 2;
  ccfg.dstMac = spec.dstMac;
  ccfg.dstIp = spec.dstIp;
  apps::RcpStarController controller(tb.host(0), flow, ccfg);

  host::FlowSpec cross = spec;
  cross.dstMac = tb.host(3).mac();
  cross.dstIp = tb.host(3).ip();
  cross.srcPort = 22000;
  cross.dstPort = 22000;
  cross.rateBps = 200e3 + 100e3 * static_cast<double>(seed % 7);
  host::PacedFlow competitor(tb.host(1), cross, /*flowId=*/2);

  flow.start(sim::Time::zero());
  competitor.start(sim::Time::zero());
  controller.start(sim::Time::zero());
  r.runTo(sim::Time::ms(20));
  controller.stop();
  competitor.stop();
  flow.stop();
  r.drain();

  const auto dep = apps::shippedDeployment();
  const auto report = core::analyzeInterference(dep.tasks, dep.options);
  for (const auto& line : oracles.divergences(report, dep.tasks)) {
    ADD_FAILURE() << "static/dynamic divergence: " << line;
  }
}

// Stochastic on/off senders (the classic incast driver): each sender's Rng
// substream is forked from the seed by name.
void runIncast(Runner& r, std::uint64_t seed) {
  host::Testbed& tb = r.tb();
  buildStar(tb, 4, host::LinkParams{1'000'000'000, sim::Time::us(2)});
  r.arm();

  workload::OnOffSender::Config ocfg;
  ocfg.flow.dstMac = tb.host(4).mac();
  ocfg.flow.dstIp = tb.host(4).ip();
  ocfg.peakRateBps = 800e6;
  ocfg.meanOn = sim::Time::ms(1);
  ocfg.meanOff = sim::Time::ms(1);
  workload::OnOffSender sender(tb.host(0), ocfg, sim::Rng(seed));
  ocfg.flow.srcPort = 20001;
  workload::OnOffSender sender2(tb.host(2), ocfg,
                                sim::Rng(seed).fork("second"));
  sender.start(sim::Time::zero());
  sender2.start(sim::Time::zero());

  apps::MicroburstMonitor::Config mcfg;
  mcfg.dstMac = tb.host(4).mac();
  mcfg.dstIp = tb.host(4).ip();
  mcfg.interval = sim::Time::us(500);
  apps::MicroburstMonitor monitor(tb.host(1), mcfg);
  monitor.start(sim::Time::zero());

  r.runTo(sim::Time::ms(10));
  sender.stop();
  sender2.stop();
  monitor.stop();
  r.drain();
}

// Two TCP bulk transfers crossing the dumbbell bottleneck into a shallow
// buffer — overflow loss exercises retransmit, dup-ACK recovery and cwnd
// cuts (all traced) — with a TPP congestion controller on the first
// connection. The seed varies the burst size.
void runTcp(Runner& r, std::uint64_t seed) {
  host::Testbed& tb = r.tb();
  asic::SwitchConfig cfg;
  cfg.bufferPerQueueBytes = 16 * 1024;
  buildDumbbell(tb, 2, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{50'000'000, sim::Time::us(50)}, cfg);
  r.arm();

  host::Host& recv = tb.host(2);
  host::TcpListener listener(recv, 23000);

  workload::TcpIncast::Config icfg;
  icfg.dstMac = recv.mac();
  icfg.dstIp = recv.ip();
  icfg.burstBytes =
      20'000 + 5'000 * static_cast<std::uint64_t>(
                           sim::Rng(seed).fork("burst").uniformInt(0, 6));
  workload::TcpIncast incast({&tb.host(0), &tb.host(1)}, icfg);
  incast.start(sim::Time::us(100));

  apps::TppTcpController::Config tcfg;
  tcfg.queueThresholdBytes = 8 * 1024;
  apps::TppTcpController controller(tb.host(0), incast.connection(0), tcfg);
  controller.start(sim::Time::us(200));

  r.runTo(sim::Time::ms(100));
  controller.stop();
  r.drain();
  EXPECT_EQ(incast.finishedCount(), incast.flowCount());
  for (const auto& rec : incast.records()) {
    r.note(static_cast<std::uint64_t>(rec.completion.nanos()));
  }
}

Outcome runScenario(Scenario sc, std::uint64_t seed, std::size_t slices = 1,
                    bool armed = true) {
  Runner r(armed, slices);
  switch (sc) {
    case Scenario::Microburst: runMicroburst(r, seed); break;
    case Scenario::RcpStar: runRcpStar(r, seed); break;
    case Scenario::Incast: runIncast(r, seed); break;
    case Scenario::Tcp: runTcp(r, seed); break;
  }
  return r.outcome();
}

using Combo = std::tuple<Scenario, std::size_t, std::uint64_t>;

// Named generators instead of lambdas: commas inside a structured binding
// are not parenthesized, so a lambda body would be split by the
// INSTANTIATE_TEST_SUITE_P macro expansion.
std::string oneRunName(const ::testing::TestParamInfo<Combo>& info) {
  const auto [sc, slices, seed] = info.param;
  return std::string(scenarioName(sc)) + "_s" + std::to_string(slices) +
         "_seed" + std::to_string(seed);
}

std::string comboName(const ::testing::TestParamInfo<Combo>& info) {
  const auto [sc, slices, seed] = info.param;
  return std::string(scenarioName(sc)) + "_slices" + std::to_string(slices) +
         "_seed" + std::to_string(seed);
}

std::string pairName(
    const ::testing::TestParamInfo<std::tuple<Scenario, std::uint64_t>>&
        info) {
  const auto [sc, seed] = info.param;
  return std::string(scenarioName(sc)) + "_seed" + std::to_string(seed);
}

// Two runs of the same scenario, seed and slicing record the same trace
// and end with the same counters; returns the first run.
Outcome expectRunToRunIdentical(Scenario sc, std::uint64_t seed,
                                std::size_t slices) {
  Outcome a = runScenario(sc, seed, slices);
  const Outcome b = runScenario(sc, seed, slices);
  if (sim::kTraceCompiledIn) {
    const auto decoded = sim::decodeTrace(a.trace);
    EXPECT_TRUE(decoded.ok) << decoded.error;
    EXPECT_FALSE(decoded.records.empty());
  }
  EXPECT_EQ(a.trace, b.trace) << "trace varies run to run";
  EXPECT_EQ(a.counters, b.counters);
  return a;
}

// Run to run, one simulator driven by one run(until) call per timed phase
// records a byte-identical trace. The suite, test and case names are those
// of the sharded runner's wall, whose one-shard cases this is.
class ShardDeterminism : public ::testing::TestWithParam<Combo> {};

TEST_P(ShardDeterminism, RunToRunMergedTraceIsByteIdentical) {
  const auto [sc, slices, seed] = GetParam();
  expectRunToRunIdentical(sc, seed, slices);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ShardDeterminism,
    ::testing::Combine(::testing::Values(Scenario::Microburst,
                                         Scenario::RcpStar, Scenario::Incast,
                                         Scenario::Tcp),
                       ::testing::Values<std::size_t>(1),
                       ::testing::ValuesIn(kSeeds)),
    oneRunName);

class RunDeterminism : public ::testing::TestWithParam<Combo> {};

// Cutting each timed phase into several run(until) calls, as e2ebench
// does, is run-to-run reproducible too, and records exactly the trace and
// counters of one call.
TEST_P(RunDeterminism, SlicedRunTraceIsByteIdentical) {
  const auto [sc, slices, seed] = GetParam();
  const Outcome sliced = expectRunToRunIdentical(sc, seed, slices);
  const Outcome whole = runScenario(sc, seed);
  EXPECT_EQ(sliced.trace, whole.trace)
      << slices << " run(until) slices changed the trace";
  EXPECT_EQ(sliced.counters, whole.counters);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, RunDeterminism,
    ::testing::Combine(::testing::Values(Scenario::Microburst,
                                         Scenario::RcpStar, Scenario::Incast,
                                         Scenario::Tcp),
                       ::testing::Values<std::size_t>(2, 4),
                       ::testing::ValuesIn(kSeeds)),
    comboName);

// Arming the flight recorder must not change the simulation: the same
// events, the same final clock, and the same per-channel and per-switch
// counters as the disarmed run.
class RecorderInvisible
    : public ::testing::TestWithParam<std::tuple<Scenario, std::uint64_t>> {};

TEST_P(RecorderInvisible, ArmedRunMatchesDisarmedRun) {
  const auto [sc, seed] = GetParam();
  const Outcome armed = runScenario(sc, seed, 1, /*armed=*/true);
  const Outcome disarmed = runScenario(sc, seed, 1, /*armed=*/false);
  ASSERT_FALSE(armed.counters.empty());
  EXPECT_GT(armed.counters[0], 0u) << "no events executed";
  EXPECT_EQ(armed.counters, disarmed.counters);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, RecorderInvisible,
    ::testing::Combine(::testing::Values(Scenario::Microburst,
                                         Scenario::RcpStar, Scenario::Incast,
                                         Scenario::Tcp),
                       ::testing::ValuesIn(kSeeds)),
    pairName);

// Five consecutive runs in one process: catches slow cross-run state
// leaks (pools, counters) that a single rerun can miss.
TEST(RunDeterminism, RunStableAcrossFiveRuns) {
  const Outcome first = runScenario(Scenario::Microburst, 23, 4);
  for (int i = 1; i < 5; ++i) {
    const Outcome again = runScenario(Scenario::Microburst, 23, 4);
    EXPECT_EQ(first.trace, again.trace) << "diverged on repeat " << i;
    EXPECT_EQ(first.counters, again.counters) << "diverged on repeat " << i;
  }
}

// Sanity that the seed actually reaches the workload: two seeds must not
// collapse to the same trace (otherwise the wall above proves nothing).
TEST(RunDeterminism, DifferentSeedsDiffer) {
  if (!sim::kTraceCompiledIn) GTEST_SKIP() << "built with TPP_TRACE=OFF";
  EXPECT_NE(runScenario(Scenario::Incast, 11).trace,
            runScenario(Scenario::Incast, 23).trace);
}

// ------------------------------------ data-driven scenario-runner wall
// The declarative runner path — parser, schedule compiler, fat tree, TCP
// engine, queue sampler — gets the same guard the hand-wired testbeds
// above have. Config is data, not code.

constexpr char kWallScenario[] = R"(
[scenario]
name = wall_k4
seed = 97
horizon_ms = 2

[topology]
type = fattree
k = 4
link_gbps = 10
link_delay_us = 2
buffer_kb = 128

[workload]
pattern = poisson
size_dist = websearch
size_scale = 0.01
flows_per_sec = 20000
max_flows = 40
participants = 16
mss = 1000

[tpp]
controller = on
max_controllers = 8

[metrics]
queue_sample_us = 100
)";

// A rerun's flight-recorder trace and summary must be byte-identical.
TEST(ScenarioRunnerDeterminism, RunToRunMergedTraceByteIdentical) {
  const auto parsed = workload::parseScenario(kWallScenario);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  workload::RunOptions opts;
  opts.captureTrace = true;
  opts.traceRing = kRing;
  const auto a = workload::runScenario(parsed.config, opts);
  const auto b = workload::runScenario(parsed.config, opts);
  ASSERT_GT(a.result.flows, 0u);
  EXPECT_EQ(a.result.finished + a.result.failed, a.result.flows)
      << "run left flows unfinished";
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace) << "scenario-runner trace varies run to run";
  EXPECT_EQ(a.result.summaryText(parsed.config),
            b.result.summaryText(parsed.config));
}

// Capturing the trace must not change the physical observables: the full
// summary, the per-flow digest (arrivals, sizes, completions), the
// queue-sample digest and the event count.
TEST(ScenarioRunnerDeterminism, TraceCaptureDoesNotChangeSummary) {
  const auto parsed = workload::parseScenario(kWallScenario);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  workload::RunOptions traced;
  traced.captureTrace = true;
  traced.traceRing = kRing;
  const auto on = workload::runScenario(parsed.config, traced);
  const auto off = workload::runScenario(parsed.config);
  EXPECT_GT(off.result.finished, 0u);
  EXPECT_GT(off.result.queueSamples, 0u);
  EXPECT_TRUE(off.trace.empty());
  EXPECT_EQ(on.result.summaryText(parsed.config),
            off.result.summaryText(parsed.config));
  EXPECT_EQ(on.result.flowDigest, off.result.flowDigest);
  EXPECT_EQ(on.result.queueDigest, off.result.queueDigest);
  EXPECT_EQ(on.result.eventsExecuted, off.result.eventsExecuted);
}

}  // namespace
}  // namespace tpp::test
