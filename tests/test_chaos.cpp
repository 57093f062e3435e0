// Chaos suite: the fault-injection acceptance scenarios (ctest label
// `chaos`). Every test derives its randomness from TPP_CHAOS_SEED (env,
// default 1) through sim::FaultInjector's named substreams, so a failing
// seed reproduces bit-for-bit with
//     TPP_CHAOS_SEED=<seed> ctest -L chaos
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/apps/aggregate_limiter.hpp"
#include "src/apps/deployment.hpp"
#include "src/apps/microburst.hpp"
#include "src/apps/ndb.hpp"
#include "src/apps/rcpstar.hpp"
#include "src/apps/tpp_tcp.hpp"
#include "src/core/interference.hpp"
#include "src/core/memory_map.hpp"
#include "src/host/tcp.hpp"
#include "src/host/telemetry.hpp"
#include "src/host/topology.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/random.hpp"
#include "src/workload/generators.hpp"
#include "tests/test_util.hpp"

namespace tpp {
namespace {

using host::Testbed;

std::uint64_t baseSeed() { return test::chaosSeed(); }

constexpr std::uint64_t kBottleneck = 10'000'000;

// Cross-checks what an armed SRAM race oracle observed against the static
// interference verdict for the shipped deployment: chaos (drops, reboots,
// dark links) must never produce an interleaving the analyzer ruled out.
void expectNoOracleDivergence(host::SramOracleSet& oracles,
                              std::uint16_t tokenAddress = core::kSramBase) {
  const auto dep = apps::shippedDeployment(tokenAddress);
  const auto report = core::analyzeInterference(dep.tasks, dep.options);
  ASSERT_TRUE(report.ok());
  for (const auto& line : oracles.divergences(report, dep.tasks)) {
    ADD_FAILURE() << "static/dynamic divergence: " << line;
  }
  for (const auto& c : oracles.conflicts()) {
    ADD_FAILURE() << "observed SRAM conflict: " << c.describe();
  }
}

// ------------------------------------------------------------- RCP* chaos

struct RcpChaosOutcome {
  double finalRateBps = 0;
  std::uint64_t drops = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t probesSent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t probeLosses = 0;
  std::uint64_t mdFallbacks = 0;
  std::uint64_t truncated = 0;
  std::uint64_t updates = 0;
  bool operator==(const RcpChaosOutcome&) const = default;
};

struct RcpChaosPlan {
  double dropProbability = 0.0;
  double corruptProbability = 0.0;
  bool reboot = false;               // left switch, at 3 s
  bool downWindow = false;           // bottleneck dark 1.0–1.5 s
};

RcpChaosOutcome runRcpChaos(std::uint64_t seed, const RcpChaosPlan& plan) {
  Testbed tb;
  asic::SwitchConfig scfg;
  scfg.bufferPerQueueBytes = 64 * 1024;
  scfg.utilizationWindow = sim::Time::ms(50);
  buildDumbbell(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{kBottleneck, sim::Time::ms(1)}, scfg);
  for (std::size_t s = 0; s < tb.switchCount(); ++s) {
    for (std::size_t port = 0; port < tb.sw(s).config().ports; ++port) {
      tb.sw(s).scratchWrite(
          core::addr::RcpRateRegister,
          static_cast<std::uint32_t>(tb.sw(s).portCapacityBps(port) / 1000),
          port);
    }
  }

  // Race oracle rides along: chaos must not create SRAM interleavings the
  // static interference analyzer ruled out.
  host::SramOracleSet oracles(tb.switchCount());
  host::armSramOracle(tb, oracles);

  host::FlowSpec spec;
  spec.dstMac = tb.host(1).mac();
  spec.dstIp = tb.host(1).ip();
  spec.srcPort = 21000;
  spec.dstPort = 21000;
  spec.payloadBytes = 1000;
  spec.rateBps = 100e3;
  host::PacedFlow flow(tb.host(0), spec, 1);

  apps::RcpStarController::Config ccfg;
  ccfg.params.alpha = 0.5;
  ccfg.params.beta = 1.0;
  ccfg.params.rttSeconds = 0.05;
  ccfg.period = sim::Time::ms(50);
  ccfg.dstMac = spec.dstMac;
  ccfg.dstIp = spec.dstIp;
  ccfg.probeTimeout = sim::Time::ms(5);
  ccfg.probeMaxBackoff = sim::Time::ms(20);
  apps::RcpStarController ctl(tb.host(0), flow, ccfg);

  sim::FaultInjector inj(tb.sim(), seed);
  auto& fwd = inj.link("bottleneck:l->r",
                       {plan.dropProbability, plan.corruptProbability});
  auto& rev = inj.link("bottleneck:r->l",
                       {plan.dropProbability, plan.corruptProbability});
  tb.linkAt(2).aToB().setFaultState(&fwd);  // link 2 = the bottleneck
  tb.linkAt(2).bToA().setFaultState(&rev);
  if (plan.downWindow) {
    inj.linkDownWindow(fwd, sim::Time::ms(1000), sim::Time::ms(1500));
    inj.linkDownWindow(rev, sim::Time::ms(1000), sim::Time::ms(1500));
  }
  if (plan.reboot) {
    inj.at(sim::Time::sec(3), [&] { tb.sw(0).reboot(); });
  }

  flow.start(sim::Time::zero());
  ctl.start(sim::Time::zero());
  tb.sim().run(sim::Time::sec(6));

  RcpChaosOutcome out;
  out.finalRateBps = ctl.currentRateBps();
  out.drops = inj.totalDrops();
  out.corrupted = inj.totalCorrupted();
  out.probesSent = ctl.prober().probesSent();
  out.retransmits = ctl.prober().retransmits();
  out.probeLosses = ctl.probeLosses();
  out.mdFallbacks = ctl.mdFallbacks();
  out.truncated = ctl.truncatedCollects();
  out.updates = ctl.updatesSent();
  flow.stop();
  ctl.stop();
  expectNoOracleDivergence(oracles);
  return out;
}

TEST(ChaosRcp, ConvergesWithin25PercentOfFaultFreeUnderDropAndReboot) {
  const auto seed = baseSeed();
  const auto clean = runRcpChaos(seed, RcpChaosPlan{});
  RcpChaosPlan plan;
  plan.dropProbability = 0.01;  // the acceptance scenario: 1% loss
  plan.corruptProbability = 0.002;
  plan.reboot = true;
  const auto chaos = runRcpChaos(seed, plan);

  EXPECT_GT(chaos.drops, 0u);
  EXPECT_GT(chaos.retransmits, 0u);  // the prober actually worked for this
  EXPECT_GT(chaos.updates, 50u);
  EXPECT_NEAR(chaos.finalRateBps, clean.finalRateBps,
              0.25 * clean.finalRateBps);
  // And the clean run itself sits at the bottleneck.
  EXPECT_NEAR(clean.finalRateBps, static_cast<double>(kBottleneck),
              0.25 * static_cast<double>(kBottleneck));
}

TEST(ChaosRcp, DownWindowTriggersMdFallbackThenRecovers) {
  const auto seed = baseSeed() + 17;
  RcpChaosPlan plan;
  plan.downWindow = true;  // bottleneck dark for 0.5 s
  const auto out = runRcpChaos(seed, plan);
  // Whole control periods lost every probe: the controller must have taken
  // the multiplicative-decrease path instead of coasting on stale samples.
  EXPECT_GT(out.probeLosses, 0u);
  EXPECT_GE(out.mdFallbacks, 5u);
  // ... and still recovered to the bottleneck rate afterwards.
  EXPECT_NEAR(out.finalRateBps, static_cast<double>(kBottleneck),
              0.25 * static_cast<double>(kBottleneck));
}

TEST(ChaosRepro, SameSeedSameRunDifferentSeedDifferentRun) {
  RcpChaosPlan plan;
  plan.dropProbability = 0.01;
  plan.corruptProbability = 0.002;
  plan.reboot = true;
  const auto seed = baseSeed();
  const auto a = runRcpChaos(seed, plan);
  const auto b = runRcpChaos(seed, plan);
  EXPECT_EQ(a, b);  // bit-reproducible end to end
  const auto c = runRcpChaos(seed + 1, plan);
  EXPECT_FALSE(a == c);
}

// ------------------------------------------------ CSTORE lock vs. reboot

// Satellite: an RCP* controller holding the bottleneck's CSTORE lock across
// a switch reboot must detect the wipe via the boot epoch and re-acquire —
// never deadlock on a lock word that no longer exists. Swept over >= 10
// seeds with staggered reboot instants.
TEST(ChaosLock, HeldLockSurvivesRebootAcrossTenSeeds) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t seed = baseSeed() * 1000 + i;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Testbed tb;
    asic::SwitchConfig scfg;
    scfg.bufferPerQueueBytes = 64 * 1024;
    scfg.utilizationWindow = sim::Time::ms(50);
    buildDumbbell(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                  host::LinkParams{kBottleneck, sim::Time::ms(1)}, scfg);
    for (std::size_t s = 0; s < tb.switchCount(); ++s) {
      for (std::size_t port = 0; port < tb.sw(s).config().ports; ++port) {
        tb.sw(s).scratchWrite(
            core::addr::RcpRateRegister,
            static_cast<std::uint32_t>(tb.sw(s).portCapacityBps(port) / 1000),
            port);
      }
    }
    host::FlowSpec spec;
    spec.dstMac = tb.host(1).mac();
    spec.dstIp = tb.host(1).ip();
    spec.srcPort = 21000;
    spec.dstPort = 21000;
    spec.payloadBytes = 1000;
    spec.rateBps = 100e3;
    host::PacedFlow flow(tb.host(0), spec, 1);
    apps::RcpStarController::Config ccfg;
    ccfg.params.alpha = 0.5;
    ccfg.params.beta = 1.0;
    ccfg.params.rttSeconds = 0.05;
    ccfg.period = sim::Time::ms(50);
    ccfg.dstMac = spec.dstMac;
    ccfg.dstIp = spec.dstIp;
    ccfg.probeTimeout = sim::Time::ms(5);
    ccfg.useCstoreLock = true;
    apps::RcpStarController ctl(tb.host(0), flow, ccfg);

    sim::FaultInjector inj(tb.sim(), seed);
    // Stagger the reboot across the control period so different seeds hit
    // different phases of the acquire/update cycle.
    const auto rebootAt =
        sim::Time::ms(1500 + static_cast<std::int64_t>(i) * 77);
    std::uint64_t updatesAtReboot = 0;
    bool heldAtReboot = false;
    inj.at(rebootAt, [&] {
      updatesAtReboot = ctl.updatesSent();
      heldAtReboot = ctl.lockHeld();
      tb.sw(0).reboot();
    });

    flow.start(sim::Time::zero());
    ctl.start(sim::Time::zero());
    tb.sim().run(sim::Time::sec(4));

    EXPECT_GE(ctl.lockAcquisitions(), 1u);
    EXPECT_GT(updatesAtReboot, 0u);   // lock path was live before the fault
    EXPECT_TRUE(heldAtReboot);        // single controller: lock stays held
    // The wiped lock was detected (epoch check), state reset, and updates
    // resumed — the no-deadlock property.
    EXPECT_GE(ctl.lockEpochResets(), 1u);
    EXPECT_GT(ctl.updatesSent(), updatesAtReboot);
    EXPECT_GE(ctl.lockAcquisitions(), 2u);  // re-acquired after the reset
    // No leaked lock: the word is free or owned by this controller.
    const auto lockWord =
        *tb.sw(0).scratchRead(core::addr::RcpLockRegister, 1);
    EXPECT_TRUE(lockWord == 0 || lockWord == ctl.lockOwnerId())
        << "leaked lock word " << lockWord;
    flow.stop();
    ctl.stop();
  }
}

TEST(ChaosLock, ForeignStuckLockClearsOnReboot) {
  // A dead controller's lock blocks ours (contention, no updates); the
  // reboot wipes it and ours proceeds. The complement of the epoch-reset
  // path: here the reboot is what *unsticks* the protocol.
  Testbed tb;
  asic::SwitchConfig scfg;
  scfg.bufferPerQueueBytes = 64 * 1024;
  scfg.utilizationWindow = sim::Time::ms(50);
  buildDumbbell(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{kBottleneck, sim::Time::ms(1)}, scfg);
  for (std::size_t port = 0; port < tb.sw(0).config().ports; ++port) {
    tb.sw(0).scratchWrite(
        core::addr::RcpRateRegister,
        static_cast<std::uint32_t>(tb.sw(0).portCapacityBps(port) / 1000),
        port);
  }
  // Port 1 is the bottleneck egress; wedge its lock with a foreign owner.
  ASSERT_TRUE(
      tb.sw(0).scratchWrite(core::addr::RcpLockRegister, 0xdeadbeef, 1));

  host::FlowSpec spec;
  spec.dstMac = tb.host(1).mac();
  spec.dstIp = tb.host(1).ip();
  spec.srcPort = 21000;
  spec.dstPort = 21000;
  spec.payloadBytes = 1000;
  spec.rateBps = 100e3;
  host::PacedFlow flow(tb.host(0), spec, 1);
  apps::RcpStarController::Config ccfg;
  ccfg.params.alpha = 0.5;
  ccfg.params.beta = 1.0;
  ccfg.params.rttSeconds = 0.05;
  ccfg.period = sim::Time::ms(50);
  ccfg.dstMac = spec.dstMac;
  ccfg.dstIp = spec.dstIp;
  ccfg.useCstoreLock = true;
  apps::RcpStarController ctl(tb.host(0), flow, ccfg);

  sim::FaultInjector inj(tb.sim(), baseSeed());
  std::uint64_t updatesBeforeReboot = 0;
  inj.at(sim::Time::sec(2), [&] {
    updatesBeforeReboot = ctl.updatesSent();
    tb.sw(0).reboot();
  });

  flow.start(sim::Time::zero());
  ctl.start(sim::Time::zero());
  tb.sim().run(sim::Time::sec(4));

  EXPECT_EQ(updatesBeforeReboot, 0u);   // wedged the whole first half
  EXPECT_GT(ctl.lockContention(), 10u);
  EXPECT_GT(ctl.updatesSent(), 0u);     // unwedged by the wipe
  EXPECT_GE(ctl.lockAcquisitions(), 1u);
  flow.stop();
  ctl.stop();
}

// ----------------------------------------- partial traces (holes) chaos

TEST(ChaosNdb, TppUnawareSwitchYieldsFlaggedPartialTraces) {
  Testbed tb;
  buildChain(tb, 2, host::LinkParams{1'000'000'000, sim::Time::us(5)});
  tb.sw(1).setTcpuEnabled(false);  // second hop forwards but never executes
  apps::TraceCollector collector(tb.host(1), /*taskId=*/0,
                                 /*expectedHops=*/2);
  const auto program = apps::makeTraceProgram(8);
  for (int i = 0; i < 20; ++i) {
    tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
  }
  tb.sim().run(sim::Time::ms(50));
  ASSERT_EQ(collector.count(), 20u);
  EXPECT_EQ(collector.incompleteCount(), 20u);
  for (const auto& trace : collector.traces()) {
    // The valid prefix survives: hop 0 parsed, the hole flagged.
    ASSERT_EQ(trace.hops.size(), 1u);
    EXPECT_EQ(trace.hops[0].switchId, tb.sw(0).config().switchId);
    EXPECT_TRUE(trace.incomplete);
  }

  // Re-enabling the TCPU heals the traces.
  tb.sw(1).setTcpuEnabled(true);
  collector.clear();
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
  tb.sim().run(tb.sim().now() + sim::Time::ms(10));
  ASSERT_EQ(collector.count(), 1u);
  EXPECT_EQ(collector.incompleteCount(), 0u);
  EXPECT_EQ(collector.traces()[0].hops.size(), 2u);
}

TEST(ChaosMicroburst, PartialResultsFlaggedButStillSampled) {
  Testbed tb;
  buildChain(tb, 2, host::LinkParams{1'000'000'000, sim::Time::us(5)});
  tb.sw(1).setTcpuEnabled(false);
  apps::MicroburstMonitor::Config mcfg;
  mcfg.dstMac = tb.host(1).mac();
  mcfg.dstIp = tb.host(1).ip();
  mcfg.interval = sim::Time::us(200);
  mcfg.expectedHops = 2;
  apps::MicroburstMonitor monitor(tb.host(0), mcfg);
  monitor.start(sim::Time::zero());
  tb.sim().run(sim::Time::ms(20));
  monitor.stop();
  EXPECT_GT(monitor.resultsReceived(), 10u);
  EXPECT_EQ(monitor.partialResults(), monitor.resultsReceived());
  // The one TPP-aware hop still produced usable samples.
  ASSERT_EQ(monitor.hopsObserved(), 1u);
  EXPECT_GT(monitor.hopSeries(0).size(), 10u);
}

// ------------------------------------------------ aggregate limiter chaos

TEST(ChaosLimiter, RebootWipesCounterAndRefillerReinstalls) {
  constexpr std::uint16_t kToken = core::kSramBase + 16;
  Testbed tb;
  buildDumbbell(tb, 4, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{1'000'000'000, sim::Time::us(10)});
  host::SramOracleSet oracles(tb.switchCount());
  host::armSramOracle(tb, oracles);
  apps::TokenRefiller::Config rcfg;
  rcfg.dstMac = tb.host(0).mac();
  rcfg.dstIp = tb.host(0).ip();
  rcfg.tokenAddress = kToken;
  rcfg.aggregateRateBps = 8e6;
  rcfg.bucketBytes = 20'000;
  rcfg.period = sim::Time::ms(5);
  apps::TokenRefiller refiller(tb.host(7), rcfg);

  host::FlowSpec spec;
  spec.dstMac = tb.host(4).mac();
  spec.dstIp = tb.host(4).ip();
  spec.srcPort = 27000;
  spec.dstPort = 27000;
  spec.payloadBytes = 1000;
  spec.rateBps = 100e6;
  host::PacedFlow flow(tb.host(0), spec, 1);
  apps::TokenBucketSender::Config scfg;
  scfg.tokenAddress = kToken;
  scfg.chunkBytes = 5000;
  apps::TokenBucketSender sender(tb.host(0), flow, scfg);

  sim::FaultInjector inj(tb.sim(), baseSeed());
  std::uint64_t refillsBefore = 0, sentBefore = 0;
  inj.at(sim::Time::ms(1500), [&] {
    refillsBefore = refiller.refills();
    sentBefore = sender.bytesSent();
    tb.sw(0).reboot();
  });

  refiller.start(sim::Time::zero());
  sender.start(sim::Time::ms(1));
  tb.sim().run(sim::Time::sec(3));
  refiller.stop();
  sender.stop();

  EXPECT_GT(refillsBefore, 2u);
  EXPECT_GT(sentBefore, 0u);
  // The wipe was noticed and SRAM state re-installed from zero...
  EXPECT_GE(refiller.epochResets(), 1u);
  EXPECT_GE(sender.epochResets(), 1u);
  // ...so refills and gated traffic kept flowing afterwards.
  EXPECT_GT(refiller.refills(), refillsBefore);
  EXPECT_GT(sender.bytesSent(), sentBefore);
  const auto tokens = tb.sw(0).scratchRead(kToken);
  ASSERT_TRUE(tokens.has_value());
  EXPECT_LE(*tokens, 20'000u);
  // The refiller's CSTOREs and the sender's reads interleaved across a
  // reboot — all within task 4, so the oracle must see no conflict.
  EXPECT_GT(oracles.accesses(), 0u);
  expectNoOracleDivergence(oracles, kToken);
}

// ------------------------------------------------- race oracle, multi-task

// Two scratch-active tasks (aggregate limiter CASing its token word,
// microburst monitor sampling queues) plus loss on the bottleneck: the
// observed per-word interleavings must stay inside the static verdict —
// the deployment the analyzer certified conflict-free really is.
TEST(ChaosOracle, MultiTaskScratchTrafficMatchesStaticVerdict) {
  constexpr std::uint16_t kToken = core::kSramBase + 16;
  Testbed tb;
  buildDumbbell(tb, 4, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{100'000'000, sim::Time::us(100)});
  host::SramOracleSet oracles(tb.switchCount());
  host::armSramOracle(tb, oracles);

  apps::TokenRefiller::Config rcfg;
  rcfg.dstMac = tb.host(0).mac();
  rcfg.dstIp = tb.host(0).ip();
  rcfg.tokenAddress = kToken;
  rcfg.aggregateRateBps = 8e6;
  rcfg.bucketBytes = 20'000;
  rcfg.period = sim::Time::ms(5);
  apps::TokenRefiller refiller(tb.host(7), rcfg);

  host::FlowSpec spec;
  spec.dstMac = tb.host(4).mac();
  spec.dstIp = tb.host(4).ip();
  spec.srcPort = 27000;
  spec.dstPort = 27000;
  spec.payloadBytes = 1000;
  spec.rateBps = 50e6;
  host::PacedFlow flow(tb.host(0), spec, 1);
  apps::TokenBucketSender::Config scfg;
  scfg.tokenAddress = kToken;
  scfg.chunkBytes = 5000;
  apps::TokenBucketSender sender(tb.host(0), flow, scfg);

  apps::MicroburstMonitor::Config mcfg;
  mcfg.dstMac = tb.host(5).mac();
  mcfg.dstIp = tb.host(5).ip();
  mcfg.interval = sim::Time::ms(1);
  apps::MicroburstMonitor monitor(tb.host(1), mcfg);

  sim::FaultInjector inj(tb.sim(), baseSeed());
  auto& fwd = inj.link("bottleneck", {0.005, 0.0});
  tb.linkAt(8).aToB().setFaultState(&fwd);  // link 8 = the bottleneck

  refiller.start(sim::Time::zero());
  sender.start(sim::Time::ms(1));
  monitor.start(sim::Time::zero());
  tb.sim().run(sim::Time::sec(2));
  refiller.stop();
  sender.stop();
  monitor.stop();

  EXPECT_GT(refiller.refills(), 0u);
  EXPECT_GT(oracles.accesses(), 0u);
  expectNoOracleDivergence(oracles, kToken);
}

// ---------------------------------------------------------------- TCP chaos
//
// The reliable-transport acceptance scenarios: Poisson/bounded-Pareto flows
// over real TCP connections crossing a faulty bottleneck. "Stuck" means a
// client connection that is neither closed cleanly nor failed by the end of
// a run that left ample time — the one outcome the give-up path exists to
// make impossible. (Server-side connections may legitimately idle in
// Established when their client gave up, so done() is asserted on clients.)

struct TcpChaosOutcome {
  std::size_t flows = 0;
  std::size_t finished = 0;
  std::size_t failed = 0;
  std::uint64_t offeredBytes = 0;
  std::uint64_t deliveredBytes = 0;
  std::uint64_t patternErrors = 0;
  std::uint64_t drops = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rtoFires = 0;
  std::vector<std::int64_t> fctNanos;  // per flow, schedule order
  bool operator==(const TcpChaosOutcome&) const = default;
};

struct TcpChaosPlan {
  double dropProbability = 0.0;
  double corruptProbability = 0.0;
  // Deterministic background transfer riding alongside the Poisson flows.
  // The heavy-tailed size draw can produce a tiny workload on an unlucky
  // seed (tens of KB => a few hundred bottleneck packets => a few percent
  // chance that 1% loss never bites); the bulk flow floors the fault trial
  // count in the thousands so "the faults actually bit" holds for ANY seed.
  std::uint64_t bulkBytes = 0;
};

// ~24 short TCP flows (Poisson arrivals, bounded-Pareto sizes) from two
// senders across a 50 Mb/s dumbbell bottleneck carrying the plan's faults.
// The run leaves ~7.5 s of slack past the 400 ms arrival horizon, so every
// flow either completes or gives up — never remains in flight.
TcpChaosOutcome runTcpChaos(std::uint64_t seed, const TcpChaosPlan& plan) {
  Testbed tb;
  asic::SwitchConfig scfg;
  scfg.bufferPerQueueBytes = 128 * 1024;
  buildDumbbell(tb, 2, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{50'000'000, sim::Time::us(50)}, scfg);

  host::TcpConnection::Config ccfg;
  ccfg.minRto = sim::Time::ms(5);
  host::Host& recv = tb.host(2);
  host::TcpListener listener(recv, 23000, ccfg);

  workload::TcpPoissonFlowGenerator::Config gcfg;
  gcfg.dstMac = recv.mac();
  gcfg.dstIp = recv.ip();
  gcfg.flowsPerSecond = 60.0;
  gcfg.minFlowBytes = 2.0 * 1024;
  gcfg.maxFlowBytes = 200.0 * 1024;
  gcfg.horizon = sim::Time::ms(400);
  gcfg.conn = ccfg;
  workload::TcpPoissonFlowGenerator gen({&tb.host(0), &tb.host(1)}, gcfg,
                                        sim::Rng(seed));

  sim::FaultInjector inj(tb.sim(), seed);
  auto& fwd = inj.link("bottleneck:l->r",
                       {plan.dropProbability, plan.corruptProbability});
  auto& rev = inj.link("bottleneck:r->l",
                       {plan.dropProbability, plan.corruptProbability});
  tb.linkAt(4).aToB().setFaultState(&fwd);  // link 4 = the bottleneck
  tb.linkAt(4).bToA().setFaultState(&rev);

  std::unique_ptr<host::TcpConnection> bulk;
  if (plan.bulkBytes > 0) {
    bulk = std::make_unique<host::TcpConnection>(tb.host(0), ccfg);
    tb.sim().scheduleAt(sim::Time::ms(1), [&] {
      bulk->connect(recv.mac(), recv.ip(), 23000, 39999, plan.bulkBytes);
    });
  }

  gen.start(sim::Time::ms(1));
  tb.sim().run(sim::Time::sec(8));

  TcpChaosOutcome out;
  out.flows = gen.flowCount();
  out.finished = gen.finishedCount();
  out.failed = gen.failedCount();
  out.deliveredBytes = listener.deliveredBytes();
  out.patternErrors = listener.patternErrors();
  out.drops = inj.totalDrops();
  out.corrupted = inj.totalCorrupted();
  for (std::size_t f = 0; f < gen.flowCount(); ++f) {
    const auto& rec = gen.records()[f];
    out.offeredBytes += rec.bytes;
    out.fctNanos.push_back(rec.finished() ? rec.fct().nanos() : -1);
    out.retransmits += gen.connection(f).retransmits();
    out.rtoFires += gen.connection(f).rtoFires();
    EXPECT_TRUE(gen.connection(f).done())
        << "flow " << f << " stuck in state "
        << static_cast<int>(gen.connection(f).state());
  }
  if (bulk) {
    EXPECT_TRUE(bulk->closedCleanly()) << "bulk flow: " << bulk->error();
    out.offeredBytes += plan.bulkBytes;
    out.retransmits += bulk->retransmits();
    out.rtoFires += bulk->rtoFires();
  }
  return out;
}

TEST(ChaosTcp, DropAndCorruptEveryByteDeliveredExactlyOnce) {
  const auto seed = baseSeed();
  TcpChaosPlan plan;
  plan.dropProbability = 0.01;  // the acceptance scenario: 1% loss
  plan.corruptProbability = 0.01;  // high enough that any seed sees flips
  plan.bulkBytes = 2 * 1024 * 1024;  // floors fault trials for any seed
  const auto out = runTcpChaos(seed, plan);

  EXPECT_GT(out.flows, 5u);
  EXPECT_EQ(out.finished, out.flows);  // zero stuck, zero given-up
  EXPECT_EQ(out.failed, 0u);
  // Exactly-once: the cumulative-ACK frontier advanced over every offered
  // byte, and every delivered byte matched its stream offset's pattern.
  EXPECT_EQ(out.deliveredBytes, out.offeredBytes);
  EXPECT_EQ(out.patternErrors, 0u);
  // The faults actually bit, and the machinery actually recovered.
  EXPECT_GT(out.drops, 0u);
  EXPECT_GT(out.corrupted, 0u);
  EXPECT_GT(out.retransmits, 0u);

  // Bit-reproducible from (seed, scenario) alone.
  const auto again = runTcpChaos(seed, plan);
  EXPECT_EQ(out, again);
}

TEST(ChaosTcp, FctInflationBoundedAcrossTenSeeds) {
  // Same seed => same flow schedule, so clean and chaos runs pair up
  // flow-for-flow. 1% loss may cost a flow RTO stalls but must never cost
  // it seconds: the additive bound is generous enough for any nightly seed
  // while still catching a stuck-retransmission regression.
  TcpChaosPlan plan;
  plan.dropProbability = 0.01;
  plan.corruptProbability = 0.01;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t seed = baseSeed() * 1000 + i;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto clean = runTcpChaos(seed, TcpChaosPlan{});
    const auto chaos = runTcpChaos(seed, plan);
    ASSERT_EQ(clean.flows, chaos.flows);
    ASSERT_EQ(chaos.finished, chaos.flows);
    ASSERT_EQ(clean.finished, clean.flows);
    for (std::size_t f = 0; f < clean.flows; ++f) {
      EXPECT_LE(chaos.fctNanos[f],
                clean.fctNanos[f] + sim::Time::sec(3).nanos())
          << "flow " << f << " inflated from " << clean.fctNanos[f]
          << "ns to " << chaos.fctNanos[f] << "ns";
    }
  }
}

TEST(ChaosTcp, DownWindowRiddenOutOrSurfacedNeverStuck) {
  // The bottleneck goes dark for 500 ms mid-transfer. A patient connection
  // (default retry budget) must ride it out on capped exponential backoff
  // and still deliver every byte; an impatient one that runs out of budget
  // inside the window must surface a connection error — the two permitted
  // outcomes. Stuck is not one of them.
  Testbed tb;
  asic::SwitchConfig scfg;
  scfg.bufferPerQueueBytes = 128 * 1024;
  buildDumbbell(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{10'000'000, sim::Time::us(50)}, scfg);

  host::TcpConnection::Config rider;
  rider.minRto = sim::Time::ms(5);  // backoff 5,10,…,200 spans the window
  host::TcpListener listener(tb.host(1), 23000, rider);

  sim::FaultInjector inj(tb.sim(), baseSeed());
  auto& fwd = inj.link("bottleneck:l->r", {});
  auto& rev = inj.link("bottleneck:r->l", {});
  tb.linkAt(2).aToB().setFaultState(&fwd);
  tb.linkAt(2).bToA().setFaultState(&rev);
  inj.linkDownWindow(fwd, sim::Time::ms(1000), sim::Time::ms(1500));
  inj.linkDownWindow(rev, sim::Time::ms(1000), sim::Time::ms(1500));

  // Patient: 2 MB at 10 Mb/s spans [0, ~1.7s+] — mid-stream when the link
  // dies.
  host::TcpConnection patient(tb.host(0), rider);
  patient.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000,
                  2u << 20);

  // Impatient: tries to open mid-window with a 2-timeout budget.
  host::TcpConnection::Config tiny;
  tiny.initialRto = sim::Time::ms(10);
  tiny.maxRto = sim::Time::ms(20);
  tiny.maxRetries = 2;
  host::TcpConnection impatient(tb.host(0), tiny);
  tb.sim().scheduleAt(sim::Time::ms(1050), [&] {
    impatient.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30001,
                      10'000);
  });

  tb.sim().run(sim::Time::sec(6));

  EXPECT_TRUE(patient.closedCleanly()) << patient.error();
  EXPECT_GT(patient.rtoFires(), 2u);  // it backed off through the window
  EXPECT_EQ(listener.connection(0).deliveredBytes(), 2u << 20);
  EXPECT_EQ(listener.patternErrors(), 0u);

  EXPECT_TRUE(impatient.failed());
  EXPECT_TRUE(impatient.done());
  EXPECT_FALSE(impatient.error().empty());
  // The give-up happened during the darkness, not after some later timeout.
  ASSERT_TRUE(impatient.closedAt().has_value());
  EXPECT_LT(*impatient.closedAt(), sim::Time::ms(1500));
}

TEST(ChaosTcp, RebootMidFlowWithTppControllerStillCompletes) {
  // A switch reboot (SRAM wipe + BootEpoch bump) mid-transfer: the TPP
  // controller must notice the epoch change and skip that round rather
  // than act on freshly-zeroed counters, and the transfer itself must be
  // oblivious — TCP keeps no switch state.
  Testbed tb;
  asic::SwitchConfig scfg;
  scfg.bufferPerQueueBytes = 64 * 1024;
  buildDumbbell(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{50'000'000, sim::Time::us(50)}, scfg);
  host::TcpListener listener(tb.host(1), 23000);
  host::TcpConnection conn(tb.host(0), {});
  conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 30000, 2u << 20);
  apps::TppTcpController ctl(tb.host(0), conn, {});
  ctl.start(sim::Time::zero());

  sim::FaultInjector inj(tb.sim(), baseSeed());
  inj.at(sim::Time::ms(100), [&] { tb.sw(1).reboot(); });

  tb.sim().run(sim::Time::sec(5));
  ctl.stop();

  EXPECT_TRUE(conn.closedCleanly()) << conn.error();
  EXPECT_EQ(listener.deliveredBytes(), 2u << 20);
  EXPECT_EQ(listener.patternErrors(), 0u);
  EXPECT_GT(ctl.probesSent(), 10u);
  EXPECT_GE(ctl.epochChanges(), 1u);
}

// ----------------------------------------------------- TCP incast tail FCT

struct TcpIncastResult {
  std::size_t finished = 0;
  sim::Time maxFct = sim::Time::zero();  // p99 ~ max for 8 flows
  std::uint64_t rtoFires = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t probeCuts = 0;
};

// Fault-free 8-to-1 incast into a shallow-buffered star switch; entirely
// deterministic (no randomness), so the TPP-vs-plain comparison holds for
// any chaos seed. The regime is chosen so the transfer is long enough for
// steady-state behaviour to dominate the synchronized opening burst (which
// overflows the buffer before any probe echo can return): there the probe
// cuts keep the queue off the cliff and the win is robust across a wide
// band of thresholds (2-6 KB) and cut factors (0.6-0.8).
TcpIncastResult runTcpIncast(bool withTpp) {
  Testbed tb;
  asic::SwitchConfig scfg;
  scfg.ports = 9;
  scfg.bufferPerQueueBytes = 16 * 1024;
  buildStar(tb, 8, host::LinkParams{1'000'000'000, sim::Time::us(5)}, scfg);
  host::Host& recv = tb.host(8);
  host::TcpListener listener(recv, 23000);

  workload::TcpIncast::Config icfg;
  icfg.dstMac = recv.mac();
  icfg.dstIp = recv.ip();
  icfg.burstBytes = 512 * 1024;
  std::vector<host::Host*> senders;
  for (std::size_t i = 0; i < 8; ++i) senders.push_back(&tb.host(i));
  workload::TcpIncast incast(senders, icfg);
  incast.start(sim::Time::zero());

  std::vector<std::unique_ptr<apps::TppTcpController>> ctls;
  if (withTpp) {
    apps::TppTcpController::Config tcfg;
    tcfg.queueThresholdBytes = 4 * 1024;
    tcfg.cutFactor = 0.7;
    for (std::size_t i = 0; i < 8; ++i) {
      ctls.push_back(std::make_unique<apps::TppTcpController>(
          tb.host(i), incast.connection(i), tcfg));
      ctls.back()->start(sim::Time::us(50));
    }
  }

  tb.sim().run(sim::Time::sec(10));

  TcpIncastResult r;
  r.finished = incast.finishedCount();
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& rec = incast.records()[i];
    if (rec.finished()) r.maxFct = std::max(r.maxFct, rec.fct());
    r.rtoFires += incast.connection(i).rtoFires();
    r.retransmits += incast.connection(i).retransmits();
  }
  for (const auto& c : ctls) r.probeCuts += c->probeCuts();
  return r;
}

TEST(ChaosTcpIncast, TppProbeCutsImproveTailFct) {
  const auto plain = runTcpIncast(/*withTpp=*/false);
  const auto tpp = runTcpIncast(/*withTpp=*/true);

  ASSERT_EQ(plain.finished, 8u);
  ASSERT_EQ(tpp.finished, 8u);
  // Plain TCP discovers the 16 KB buffer by overflowing it.
  EXPECT_GT(plain.retransmits, 0u);
  // The probe path actually engaged…
  EXPECT_GT(tpp.probeCuts, 0u);
  // …and early cwnd cuts beat loss-driven recovery on the tail.
  EXPECT_LT(tpp.maxFct, plain.maxFct);
  EXPECT_LE(tpp.retransmits, plain.retransmits);
}

}  // namespace
}  // namespace tpp
