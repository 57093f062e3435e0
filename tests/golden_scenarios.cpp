#include "tests/golden_scenarios.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/apps/microburst.hpp"
#include "src/apps/ndb.hpp"
#include "src/apps/rcpstar.hpp"
#include "src/host/flow.hpp"
#include "src/host/telemetry.hpp"
#include "src/host/topology.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/trace.hpp"
#include "src/workload/generators.hpp"

namespace tpp::test {
namespace {

// Small enough that three checked-in goldens stay under ~64 KiB each, big
// enough that none of the scenarios below wraps (wrap would still be
// deterministic, but whole-run traces make diffs readable).
constexpr std::size_t kGoldenRing = 2048;

// §2.1: incast bursts into a shallow star egress, monitored by TPP probes.
std::vector<std::uint8_t> runMicroburst() {
  host::Testbed tb;
  asic::SwitchConfig cfg;
  cfg.bufferPerQueueBytes = 256 * 1024;
  buildStar(tb, 2, host::LinkParams{1'000'000'000, sim::Time::us(2)}, cfg);
  sim::Tracer tracer(kGoldenRing);
  host::armTracing(tb, tracer);

  host::Host& receiver = tb.host(2);
  workload::IncastBurst::Config icfg;
  icfg.dstMac = receiver.mac();
  icfg.dstIp = receiver.ip();
  icfg.burstBytes = 8'000;
  icfg.period = sim::Time::ms(1);
  workload::IncastBurst incast({&tb.host(0), &tb.host(1)}, icfg);
  incast.start(sim::Time::us(500));

  apps::MicroburstMonitor::Config mcfg;
  mcfg.dstMac = receiver.mac();
  mcfg.dstIp = receiver.ip();
  mcfg.interval = sim::Time::us(500);
  apps::MicroburstMonitor monitor(tb.host(0), mcfg);
  monitor.start(sim::Time::zero());

  tb.run(sim::Time::ms(3));
  monitor.stop();
  incast.stop();
  tb.run();
  return tracer.serialize();
}

// §2.2: one RCP* controller adapting a paced flow over a single switch.
std::vector<std::uint8_t> runRcpStar() {
  host::Testbed tb;
  buildChain(tb, 1, host::LinkParams{10'000'000, sim::Time::us(50)});
  sim::Tracer tracer(kGoldenRing);
  host::armTracing(tb, tracer);

  host::FlowSpec spec;
  spec.dstMac = tb.host(1).mac();
  spec.dstIp = tb.host(1).ip();
  spec.srcPort = 21000;
  spec.dstPort = 21000;
  spec.payloadBytes = 1000;
  spec.rateBps = 500e3;
  host::PacedFlow flow(tb.host(0), spec, /*flowId=*/1);

  apps::RcpStarController::Config ccfg;
  ccfg.params.alpha = 0.5;
  ccfg.params.beta = 1.0;
  ccfg.params.rttSeconds = 0.01;
  ccfg.period = sim::Time::ms(5);
  ccfg.probesPerPeriod = 2;
  ccfg.dstMac = spec.dstMac;
  ccfg.dstIp = spec.dstIp;
  apps::RcpStarController controller(tb.host(0), flow, ccfg);

  flow.start(sim::Time::zero());
  controller.start(sim::Time::zero());
  tb.run(sim::Time::ms(25));
  controller.stop();
  flow.stop();
  tb.run();
  return tracer.serialize();
}

// §2.3: path tracing over a 3-switch chain, with a mid-run link-down
// window so the golden also pins the fault-verdict record stream.
std::vector<std::uint8_t> runNdb() {
  host::Testbed tb;
  buildChain(tb, 3, host::LinkParams{1'000'000'000, sim::Time::us(1)});
  sim::Tracer tracer(kGoldenRing);
  host::armTracing(tb, tracer);

  sim::FaultInjector inj(tb.sim(), /*seed=*/7);
  auto& mid = inj.link("sw1->sw2");
  tb.linkAt(2).aToB().setFaultState(&mid);
  inj.linkDownWindow(mid, sim::Time::us(900), sim::Time::us(2100));

  apps::TraceCollector collector(tb.host(1));
  const auto sendProbe = [&] {
    tb.host(0).sendUdpWithTpp(tb.host(1).mac(), tb.host(1).ip(), 5000, 5000,
                              {}, apps::makeTraceProgram());
  };
  tb.sim().scheduleAt(sim::Time::us(200), sendProbe);   // clean pass
  tb.sim().scheduleAt(sim::Time::us(1500), sendProbe);  // dies at sw1->sw2
  tb.sim().scheduleAt(sim::Time::us(3000), sendProbe);  // clean again
  tb.run();
  return tracer.serialize();
}

}  // namespace

const std::vector<std::string>& goldenScenarioNames() {
  static const std::vector<std::string> kNames = {"microburst", "rcpstar",
                                                  "ndb"};
  return kNames;
}

std::vector<std::uint8_t> runGoldenScenario(const std::string& name) {
  if (name == "microburst") return runMicroburst();
  if (name == "rcpstar") return runRcpStar();
  if (name == "ndb") return runNdb();
  std::fprintf(stderr, "unknown golden scenario \"%s\"\n", name.c_str());
  std::abort();
}

std::string goldenFileName(const std::string& name) {
  return name + ".tpptrace";
}

}  // namespace tpp::test
