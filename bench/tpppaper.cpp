// tpppaper: reproduces the paper's figures, tables and ablations on the
// simulated substrate, one case each:
//
//   fig1 table1 fig2 table2 fig3 fig4 fig5    the paper's figures and tables
//   s21 s23 s33 s4                            the §2.1/§2.3/§3.3/§4 analyses
//   a1 a2 a3 a4                               ablations (EXPERIMENTS.md)
//
//   $ tpppaper [case...]
//
// runs the named cases, or every case when none is named. Each case prints
// the rows or series the paper reports and checks its shape: who wins, by
// what factor, where behaviour changes. Absolute numbers are not expected to
// match the paper (the substrate is a simulator, not a Linux router or a
// production ASIC), but the simulator is deterministic, so every case's
// output is pinned byte for byte in tests/golden/paper/<case>.out
// (`ctest -L paper`). Exits 1 when a shape does not hold, 2 on an unknown
// case.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/aimd.hpp"
#include "src/apps/dctcp.hpp"
#include "src/apps/latency_profiler.hpp"
#include "src/apps/microburst.hpp"
#include "src/apps/ndb.hpp"
#include "src/apps/rcpstar.hpp"
#include "src/core/assembler.hpp"
#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/host/collector.hpp"
#include "src/host/flow.hpp"
#include "src/host/topology.hpp"
#include "src/rcp/rcp_router.hpp"
#include "src/tcpu/tcpu.hpp"
#include "src/workload/generators.hpp"
#include "tests/fake_memory.hpp"

namespace {

using namespace tpp;

// One 64 B frame (+ 24 B preamble, FCS and gap) arrives every 70.4 ns on a
// 10 GbE port: the per-packet budget of a line-rate switch (§1 fn 2, §3.3).
constexpr double kNsPer64BFrame = (64 + 24) * 8 / 10.0;

// The path rate of the chains in Fig 1, §4 and A4.
constexpr std::uint64_t kChainRate = 100'000'000;

// A chain of `switches` hops with 1 MB buffers from host 0 to host 1. An
// extra host on hop `hot`'s port 2 sends to host 1 at `load` x the path
// rate, so that hop's egress queues; the returned cross flow is already
// running.
std::unique_ptr<host::PacedFlow> buildCongestedChain(
    host::Testbed& tb, std::size_t switches, sim::Time delay,
    std::size_t hot, double load, std::uint64_t ecnThresholdBytes = 0) {
  asic::SwitchConfig cfg;
  cfg.bufferPerQueueBytes = 1 << 20;
  cfg.ecnThresholdBytes = ecnThresholdBytes;
  buildChain(tb, switches, host::LinkParams{kChainRate, delay}, cfg);
  auto& xsrc = tb.addHost();
  tb.link(xsrc, 0, tb.sw(hot), 2, 1'000'000'000, sim::Time::us(1));
  tb.installAllRoutes();
  host::FlowSpec xspec;
  xspec.dstMac = tb.host(1).mac();
  xspec.dstIp = tb.host(1).ip();
  xspec.rateBps = load * kChainRate;
  auto cross = std::make_unique<host::PacedFlow>(xsrc, xspec, 42);
  cross->start(sim::Time::zero());
  return cross;
}

// ------------------------------------------------------------------- Fig 1
// "Visualizing the execution of a TPP that queries the network for queue
// sizes." A PUSH [Queue:QueueSize] TPP walks a 3-switch chain whose middle
// hop carries 150 %-load cross traffic. We print the packet-memory /
// stack-pointer evolution the figure draws:
//
//   SP = 0x4   [0x00]
//   SP = 0x8   [0x00, 0xa0]
//   SP = 0xc   [0x00, 0xa0, 0x0e]
//
// Numbers differ from the paper's illustrative constants; the *shape* —
// one in-situ queue snapshot appended per hop — is the reproduced result.
bool fig1() {
  host::Testbed tb;
  auto cross = buildCongestedChain(tb, 3, sim::Time::us(5), 1, 1.5);

  const auto program = apps::makeQueueProbeProgram(3);
  std::printf("TPP under test:\n%s\n",
              core::disassemble(program).c_str());

  std::optional<core::ExecutedTpp> result;
  tb.host(0).onTppResult([&](const core::ExecutedTpp& t) { result = t; });
  tb.sim().schedule(sim::Time::ms(5), [&] {
    tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
  });
  tb.sim().run(sim::Time::ms(20));
  cross->stop();
  tb.sim().run();

  if (!result) {
    std::printf("probe lost (queues overflowed) — rerun with more buffer\n");
    return false;
  }

  // Reconstruct the hop-by-hop view of Fig 1 from the final packet memory:
  // each hop appended (switch id, queue bytes).
  const auto split = host::splitStackRecords(*result, 2);
  const auto& records = split.records;
  std::printf("packet memory evolution (as in Fig 1):\n");
  std::printf("  at the sender     SP = 0x0   []\n");
  std::size_t sp = 0;
  std::string contents;
  for (std::size_t h = 0; h < records.size(); ++h) {
    sp += 2 * core::kWordSize;
    char buf[64];
    std::snprintf(buf, sizeof buf, "sw%u:q=%uB", records[h][0],
                  records[h][1]);
    if (!contents.empty()) contents += ", ";
    contents += buf;
    std::printf("  after hop %zu       SP = 0x%zx  [%s]\n", h + 1, sp,
                contents.c_str());
  }

  std::printf("\nper-hop queue snapshot (bytes): ");
  for (const auto& rec : records) std::printf("%u ", rec[1]);
  std::printf("\nexpected shape: hop0 ~0 (uncongested), hop1 (where the "
              "150%%-load cross traffic joins) queued deep\n");
  const bool shapeHolds = split.complete(3) &&
                          records[1][1] > records[0][1] &&
                          records[1][1] > 10'000;
  std::printf("shape holds: %s\n", shapeHolds ? "yes" : "NO");
  return shapeHolds;
}

// ----------------------------------------------------------------- Table 1
// The TPP instruction set. Every opcode runs through the TCPU against an
// in-memory switch; the modelled cost of its program (pipeline cycles, ns at
// 1 GHz) must fit the per-packet budget of a 10 GbE port, i.e. each
// instruction "executes within the time budget for handling small sized
// packets at line-rate". The interpreter's own speed is bench_core's tcpu_*
// metrics.
core::Program programFor(core::Opcode op) {
  core::ProgramBuilder b;
  switch (op) {
    case core::Opcode::Nop: b.raw({core::Opcode::Nop, 0, 0}); break;
    case core::Opcode::Push: b.push(0x1000); break;
    case core::Opcode::Pop: b.push(0x1000); b.pop(0x1000); break;
    case core::Opcode::Load: b.load(0x1000, 0); break;
    case core::Opcode::Store: b.storeImm(0x1000, 7); break;
    case core::Opcode::Cstore: b.cstore(0x1000, 0, 1); break;
    case core::Opcode::Cexec: b.cexec(0x1000, 0xffffffff, 7); break;
    case core::Opcode::Add: b.add(0x1000, b.imm(0)); break;
    case core::Opcode::Sub: b.sub(0x1000, b.imm(0)); break;
    case core::Opcode::Min: b.minOp(0x1000, b.imm(0)); break;
    case core::Opcode::Max: b.maxOp(0x1000, b.imm(0)); break;
  }
  b.reserve(8);
  return *b.build();
}

bool table1() {
  std::printf("== Table 1: TPP instruction set ==\n");
  std::printf("%-8s %s\n", "LOAD,PUSH", "copy values from switch to packet");
  std::printf("%-8s %s\n", "STORE,POP", "copy values from packet to switch");
  std::printf("%-8s %s\n", "CSTORE", "conditional store (atomic update)");
  std::printf("%-8s %s\n", "CEXEC",
              "conditionally execute subsequent instructions");
  std::printf("plus arithmetic: ADD SUB MIN MAX (\"simple arithmetic\", §1)\n\n");

  std::printf("%-8s %-14s %-10s %-8s %-12s %-10s %s\n", "opcode",
              "program instrs", "executed", "fault", "tcpu cycles",
              "ns @1GHz", "fits 70.4 ns/pkt");
  bool allFit = true;
  for (const auto op :
       {core::Opcode::Load, core::Opcode::Push, core::Opcode::Store,
        core::Opcode::Pop, core::Opcode::Cstore, core::Opcode::Cexec,
        core::Opcode::Add, core::Opcode::Sub, core::Opcode::Min,
        core::Opcode::Max, core::Opcode::Nop}) {
    const auto program = programFor(op);
    auto packet = core::buildTppFrame(net::MacAddress::fromIndex(1),
                                      net::MacAddress::fromIndex(2), program);
    auto view = core::TppView::at(*packet, net::kEthernetHeaderSize);
    test::FakeMemory mem;
    mem.words[0x1000] = 7;
    tcpu::Tcpu tcpu;
    const auto report = tcpu.execute(*view, mem);
    const std::size_t n = program.instructions.size();
    const double ns = tcpu.cycleModel().nanos(n);
    const bool fits = report.ok() && report.executed == n &&
                      report.cycles == tcpu.cycleModel().cycles(n) &&
                      ns <= kNsPer64BFrame;
    allFit = allFit && fits;
    std::printf("%-8s %-14zu %-10zu %-8s %-12llu %-10.1f %s\n",
                std::string(core::opcodeName(op)).c_str(), n,
                report.executed,
                std::string(core::faultName(report.fault)).c_str(),
                static_cast<unsigned long long>(report.cycles), ns,
                fits ? "yes" : "NO");
  }
  std::printf("\nevery opcode executes within the line-rate budget: %s\n",
              allFit ? "yes" : "NO");
  return allFit;
}

// ------------------------------------------------------------- Fig 2 and A2
// Both run on one substrate: `pairs` senders left of a 10 Mb/s, 1 ms
// bottleneck, each sending to its partner on the right over 1 Gb/s access
// links. The control plane initializes every rate register to its link's
// capacity.
constexpr std::uint64_t kBottleneck = 10'000'000;
const sim::Time kRcpPeriod = sim::Time::ms(50);

void buildRcpDumbbell(host::Testbed& tb, std::size_t pairs,
                      std::uint64_t ecnThresholdBytes = 0) {
  asic::SwitchConfig cfg;
  cfg.bufferPerQueueBytes = 64 * 1024;
  cfg.utilizationWindow = sim::Time::ms(50);
  cfg.ecnThresholdBytes = ecnThresholdBytes;
  buildDumbbell(tb, pairs, host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{kBottleneck, sim::Time::ms(1)}, cfg);
  for (std::size_t s = 0; s < tb.switchCount(); ++s) {
    for (std::size_t p = 0; p < tb.sw(s).config().ports; ++p) {
      tb.sw(s).scratchWrite(
          core::addr::RcpRateRegister,
          static_cast<std::uint32_t>(tb.sw(s).portCapacityBps(p) / 1000), p);
    }
  }
}

// Pair i's flow, starting at 100 kb/s until its controller sets a rate.
host::FlowSpec rcpFlowSpec(host::Testbed& tb, std::size_t pairs,
                           std::size_t i) {
  host::FlowSpec spec;
  spec.dstMac = tb.host(pairs + i).mac();
  spec.dstIp = tb.host(pairs + i).ip();
  spec.srcPort = static_cast<std::uint16_t>(21000 + i);
  spec.dstPort = spec.srcPort;
  spec.rateBps = 100e3;
  return spec;
}

// Fig 2's parameters, used by A2 as well.
rcp::RcpParams rcpParams() {
  rcp::RcpParams params;
  params.alpha = 0.5;
  params.beta = 1.0;
  params.rttSeconds = 0.05;
  return params;
}

// In-switch RCP: the router evaluates the control equation on the
// bottleneck port and stamps it into each packet's RCP header; each flow
// takes the rate its receiver reads back. Pair i starts at starts[i].
struct InSwitchRcp {
  std::unique_ptr<rcp::RcpRouter> router;
  std::vector<std::unique_ptr<host::PacedFlow>> flows;
};

InSwitchRcp startInSwitchRcp(host::Testbed& tb,
                             const std::vector<sim::Time>& starts) {
  const std::size_t pairs = starts.size();
  rcp::RcpRouter::Config rcfg;
  rcfg.params = rcpParams();
  rcfg.period = kRcpPeriod;
  rcfg.managedPorts = {pairs};
  InSwitchRcp out{std::make_unique<rcp::RcpRouter>(tb.sw(0), rcfg), {}};
  tb.sw(0).setEgressInterceptor(out.router.get());
  out.router->start();
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto spec = rcpFlowSpec(tb, pairs, i);
    auto* flow = out.flows
                     .emplace_back(std::make_unique<host::PacedFlow>(
                         tb.host(i), spec, i + 1))
                     .get();
    flow->setPacketHook([](net::Packet& p) {
      const std::size_t off = net::kEthernetHeaderSize +
                              net::kIpv4HeaderSize + net::kUdpHeaderSize;
      rcp::RcpHeader h;
      h.write(p.span().subspan(off));
    });
    tb.host(pairs + i).bindUdp(spec.dstPort,
                               [flow](const host::UdpDatagram& d) {
                                 if (const auto h =
                                         rcp::RcpHeader::parse(d.payload);
                                     h && h->rateKbps != 0xffffffff) {
                                   flow->setRateBps(h->rateKbps * 1000.0);
                                 }
                               });
    flow->start(starts[i]);
  }
  return out;
}

// RCP*: each flow's end-host controller collects link state with TPPs,
// runs the same control equation, and CEXEC-STOREs the bottleneck's rate
// register. Pair i starts at starts[i].
struct RcpStarFlow {
  std::unique_ptr<host::PacedFlow> flow;
  std::unique_ptr<apps::RcpStarController> controller;
};

std::vector<RcpStarFlow> startRcpStar(host::Testbed& tb,
                                      const std::vector<sim::Time>& starts) {
  std::vector<RcpStarFlow> out;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto spec = rcpFlowSpec(tb, starts.size(), i);
    RcpStarFlow f;
    f.flow = std::make_unique<host::PacedFlow>(tb.host(i), spec, i + 1);
    apps::RcpStarController::Config ccfg;
    ccfg.params = rcpParams();
    ccfg.period = kRcpPeriod;
    // Above the dumbbell's ~2.04 ms path RTT: at the 2 ms library default,
    // probes time out and are resent while their echoes are still in
    // flight, and RCP* settles 5-15 % below the fair share.
    ccfg.probeTimeout = sim::Time::ms(10);
    ccfg.dstMac = spec.dstMac;
    ccfg.dstIp = spec.dstIp;
    f.controller = std::make_unique<apps::RcpStarController>(tb.host(i),
                                                             *f.flow, ccfg);
    f.flow->start(starts[i]);
    f.controller->start(starts[i]);
    out.push_back(std::move(f));
  }
  return out;
}

// Figure 2: "We compare a Linux router based implementation of RCP* and a
// simulation of the original RCP algorithm. We start one flow each at
// t=0s, t=10s and t=20s and we find that RCP* helps flows converge quickly
// to their fair share on the bottleneck link." Output: the R(t)/C series
// for both, plus per-epoch means (expected: ~1, ~1/2, ~1/3 as flows join).
const sim::Time kFig2RunFor = sim::Time::sec(30);

// Samples the bottleneck's rate register (left switch, port 3) every 100 ms.
void sampleRegister(host::Testbed& tb, sim::TimeSeries& series) {
  const auto rate =
      *tb.sw(0).scratchRead(core::addr::RcpRateRegister, /*port=*/3);
  series.add(tb.sim().now(), static_cast<double>(rate) * 1000.0 /
                                 static_cast<double>(kBottleneck));
  if (tb.sim().now() < kFig2RunFor) {
    tb.sim().schedule(sim::Time::ms(100),
                      [&tb, &series] { sampleRegister(tb, series); });
  }
}

sim::TimeSeries fig2Series(bool inSwitch) {
  host::Testbed tb;
  buildRcpDumbbell(tb, 3);
  const std::vector<sim::Time> starts{sim::Time::sec(0), sim::Time::sec(10),
                                      sim::Time::sec(20)};
  InSwitchRcp rcp;
  std::vector<RcpStarFlow> star;
  if (inSwitch) {
    rcp = startInSwitchRcp(tb, starts);
  } else {
    star = startRcpStar(tb, starts);
  }
  sim::TimeSeries series;
  sampleRegister(tb, series);
  tb.sim().run(kFig2RunFor);
  return series;
}

bool fig2() {
  std::printf("== Figure 2: RCP vs RCP*, R(t)/C on a 10 Mb/s bottleneck ==\n");
  std::printf("flows start at t = 0 s, 10 s, 20 s; alpha=0.5 beta=1\n\n");

  const auto baseline = fig2Series(/*inSwitch=*/true);
  const auto star = fig2Series(/*inSwitch=*/false);

  std::printf("t(s),RCP(in-switch)/C,RCP*(TPP+endhost)/C\n");
  for (std::size_t i = 0; i < baseline.points().size() &&
                          i < star.points().size();
       ++i) {
    std::printf("%.1f,%.3f,%.3f\n", baseline.points()[i].first.toSeconds(),
                baseline.points()[i].second, star.points()[i].second);
  }

  struct Epoch {
    int from, to;
    double fair;
  };
  const Epoch epochs[] = {{5, 10, 1.0}, {15, 20, 0.5}, {25, 30, 1.0 / 3}};
  std::printf("\n%-18s %-10s %-10s %-10s\n", "epoch", "fair", "RCP", "RCP*");
  bool shapeHolds = true;
  for (const auto& e : epochs) {
    const double b = baseline.meanOver(sim::Time::sec(e.from),
                                       sim::Time::sec(e.to));
    const double s = star.meanOver(sim::Time::sec(e.from),
                                   sim::Time::sec(e.to));
    std::printf("[%2d s, %2d s)       %-10.3f %-10.3f %-10.3f\n", e.from,
                e.to, e.fair, b, s);
    shapeHolds = shapeHolds && std::abs(b - e.fair) < 0.1 * e.fair &&
                 std::abs(s - e.fair) < 0.1 * e.fair;
  }
  std::printf("\nboth within 10%% of the fair share in every epoch: %s\n",
              shapeHolds ? "yes" : "NO");
  return shapeHolds;
}

// Ablation A2: why bother refactoring RCP at all? (§2.2's motivation: "RCP
// is a congestion control algorithm that rapidly allocates link capacity to
// help flows finish quickly", vs TCP-style AIMD.) One flow owns the
// bottleneck; at t=5 s a second flow joins. We measure how long the
// newcomer needs to reach 80 % of its fair share (C/2) under four
// controllers on the identical substrate:
//   AIMD        no network support (loss-driven sawtooth)
//   DCTCP       ECN marks (the §4 fixed-function baseline)
//   RCP         in-switch baseline
//   RCP*        TPP + end-host refactoring
// Expected shape: both RCP variants converge in a few control periods;
// AIMD needs many RTTs of additive climb and keeps oscillating.
const sim::Time kJoinAt = sim::Time::sec(5);
const sim::Time kA2RunFor = sim::Time::sec(25);
constexpr double kA2Settled = 0.8 * kBottleneck / 2;

// Seconds after kJoinAt until the series stays >= threshold for 3
// consecutive samples; NaN when it never settles.
double settleTime(const sim::TimeSeries& s, double thresholdBps) {
  int streak = 0;
  for (const auto& [t, v] : s.points()) {
    if (t < kJoinAt) continue;
    streak = v >= thresholdBps ? streak + 1 : 0;
    if (streak >= 3) return (t - kJoinAt).toSeconds();
  }
  return std::nan("");
}

// AIMD or DCTCP: the receiver-side controller paces its flow from loss or
// from ECN marks, respectively.
template <typename Controller>
double settleWithoutRcp(std::uint64_t ecnThresholdBytes) {
  host::Testbed tb;
  buildRcpDumbbell(tb, 2, ecnThresholdBytes);
  host::PacedFlow f1(tb.host(0), rcpFlowSpec(tb, 2, 0), 1);
  host::PacedFlow f2(tb.host(1), rcpFlowSpec(tb, 2, 1), 2);
  typename Controller::Config cfg;
  cfg.rtt = sim::Time::ms(50);
  cfg.additiveBps = 100e3;
  Controller c1(f1, tb.host(2), cfg);
  Controller c2(f2, tb.host(3), cfg);
  c1.start(sim::Time::zero());
  c2.start(kJoinAt);
  tb.sim().run(kA2RunFor);
  const double settle = settleTime(c2.rateSeries(), kA2Settled);
  c1.stop();
  c2.stop();
  return settle;
}

double settleInSwitchRcp() {
  host::Testbed tb;
  buildRcpDumbbell(tb, 2);
  const auto rcp = startInSwitchRcp(tb, {sim::Time::zero(), kJoinAt});
  // Sample the newcomer's achieved rate.
  sim::TimeSeries newcomer;
  std::function<void()> sample = [&] {
    newcomer.add(tb.sim().now(), rcp.flows[1]->rateBps());
    if (tb.sim().now() < kA2RunFor) {
      tb.sim().schedule(sim::Time::ms(100), sample);
    }
  };
  sample();
  tb.sim().run(kA2RunFor);
  return settleTime(newcomer, kA2Settled);
}

double settleRcpStar() {
  host::Testbed tb;
  buildRcpDumbbell(tb, 2);
  const auto flows = startRcpStar(tb, {sim::Time::zero(), kJoinAt});
  tb.sim().run(kA2RunFor);
  return settleTime(flows[1].controller->rateSeries(), kA2Settled);
}

bool a2() {
  std::printf("== Ablation A2: convergence of a late-joining flow ==\n");
  std::printf("10 Mb/s bottleneck; flow 2 joins at t=5 s; time to hold "
              ">=80%% of fair share (C/2):\n\n");
  const double aimd = settleWithoutRcp<apps::AimdController>(0);
  const double dctcp =
      settleWithoutRcp<apps::DctcpController>(/*ecnThresholdBytes=*/15'000);
  const double rcp = settleInSwitchRcp();
  const double star = settleRcpStar();
  std::printf("%-24s %-14s\n", "controller", "settle time");
  auto row = [](const char* name, double s) {
    if (std::isnan(s)) {
      std::printf("%-24s %-14s\n", name, "never");
    } else {
      std::printf("%-24s %.1f s\n", name, s);
    }
  };
  row("AIMD (no net support)", aimd);
  row("DCTCP (ECN marks)", dctcp);
  row("RCP (in-switch)", rcp);
  row("RCP* (TPP + end-host)", star);

  const bool shapeHolds = !std::isnan(rcp) && !std::isnan(star) &&
                          (std::isnan(aimd) || (rcp < aimd && star < aimd));
  std::printf("\nshape (RCP and RCP* beat AIMD to fair share): %s\n",
              shapeHolds ? "yes" : "NO");
  return shapeHolds;
}

// ----------------------------------------------------------------- Table 2
// The unified memory-mapped statistics namespaces. We bring up a live
// 2-switch network with traffic, then read EVERY statistic in the standard
// memory map through an actual TPP and verify it against the switch's
// ground-truth registers. The printed table is Table 2 with one extra
// column: the value a TPP observed in the dataplane.
const char* namespaceName(core::StatNamespace ns) {
  switch (ns) {
    case core::StatNamespace::Switch: return "Per-Switch";
    case core::StatNamespace::Port: return "Per-Port";
    case core::StatNamespace::Queue: return "Per-Queue";
    case core::StatNamespace::PacketMeta: return "Per-Packet";
    case core::StatNamespace::PortScratch: return "Scratch(port)";
    case core::StatNamespace::Sram: return "Scratch(global)";
    case core::StatNamespace::Unmapped: return "?";
  }
  return "?";
}

bool table2() {
  host::Testbed tb;
  buildChain(tb, 2, host::LinkParams{1'000'000'000, sim::Time::us(5)});
  // Background traffic so counters are non-trivial.
  host::FlowSpec spec;
  spec.dstMac = tb.host(1).mac();
  spec.dstIp = tb.host(1).ip();
  spec.rateBps = 200e6;
  host::PacedFlow flow(tb.host(0), spec, 1);
  flow.start(sim::Time::zero());
  tb.sim().run(sim::Time::ms(50));

  const auto& map = core::MemoryMap::standard();

  // One probe per statistic (a single TPP could batch several, but one at
  // a time keeps attribution trivial).
  std::map<std::string, std::uint32_t> observed;
  std::size_t faults = 0;
  for (const auto& stat : map.all()) {
    core::ProgramBuilder b;
    b.push(stat.address);
    b.reserve(4);
    // Handlers accumulate on the host and outlive this loop iteration, so
    // per-probe state must be heap-shared, not stack-captured.
    auto done = std::make_shared<bool>(false);
    tb.host(0).onTppResult([&observed, &faults, done,
                            name = stat.name](const core::ExecutedTpp& t) {
      if (*done) return;
      const auto split = host::splitStackRecords(t, 1);
      if (split.complete(2) && t.header.faultCode == core::Fault::None) {
        observed[name] = split.records[0][0];  // value at the first hop
      } else {
        ++faults;
      }
      *done = true;
    });
    tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), *b.build());
    tb.sim().run(tb.sim().now() + sim::Time::ms(1));
  }
  flow.stop();
  tb.sim().run();

  std::printf("== Table 2: statistics namespaces, read via TPPs ==\n");
  std::printf("%-16s %-32s %-8s %-6s %-12s\n", "namespace", "statistic",
              "address", "mode", "TPP-read");
  for (const auto& stat : map.all()) {
    const auto it = observed.find(stat.name);
    char value[24] = "-";
    if (it != observed.end()) {
      std::snprintf(value, sizeof value, "%u", it->second);
    }
    std::printf("%-16s %-32s 0x%04x   %-6s %-12s\n",
                namespaceName(core::MemoryMap::namespaceOf(stat.address)),
                stat.name.c_str(), stat.address,
                stat.access == core::Access::ReadOnly ? "RO" : "RW", value);
  }

  // Ground-truth spot checks.
  const auto& sw0 = tb.sw(0);
  struct Check {
    const char* name;
    std::uint64_t expected;
  };
  const Check checks[] = {
      {"Switch:SwitchID", sw0.config().switchId},
      {"Switch:PortCount", sw0.config().ports},
      {"Link:CapacityMbps", sw0.portCapacityBps(1) / 1'000'000},
      {"PacketMetadata:InputPort", 0},
      {"PacketMetadata:OutputPort", 1},
      {"PacketMetadata:MatchedTable", 2},
  };
  std::size_t mismatches = 0;
  std::printf("\nground-truth spot checks at sw0:\n");
  for (const auto& c : checks) {
    const auto got = observed.count(c.name) ? observed.at(c.name) : ~0u;
    const bool ok = got == c.expected;
    if (!ok) ++mismatches;
    std::printf("  %-32s expected %-10llu observed %-10u %s\n", c.name,
                static_cast<unsigned long long>(c.expected), got,
                ok ? "ok" : "MISMATCH");
  }
  std::printf("\nstatistics readable: %zu/%zu, spot-check mismatches: %zu\n",
              observed.size(), map.all().size(), mismatches);
  return mismatches == 0;
}

// ------------------------------------------------------------------- Fig 3
// The switch ASIC dataplane pipeline
//   RX → header parser → L2/L3/TCAM lookup → TCPU → queues → scheduler → TX
// A 5-instruction TPP crosses a real switch model, where the TCPU runs
// after lookup and before the packet is queued; its modelled hardware cost
// shows that the TCPU adds no serialization bottleneck — the Fig 3 claim
// that TPP execution happens "just before the packet is stored in memory",
// pipelined with the rest. The software cost of the stages is bench_core's
// l3_match_1024 and chain_udp_pps metrics.
bool fig3() {
  std::printf("== Figure 3: dataplane pipeline stages ==\n");
  std::printf("stage order: RX PHY -> parser -> L2/L3/TCAM -> TCPU -> "
              "memory/queues -> scheduler -> TX PHY\n");
  std::printf("modelled hardware budgets (1 GHz ASIC, 64 B @ 10 GbE/port "
              "=> %.1f ns/packet/port):\n", kNsPer64BFrame);
  tcpu::CycleModel model;
  std::printf("  TCPU, 5-instruction TPP: %llu cycles = %.0f ns, "
              "pipelined behind lookup (fits cut-through budget: %s)\n\n",
              static_cast<unsigned long long>(model.cycles(5)),
              model.nanos(5), model.fitsCutThrough(5) ? "yes" : "no");

  host::Testbed tb;
  buildChain(tb, 1, host::LinkParams{1'000'000'000, sim::Time::us(5)});
  core::ProgramBuilder b;
  b.push(core::addr::SwitchId);
  b.push(core::addr::QueueBytes);
  b.push(core::addr::InputPort);
  b.push(core::addr::MatchedEntryId);
  b.push(core::addr::TxUtilization);
  b.reserve(40);
  std::optional<host::RecordSplit> split;
  tb.host(0).onTppResult([&](const core::ExecutedTpp& t) {
    split = host::splitStackRecords(t, 5);
  });
  tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), *b.build());
  tb.sim().run();

  const bool executed = split && split->complete(1) &&
                        split->records[0][0] == tb.sw(0).config().switchId;
  if (executed) {
    const auto& r = split->records[0];
    std::printf("one probe through the switch: switch %u, queue %u B, "
                "input port %u, matched entry 0x%x, tx utilization %u\n",
                r[0], r[1], r[2], r[3], r[4]);
  }
  // Once the pipeline is full, each packet costs one cycle per instruction.
  const double steadyStateNs = 5 / model.clockGhz;
  const bool shapeHolds = executed && model.fitsCutThrough(5) &&
                          steadyStateNs <= kNsPer64BFrame;
  std::printf("shape (TCPU runs in the pipeline; a 5-instruction TPP fits "
              "cut-through and 5 cycles/packet sustains line rate): %s\n",
              shapeHolds ? "yes" : "NO");
  return shapeHolds;
}

// ------------------------------------------------------------------- Fig 4
// The TPP wire format and §3.3's overheads:
//   "Restricting TPPs to (say) five instructions per-packet requires only
//    20 bytes of instruction overhead and up to 60 bytes of output space"
//   "if each instruction accesses 8-byte values in the packet, we require
//    only 40 bytes of packet memory per hop"
// We reproduce the byte accounting exactly, sweep it over instruction
// counts and path lengths, and round-trip the encoding to prove the format
// is self-describing.
bool fig4() {
  std::printf("== Figure 4: TPP wire format ==\n");
  std::printf("layout: Ethernet(14) | TPP header(%zu) | instructions(4/ea) "
              "| packet memory(4/word) | payload\n",
              core::kTppHeaderSize);
  std::printf("header fields: lengths, addressing mode, hop/SP, per-hop "
              "size, fault, inner ethertype, task id\n\n");

  // §3.3 headline numbers.
  std::printf("-- §3.3 overhead accounting --\n");
  std::printf("%-14s %-20s %-22s %-14s\n", "instructions",
              "instr bytes", "pmem bytes (5 hops)", "total TPP");
  for (const std::size_t instrs : {1, 2, 3, 5, 8, 16}) {
    core::ProgramBuilder b;
    for (std::size_t i = 0; i < instrs; ++i) b.push(core::addr::QueueBytes);
    // One 4-byte word per instruction per hop, 5 hops (datacenter max 5-7).
    b.reserve(static_cast<std::uint8_t>(instrs * 5));
    const auto p = *b.build();
    std::printf("%-14zu %-20zu %-22zu %-14zu\n", instrs,
                instrs * core::kInstructionSize,
                static_cast<std::size_t>(p.pmemWords) * core::kWordSize,
                p.wireBytes());
  }
  {
    core::ProgramBuilder b;
    for (int i = 0; i < 5; ++i) b.push(core::addr::QueueBytes);
    b.reserve(25);
    const auto p = *b.build();
    const bool instr20 = p.instructions.size() * core::kInstructionSize == 20;
    std::printf("\npaper check: 5 instructions = 20 B instruction overhead: "
                "%s\n", instr20 ? "yes" : "NO");
    // 8-byte values = 2 words/instruction/hop.
    const std::size_t bytesPerHop8B = 5 * 8;
    std::printf("paper check: 5 instr x 8 B values = %zu B packet memory "
                "per hop: %s\n", bytesPerHop8B,
                bytesPerHop8B == 40 ? "yes" : "NO");
  }

  // Per-hop growth for the three bundled tasks.
  std::printf("\n-- per-task TPP sizes --\n");
  std::printf("%-22s %-14s %-14s %-16s\n", "task", "instructions",
              "bytes @3 hops", "bytes @7 hops");
  struct Row {
    const char* name;
    std::size_t instrs;
    std::size_t wordsPerHop;
  };
  for (const Row& row : {Row{"microburst (S2.1)", 2, 2},
                         Row{"rcp* collect (S2.2)", 5, 5},
                         Row{"ndb trace (S2.3)", 3, 3}}) {
    auto size = [&](std::size_t hops) {
      return core::kTppHeaderSize + row.instrs * core::kInstructionSize +
             row.wordsPerHop * hops * core::kWordSize;
    };
    std::printf("%-22s %-14zu %-14zu %-16zu\n", row.name, row.instrs,
                size(3), size(7));
  }

  // Round-trip integrity: encode → parse → re-encode must be lossless.
  const char* source = R"(
      .mode hop
      .perhop 3
      .task 7
      .reserve 21
      LOAD [Switch:SwitchID], [Packet:hop[0]]
      LOAD [Queue:QueueSize], [Packet:hop[1]]
      LOAD [Link:RX-Utilization], [Packet:hop[2]]
  )";
  const auto program = std::get<core::Program>(core::assemble(source));
  auto frame = core::buildTppFrame(net::MacAddress::fromIndex(2),
                                   net::MacAddress::fromIndex(1), program,
                                   net::kEtherTypeIpv4);
  const auto executed = core::parseExecuted(*frame);
  const bool roundTrip = executed &&
                         executed->instructions == program.instructions &&
                         executed->header.perHopWords == 3 &&
                         executed->header.taskId == 7;
  std::printf("\nencode/decode round trip lossless: %s\n",
              roundTrip ? "yes" : "NO");
  return roundTrip;
}

// ------------------------------------------------------------------- Fig 5
// The TCPU's RISC pipeline (ID → EX → MR → MW after parser fetch):
// throughput 1 instruction/cycle, latency 4 cycles. We sweep program length
// through the cycle model and check the §3.3 feasibility claim: a handful
// of instructions hides inside the 300 ns cut-through budget of a 1 GHz
// low-latency ASIC — and report at what program size that stops being
// true.
bool fig5() {
  std::printf("== Figure 5: TCPU pipeline model ==\n");
  std::printf("stages: [fetch by header parser] ID EX MR MW — 1 instr/cycle"
              ", 4-cycle latency\n\n");

  tcpu::CycleModel model;  // 1 GHz, 4-stage
  std::printf("%-14s %-10s %-12s %-22s\n", "instructions", "cycles",
              "ns @1GHz", "fits 300ns cut-through");
  for (const std::size_t n : {0, 1, 2, 3, 5, 8, 16, 32, 64, 128, 256, 297,
                              298, 512}) {
    std::printf("%-14zu %-10llu %-12.1f %s\n", n,
                static_cast<unsigned long long>(model.cycles(n)),
                model.nanos(n), model.fitsCutThrough(n) ? "yes" : "no");
  }
  std::printf("\nlargest TPP that hides in the cut-through budget: %llu "
              "instructions\n",
              static_cast<unsigned long long>(297));

  // Pipelining property: N instructions cost 4 + N - 1, NOT 4 * N.
  const bool pipelined =
      model.cycles(5) == 8 && model.cycles(1) == 4 && model.cycles(0) == 0;
  std::printf("pipeline formula 4+(N-1) holds: %s\n",
              pipelined ? "yes" : "NO");

  // Clock sensitivity: the same 5-instruction TPP across ASIC generations.
  std::printf("\n%-12s %-14s %-20s\n", "clock", "5-instr ns",
              "fits cut-through");
  for (const double ghz : {0.5, 1.0, 1.5, 2.0}) {
    tcpu::CycleModel m{4, ghz};
    std::printf("%.1f GHz      %-14.1f %s\n", ghz, m.nanos(5),
                m.fitsCutThrough(5) ? "yes" : "no");
  }
  return pipelined;
}

// ------------------------------------------------------------------- §2.1
// Micro-burst detection. "Queue occupancy fluctuations due to
// small-timescale congestion are hard to detect… Today's monitoring
// mechanisms operate only on timescales that are 10s of seconds at best."
// Workload: 16:1 incast bursts every 10 ms against a shallow buffer. We
// sweep the observer's sampling interval from per-100 µs TPP probes to
// second-scale control-plane polling and report burst-detection recall —
// the figure-style series this section implies.
bool s21() {
  constexpr std::size_t kSenders = 16;
  constexpr double kThresholdBytes = 150'000.0;

  host::Testbed tb;
  asic::SwitchConfig cfg;
  cfg.bufferPerQueueBytes = 1 << 20;
  buildStar(tb, kSenders, host::LinkParams{1'000'000'000, sim::Time::us(2)},
            cfg);
  auto& receiver = tb.host(kSenders);

  workload::IncastBurst::Config icfg;
  icfg.dstMac = receiver.mac();
  icfg.dstIp = receiver.ip();
  icfg.burstBytes = 40'000;  // 16 x 40 KB = 640 KB offered per round
  icfg.period = sim::Time::ms(10);
  std::vector<host::Host*> senders;
  for (std::size_t i = 0; i < kSenders; ++i) senders.push_back(&tb.host(i));
  workload::IncastBurst incast(senders, icfg);
  incast.start(sim::Time::ms(1));

  // TPP monitor at 100 µs.
  apps::MicroburstMonitor::Config mcfg;
  mcfg.dstMac = receiver.mac();
  mcfg.dstIp = receiver.ip();
  mcfg.interval = sim::Time::us(100);
  apps::MicroburstMonitor monitor(tb.host(0), mcfg);
  monitor.start(sim::Time::zero());

  // Control-plane pollers at increasing intervals; plus a 10 µs ground
  // truth.
  const sim::Time pollIntervals[] = {sim::Time::ms(1), sim::Time::ms(10),
                                     sim::Time::ms(100), sim::Time::sec(1)};
  std::vector<std::unique_ptr<apps::ControlPlanePoller>> pollers;
  for (const auto interval : pollIntervals) {
    pollers.push_back(std::make_unique<apps::ControlPlanePoller>(
        tb.sw(0), kSenders, 0, interval));
    pollers.back()->start(sim::Time::zero());
  }
  apps::ControlPlanePoller truth(tb.sw(0), kSenders, 0, sim::Time::us(10));
  truth.start(sim::Time::zero());

  tb.sim().run(sim::Time::sec(5));
  monitor.stop();
  incast.stop();
  for (auto& p : pollers) p->stop();
  truth.stop();
  tb.sim().run();

  const auto reference = apps::detectBursts(truth.series(), kThresholdBytes);
  std::printf("== §2.1: micro-burst detection recall ==\n");
  std::printf("workload: %zu:1 incast, %llu B/sender every %.0f ms; "
              "threshold %.0f KB; %zu true bursts in 5 s\n\n",
              kSenders, static_cast<unsigned long long>(icfg.burstBytes),
              icfg.period.toMillis(), kThresholdBytes / 1e3,
              reference.size());
  std::printf("%-28s %-12s %-10s\n", "observer", "bursts-seen", "recall");

  const auto viaTpp = apps::detectBursts(monitor.hopSeries(0), kThresholdBytes);
  const double tppRecall = apps::detectionRecall(reference, viaTpp);
  std::printf("%-28s %-12zu %-10.2f\n", "TPP probes @ 100us", viaTpp.size(),
              tppRecall);
  double worstCoarse = 1.0;
  for (std::size_t i = 0; i < pollers.size(); ++i) {
    const auto bursts =
        apps::detectBursts(pollers[i]->series(), kThresholdBytes);
    const double recall = apps::detectionRecall(reference, bursts);
    if (pollIntervals[i] >= sim::Time::ms(100)) {
      worstCoarse = std::min(worstCoarse, recall);
    }
    char label[40];
    std::snprintf(label, sizeof label, "polling @ %.0f ms",
                  pollIntervals[i].toMillis());
    std::printf("%-28s %-12zu %-10.2f\n", label, bursts.size(), recall);
  }

  const bool shapeHolds = tppRecall >= 0.9 && worstCoarse <= 0.3;
  std::printf("\nshape (TPP ~1.0, coarse polling near 0): %s\n",
              shapeHolds ? "yes" : "NO");
  return shapeHolds;
}

// ------------------------------------------------------------------- §2.3
// The forwarding-plane debugger. Two results: (a) detection — TPP traces
// catch every injected control/dataplane divergence across a batch of
// scenarios; (b) overhead — in-band TPP tracing vs the original ndb's
// truncated packet copies, per path length (the paper's motivation for
// "without requiring the network to create additional packet copies").

// A 4-switch chain whose control plane has recorded its intent: the exact
// (switch, entry) pairs packets to host 1 must traverse.
struct NdbChain {
  host::Testbed tb;
  apps::IntentStore intent;
  std::optional<apps::TraceCollector> collector;

  NdbChain() {
    buildChain(tb, 4, host::LinkParams{1'000'000'000, sim::Time::us(5)});
    std::vector<apps::IntentStore::ExpectedHop> path;
    for (std::size_t i = 0; i < tb.switchCount(); ++i) {
      path.push_back({tb.sw(i).config().switchId,
                      tb.sw(i).l3().match(tb.host(1).ip())->entryId});
    }
    intent.setExpectedPath(path);
    collector.emplace(tb.host(1));
  }

  // Traces one packet to host 1; the divergences its trace shows, or
  // nullopt when no trace arrived.
  std::optional<std::vector<apps::IntentStore::Divergence>> traceOnce() {
    tb.host(0).sendUdpWithTpp(tb.host(1).mac(), tb.host(1).ip(), 5000, 5000,
                              {}, apps::makeTraceProgram());
    tb.sim().run();
    if (collector->count() != 1) return std::nullopt;
    return intent.check(collector->traces()[0]);
  }
};

struct NdbFault {
  const char* name;
  // Mutates the network behind the control plane's back; returns the
  // divergence kind the debugger must report.
  apps::IntentStore::DivergenceKind (*inject)(host::Testbed&);
};

apps::IntentStore::DivergenceKind injectStale(host::Testbed& tb) {
  tb.sw(1).l3().add(tb.host(1).ip(), 32, 1);  // silent refresh, new version
  return apps::IntentStore::DivergenceKind::StaleVersion;
}

apps::IntentStore::DivergenceKind injectHijack(host::Testbed& tb) {
  asic::TcamKey k;
  k.ipDst = {tb.host(1).ip(), 32};
  tb.sw(2).tcam().add(k, asic::TcamAction{1, std::nullopt, false}, 1000);
  return apps::IntentStore::DivergenceKind::WrongEntry;
}

apps::IntentStore::DivergenceKind injectDetour(host::Testbed& tb) {
  // A shadow switch is spliced between sw0 and sw2 and sw0's route flips
  // to it: packets now visit a switch the control plane never intended.
  auto& alt = tb.addSwitch({}, "shadow");
  tb.link(alt, 0, tb.sw(0), 2, 1'000'000'000, sim::Time::us(5));
  tb.link(alt, 1, tb.sw(2), 2, 1'000'000'000, sim::Time::us(5));
  alt.l3().add(tb.host(1).ip(), 32, 1);
  tb.sw(0).l3().add(tb.host(1).ip(), 32, 2);
  return apps::IntentStore::DivergenceKind::WrongSwitch;
}

bool s23() {
  std::printf("== §2.3: forwarding-plane debugger ==\n\n");

  // --------------------------------------------------- (a) detection
  const NdbFault faults[] = {
      {"silent rule refresh (stale version)", injectStale},
      {"rogue TCAM hijack (wrong entry)", injectHijack},
      {"detour through a shadow switch (wrong switch)", injectDetour},
  };
  std::printf("%-42s %-10s %-18s\n", "injected fault", "detected",
              "reported as");
  std::size_t detected = 0;
  for (const auto& f : faults) {
    NdbChain chain;
    const auto expectedKind = f.inject(chain.tb);
    bool hit = false;
    std::string kinds;
    for (const auto& d : chain.traceOnce().value_or(
             std::vector<apps::IntentStore::Divergence>{})) {
      if (!kinds.empty()) kinds += ",";
      kinds += apps::divergenceKindName(d.kind);
      hit = hit || d.kind == expectedKind;
    }
    detected += hit ? 1 : 0;
    std::printf("%-42s %-10s %-18s\n", f.name, hit ? "yes" : "NO",
                kinds.c_str());
  }

  // Control: a clean network reports nothing.
  {
    NdbChain chain;
    const auto divergences = chain.traceOnce();
    const bool clean = divergences && divergences->empty();
    std::printf("%-42s %-10s\n", "no fault (control)",
                clean ? "clean" : "FALSE-POSITIVE");
    detected += clean ? 1 : 0;
  }

  // --------------------------------------------------- (b) overhead
  std::printf("\nper-packet tracing overhead, TPP in-band vs truncated "
              "copies (64 B copy + 42 B encapsulation):\n");
  std::printf("%-8s %-14s %-16s %-8s\n", "hops", "TPP bytes",
              "ndb-copy bytes", "ratio");
  apps::NdbCopyOverheadModel copies;
  for (std::size_t hops = 1; hops <= 7; ++hops) {
    const auto tppBytes = apps::tppTraceBytesPerPacket(hops);
    const auto copyBytes = copies.bytesPerPacket(hops);
    std::printf("%-8zu %-14zu %-16zu %.1fx\n", hops, tppBytes, copyBytes,
                static_cast<double>(copyBytes) /
                    static_cast<double>(tppBytes));
  }

  const bool allDetected = detected == 4;
  std::printf("\nall scenarios detected, no false positives: %s\n",
              allDetected ? "yes" : "NO");
  return allDetected;
}

// ------------------------------------------------------------------- §3.3
// Line-rate feasibility: "A 64-port 10GbE switch has to process about a
// billion 64-byte-packets/second to operate at line-rate" (§1 fn 2), and
// TPP execution must hide inside a ~300 ns cut-through latency. The
// hardware TCPU budget: per-port packet arrival rate at 64 B vs the
// pipeline's 1-instruction/cycle throughput. The software interpreter's
// speed is bench_core's tcpu_* metrics.
bool s33() {
  std::printf("== §3.3: line-rate feasibility ==\n\n");
  std::printf("-- modelled hardware budget --\n");
  std::printf("64 B packets @ 10 GbE: one packet per %.1f ns per port\n",
              kNsPer64BFrame);
  const double gpktPerSec = 64 / kNsPer64BFrame;
  std::printf("64-port switch: %.2f Gpkt/s aggregate (the paper's ~1 "
              "billion pkt/s)\n", gpktPerSec);
  tcpu::CycleModel model;
  bool sustains = gpktPerSec > 0.5 && gpktPerSec < 2.0;
  for (const std::size_t n : {1, 5, 16}) {
    const double ns = model.nanos(n);
    // Steady state costs N cycles per packet at 1 instruction per cycle.
    const bool fits = static_cast<double>(n) <= kNsPer64BFrame &&
                      model.fitsCutThrough(n);
    sustains = sustains && fits;
    std::printf("TCPU %2zu-instr TPP: %.0f ns @1 GHz -> %s per-port "
                "line rate (needs <= %.1f ns steady-state)\n",
                n, ns, fits ? "sustains" : "exceeds", kNsPer64BFrame);
  }
  std::printf("(steady-state cost is N cycles/packet at 1 instr/cycle; the "
              "4-cycle latency pipelines away, §3.3)\n");
  std::printf("\nshape (~1 Gpkt/s aggregate; 1-, 5- and 16-instruction TPPs "
              "sustain line rate inside the cut-through budget): %s\n",
              sustains ? "yes" : "NO");
  return sustains;
}

// -------------------------------------------------------------------- §4
// Related work: "There have been numerous efforts to expose switch
// statistics through the dataplane… One example is ECN… Another example is
// IP Record Route… Instead of anticipating future requirements and
// designing specific solutions, we adopt a more generic approach."
// Same network, same congestion event (one overloaded hop out of four),
// three in-band visibility mechanisms:
//   ECN           1 bit/packet: congestion happened *somewhere*
//   Record Route  path only: where packets went, nothing about queues
//   TPP           programmable: which hop, how deep, in bytes — and the
//                 same packet could carry any other query tomorrow
// We report what each mechanism actually observed.
bool s4() {
  host::Testbed tb;
  auto cross = buildCongestedChain(tb, 4, sim::Time::us(10), 2, 1.3,
                                   /*ecnThresholdBytes=*/30'000);

  // The monitored flow: h0 -> h1 at modest rate, carrying (a) ECN-capable
  // IP, (b) a trace TPP (stands in for IP Record Route), measured at the
  // receiver; (c) plus a parallel queue-probe TPP stream.
  int rxPackets = 0, ceMarked = 0;
  tb.host(1).bindUdp(20000, [&](const host::UdpDatagram& d) {
    ++rxPackets;
    if (d.ecn == net::kEcnCe) ++ceMarked;
  });
  apps::TraceCollector traces(tb.host(1));
  host::FlowSpec spec;
  spec.dstMac = tb.host(1).mac();
  spec.dstIp = tb.host(1).ip();
  spec.rateBps = 5e6;
  host::PacedFlow flow(tb.host(0), spec, 1);
  const auto traceProgram = apps::makeTraceProgram(6);
  flow.setPacketHook([&](net::Packet& p) {
    core::insertTppShim(p, traceProgram);
  });

  apps::MicroburstMonitor::Config mcfg;
  mcfg.dstMac = tb.host(1).mac();
  mcfg.dstIp = tb.host(1).ip();
  mcfg.interval = sim::Time::us(500);
  apps::MicroburstMonitor monitor(tb.host(0), mcfg);

  flow.start(sim::Time::zero());
  monitor.start(sim::Time::zero());
  tb.sim().run(sim::Time::ms(60));
  cross->stop();
  flow.stop();
  monitor.stop();
  tb.sim().run(tb.sim().now() + sim::Time::sec(2));

  std::printf("== §4: in-band visibility mechanisms, one congested hop ==\n");
  std::printf("4-hop path, hop 2 overloaded at 130%%; ECN threshold 30 KB\n\n");

  // ECN view.
  const double markRate =
      rxPackets ? 100.0 * ceMarked / rxPackets : 0.0;
  std::printf("ECN:          %d/%d packets CE-marked (%.0f%%) -> "
              "\"congestion somewhere on the path\"\n",
              ceMarked, rxPackets, markRate);

  // Record-Route view (path identity only).
  std::size_t hops = 0;
  if (!traces.traces().empty()) hops = traces.traces().back().hops.size();
  std::printf("RecordRoute:  path = ");
  if (!traces.traces().empty()) {
    for (const auto& hop : traces.traces().back().hops) {
      std::printf("sw%u ", hop.switchId);
    }
  }
  std::printf("(%zu hops) -> \"where packets went\", no congestion info\n",
              hops);

  // TPP view.
  std::printf("TPP:          per-hop mean queue bytes = ");
  double peak = 0;
  std::size_t peakHop = 0;
  for (std::size_t h = 0; h < monitor.hopsObserved(); ++h) {
    const auto& s = monitor.hopSeries(h);
    const double mean = s.meanOver(sim::Time::zero(), sim::Time::sec(1));
    std::printf("%.0f ", mean);
    if (mean > peak) {
      peak = mean;
      peakHop = h;
    }
  }
  std::printf("-> \"hop %zu is congested, ~%.0f KB deep\"\n", peakHop,
              peak / 1e3);

  std::printf("\nper-packet overhead: ECN 0 B (reuses IP header), "
              "RecordRoute-TPP %zu B, queue-probe TPP %zu B\n",
              apps::tppTraceBytesPerPacket(4),
              apps::makeQueueProbeProgram(6).wireBytes());

  const bool shapeHolds = markRate > 20.0 && hops == 4 && peakHop == 2 &&
                          peak > 30'000;
  std::printf("\nshape (ECN says 'somewhere', TPP says 'hop 2, this deep')"
              ": %s\n", shapeHolds ? "yes" : "NO");
  return shapeHolds;
}

// ---------------------------------------------------------------------- A1
// CSTORE's linearizable consistency (§2.2: "we support a conditional store
// instruction to provide a stronger (linearizable) notion of consistency
// for memory updates"). N end-hosts concurrently increment one shared SRAM
// counter on a switch they all traverse, two ways:
//   naive  — LOAD the counter, increment locally, STORE it back (two TPPs:
//            a read probe, then a blind write) — the classic lost-update
//            race;
//   cstore — a single CSTORE TPP per attempt: compare-and-swap with retry.
// We report lost updates for each as the writer count grows.
constexpr int kAttemptsPerWriter = 40;
const std::uint16_t kCounter = core::kSramBase;

// Naive read-modify-write: issue a read probe; when it returns, issue a
// blind STORE of value+1. Concurrent writers interleave and lose updates.
struct NaiveWriter {
  host::Host& src;
  net::MacAddress dstMac;
  net::Ipv4Address dstIp;
  int attempts = 0;
  int writesIssued = 0;

  void fire() {
    core::ProgramBuilder b;
    b.cexec(core::addr::SwitchId, 0xffffffff, 1);
    b.push(kCounter);
    b.reserve(2);
    src.sendProbe(dstMac, dstIp, *b.build());
    ++attempts;
  }
  void onResult(const core::ExecutedTpp& t) {
    if (t.instructions.size() == 2 &&
        t.instructions[1].op == core::Opcode::Push) {
      // Read returned: blind-write value+1.
      const std::uint32_t seen = t.pmem[2];  // after the 2 CEXEC imms
      core::ProgramBuilder b;
      b.cexec(core::addr::SwitchId, 0xffffffff, 1);
      b.storeImm(kCounter, seen + 1);
      src.sendProbe(dstMac, dstIp, *b.build());
      ++writesIssued;
    } else if (t.instructions.size() == 2 &&
               t.instructions[1].op == core::Opcode::Store) {
      if (attempts < kAttemptsPerWriter) fire();
    }
  }
};

// CSTORE loop: retry from the observed value on a failed swap.
struct CstoreWriter {
  host::Host& src;
  net::MacAddress dstMac;
  net::Ipv4Address dstIp;
  std::uint32_t lastSeen = 0;
  int attempts = 0;
  int successes = 0;

  void fire() {
    core::ProgramBuilder b;
    b.cexec(core::addr::SwitchId, 0xffffffff, 1);
    b.cstore(kCounter, lastSeen, lastSeen + 1);
    src.sendProbe(dstMac, dstIp, *b.build());
    ++attempts;
  }
  void onResult(const core::ExecutedTpp& t) {
    if (t.instructions.size() != 2 ||
        t.instructions[1].op != core::Opcode::Cstore) {
      return;
    }
    const std::uint32_t observed = t.pmem[t.instructions[1].pmemOff];
    if (observed == lastSeen) {
      ++successes;
      ++lastSeen;
    } else {
      lastSeen = observed;
    }
    if (attempts < kAttemptsPerWriter) fire();
  }
};

// Runs `writers` writers to completion across a dumbbell, so every probe
// crosses the shared left switch (switch id 1) where the counter lives.
// Returns the final counter; `ws` keeps the writers' tallies.
template <typename Writer>
std::uint32_t runWriters(std::size_t writers,
                         std::vector<std::unique_ptr<Writer>>& ws) {
  host::Testbed tb;
  buildDumbbell(tb, writers,
                host::LinkParams{1'000'000'000, sim::Time::us(10)},
                host::LinkParams{1'000'000'000, sim::Time::us(10)});
  for (std::size_t i = 0; i < writers; ++i) {
    ws.push_back(std::make_unique<Writer>(Writer{
        tb.host(i), tb.host(writers + i).mac(), tb.host(writers + i).ip()}));
    auto* w = ws.back().get();
    tb.host(i).onTppResult(
        [w](const core::ExecutedTpp& t) { w->onResult(t); });
  }
  for (auto& w : ws) w->fire();
  tb.sim().run();
  return *tb.sw(0).scratchRead(kCounter);
}

bool a1() {
  std::printf("== Ablation A1: concurrent writers, STORE vs CSTORE ==\n");
  std::printf("each writer performs %d increments of one shared SRAM "
              "word\n\n", kAttemptsPerWriter);
  std::printf("%-10s %-18s %-18s %-16s\n", "writers", "naive lost-updates",
              "cstore lost-updates", "cstore retries");
  bool ok = true;
  for (const std::size_t writers : {1, 2, 4, 8}) {
    std::vector<std::unique_ptr<NaiveWriter>> naive;
    const auto naiveCounter = runWriters(writers, naive);
    int issued = 0;
    for (auto& w : naive) issued += w->writesIssued;
    const int naiveLost = issued - static_cast<int>(naiveCounter);

    std::vector<std::unique_ptr<CstoreWriter>> cstore;
    const auto cstoreCounter = runWriters(writers, cstore);
    int successes = 0, attempts = 0;
    for (auto& w : cstore) {
      successes += w->successes;
      attempts += w->attempts;
    }
    const int cstoreLost = successes - static_cast<int>(cstoreCounter);

    std::printf("%-10zu %-18d %-18d %-16d\n", writers, naiveLost, cstoreLost,
                attempts - successes);
    ok = ok && cstoreLost == 0;
    if (writers > 1) ok = ok && naiveLost > 0;
  }
  std::printf("\nshape (CSTORE never loses updates; naive RMW does under "
              "contention): %s\n", ok ? "yes" : "NO");
  return ok;
}

// ---------------------------------------------------------------------- A3
// Multi-packet TPPs (§3.2: "End-hosts can use multiple packets if a single
// packet is insufficient for a network task"). Task: collect 10 statistics
// per hop over a 6-switch path. Under a deliberately small per-TPP
// packet-memory cap this cannot fit in one packet, so the end-host shards
// the statistics across several probes (each carrying the switch id as a
// join key) and reassembles the full per-hop table. We verify the
// reassembled view is complete and consistent, and account the byte cost
// of sharding.
constexpr std::size_t kA3Hops = 6;

// The statistics the task wants, per hop. SwitchId is the join key and is
// re-collected in every shard.
const std::uint16_t kWantedStats[] = {
    core::addr::QueueBytes,       core::addr::QueuePackets,
    core::addr::PortQueueBytes,   core::addr::TxBytes,
    core::addr::TxPackets,        core::addr::RxUtilization,
    core::addr::TxUtilization,    core::addr::LinkCapacityMbps,
    core::addr::InputPort,
};
constexpr std::size_t kStatsPerHop = std::size(kWantedStats) + 1;  // + id

// Shards `kWantedStats` so each probe's packet memory stays under
// `pmemCapWords`, returns one collect program per shard.
std::vector<core::Program> shardPrograms(std::size_t pmemCapWords) {
  std::vector<core::Program> out;
  const std::size_t wordsPerStatAllHops = kA3Hops;  // one word per hop
  // Each shard spends: (1 join key + S stats) * kA3Hops words.
  const std::size_t maxStatsPerShard =
      pmemCapWords / wordsPerStatAllHops - 1;
  std::size_t i = 0;
  while (i < std::size(kWantedStats)) {
    core::ProgramBuilder b;
    b.push(core::addr::SwitchId);
    std::size_t inShard = 0;
    while (i < std::size(kWantedStats) && inShard < maxStatsPerShard) {
      b.push(kWantedStats[i]);
      ++i;
      ++inShard;
    }
    b.reserve(static_cast<std::uint8_t>((inShard + 1) * kA3Hops));
    out.push_back(*b.build());
  }
  return out;
}

bool a3() {
  std::printf("== Ablation A3: multi-packet TPPs ==\n");
  std::printf("task: %zu statistics per hop over %zu hops = %zu words — "
              "sharded under different per-TPP memory caps\n\n",
              kStatsPerHop, kA3Hops, kStatsPerHop * kA3Hops);

  std::printf("%-16s %-8s %-16s %-14s %-12s %-10s\n", "pmem cap (words)",
              "probes", "bytes per probe", "total bytes", "complete",
              "consistent");

  bool allOk = true;
  for (const std::size_t cap : {255, 36, 24, 18, 12}) {
    host::Testbed tb;
    buildChain(tb, kA3Hops,
               host::LinkParams{1'000'000'000, sim::Time::us(5)});
    const auto programs = shardPrograms(cap);

    // joined[hop][statAddr] = value; switch ids checked across shards.
    std::map<std::size_t, std::map<std::uint16_t, std::uint32_t>> joined;
    std::map<std::size_t, std::uint32_t> joinKey;
    bool everyShardWhole = true;
    bool consistent = true;

    // One shared handler: attribute each echo to its shard by matching the
    // returned program's instructions.
    tb.host(0).onTppResult([&](const core::ExecutedTpp& t) {
      const std::size_t perHop = t.instructions.size();
      const auto split = host::splitStackRecords(t, perHop);
      everyShardWhole = everyShardWhole && split.complete(kA3Hops);
      const auto& records = split.records;
      for (std::size_t h = 0; h < records.size(); ++h) {
        const std::uint32_t sw = records[h][0];
        if (const auto it = joinKey.find(h);
            it != joinKey.end() && it->second != sw) {
          consistent = false;  // shards disagree about the path
        }
        joinKey[h] = sw;
        for (std::size_t v = 1; v < perHop; ++v) {
          joined[h][t.instructions[v].addr] = records[h][v];
        }
      }
    });

    std::size_t totalBytes = 0;
    for (const auto& program : programs) {
      tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
      totalBytes += program.wireBytes();
      tb.sim().run(tb.sim().now() + sim::Time::ms(1));
    }
    tb.sim().run();

    bool complete = everyShardWhole && joined.size() == kA3Hops;
    for (std::size_t h = 0; h < kA3Hops && complete; ++h) {
      complete = joined[h].size() == std::size(kWantedStats);
    }
    std::printf("%-16zu %-8zu %-16zu %-14zu %-12s %-10s\n", cap,
                programs.size(),
                programs.empty() ? 0 : programs[0].wireBytes(), totalBytes,
                complete ? "yes" : "NO", consistent ? "yes" : "NO");
    allOk = allOk && complete && consistent;
  }

  std::printf("\nsharded collection stays complete and path-consistent "
              "under every cap: %s\n", allOk ? "yes" : "NO");
  return allOk;
}

// ---------------------------------------------------------------------- A4
// The §2.1 payoff — "a detailed breakdown of queueing latencies on all
// network hops" — and the cost of visibility.
// Part 1: a 4-hop path with congestion injected at hop 2; the hop-mode
// profiler TPP attributes the latency to the right hop, per hop, from a
// single probe stream.
// Part 2: probe-rate sweep — time resolution and bandwidth overhead of the
// visibility as the probing interval varies (the knob an operator turns).
bool a4() {
  std::printf("== Ablation A4: per-hop latency breakdown ==\n");
  {
    host::Testbed tb;
    auto cross = buildCongestedChain(tb, 4, sim::Time::us(10), 2, 1.4);

    apps::LatencyProfiler::Config pcfg;
    pcfg.dstMac = tb.host(1).mac();
    pcfg.dstIp = tb.host(1).ip();
    pcfg.interval = sim::Time::ms(1);
    apps::LatencyProfiler profiler(tb.host(0), pcfg);
    profiler.start(sim::Time::zero());
    tb.sim().run(sim::Time::ms(50));
    cross->stop();
    profiler.stop();
    tb.sim().run(tb.sim().now() + sim::Time::sec(2));

    std::printf("4-hop path, hop 2 congested at 140%% load; %llu probes\n\n",
                static_cast<unsigned long long>(profiler.resultsReceived()));
    std::printf("%-6s %-10s %-18s %-18s %-14s\n", "hop", "switch",
                "queue delay (us)", "segment delay (us)", "queue (KB)");
    for (std::size_t h = 0; h < profiler.hopsObserved(); ++h) {
      const auto& r = profiler.hop(h);
      std::printf("%-6zu %-10u %-18.1f %-18.1f %-14.1f\n", h, r.switchId,
                  r.queueDelayUs.mean(), r.segmentDelayUs.mean(),
                  r.queueBytes.mean() / 1e3);
    }
    const bool attributed =
        profiler.hopsObserved() == 4 &&
        profiler.hop(2).queueDelayUs.mean() >
            10 * (profiler.hop(0).queueDelayUs.mean() + 1.0);
    std::printf("\ncongestion attributed to hop 2: %s\n\n",
                attributed ? "yes" : "NO");
    if (!attributed) return false;
  }

  std::printf("-- probe-interval sweep: visibility vs overhead --\n");
  std::printf("%-14s %-18s %-20s %-18s\n", "interval", "samples in 50ms",
              "probe bw (wire B/s)", "per-hop samples/ms");
  const auto program = apps::makeLatencyProbeProgram(4);
  const std::size_t probeWire =
      net::kEthernetHeaderSize + program.wireBytes() + 50 +
      net::kEthernetWireOverhead;  // + inner IP/UDP (min frame) + overhead
  for (const std::int64_t us : {100, 500, 1000, 5000, 10000}) {
    host::Testbed tb;
    buildChain(tb, 4, host::LinkParams{kChainRate, sim::Time::us(10)});
    apps::LatencyProfiler::Config pcfg;
    pcfg.dstMac = tb.host(1).mac();
    pcfg.dstIp = tb.host(1).ip();
    pcfg.interval = sim::Time::us(us);
    pcfg.maxHops = 4;
    apps::LatencyProfiler profiler(tb.host(0), pcfg);
    profiler.start(sim::Time::zero());
    tb.sim().run(sim::Time::ms(50));
    profiler.stop();
    tb.sim().run(tb.sim().now() + sim::Time::sec(1));
    const double bwBps = static_cast<double>(probeWire) * 1e6 /
                         static_cast<double>(us);
    char label[24];
    std::snprintf(label, sizeof label, "%lld us", static_cast<long long>(us));
    std::printf("%-14s %-18llu %-20.0f %-18.2f\n", label,
                static_cast<unsigned long long>(profiler.resultsReceived()),
                bwBps,
                static_cast<double>(profiler.resultsReceived()) / 50.0);
  }
  std::printf("\n(1 ms probing costs %.2f%% of a 100 Mb/s link for "
              "per-millisecond per-hop visibility)\n",
              static_cast<double>(probeWire) * 8 * 1e3 / 1e8 * 100.0);
  return true;
}

struct Case {
  std::string_view name;
  bool (*run)();
};

constexpr Case kCases[] = {
    {"fig1", fig1}, {"table1", table1}, {"fig2", fig2}, {"table2", table2},
    {"fig3", fig3}, {"fig4", fig4},     {"fig5", fig5}, {"s21", s21},
    {"s23", s23},   {"s33", s33},       {"s4", s4},     {"a1", a1},
    {"a2", a2},     {"a3", a3},         {"a4", a4},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Case*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto* it = std::find_if(
        std::begin(kCases), std::end(kCases),
        [&](const Case& c) { return c.name == argv[i]; });
    if (it == std::end(kCases)) {
      std::fprintf(stderr, "tpppaper: unknown case '%s'\nusage: tpppaper "
                           "[case...]\ncases:", argv[i]);
      for (const auto& c : kCases) {
        std::fprintf(stderr, " %s", std::string(c.name).c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(it);
  }
  if (selected.empty()) {
    for (const auto& c : kCases) selected.push_back(&c);
  }
  bool allHold = true;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i > 0) std::printf("\n");
    allHold = selected[i]->run() && allHold;
  }
  return allHold ? 0 : 1;
}
