// Core hot-path microbenchmarks + perf-regression harness.
//
// Times the simulator's inner loops — event schedule/fire, packet
// alloc/clone, link transit, TCPU execute per opcode, and end-to-end
// packets/sec on a 3-switch chain — and emits machine-readable
// BENCH_core.json (ns/op, ops/sec, heap allocations/op) so every PR has a
// trajectory to beat. Run it via `ctest -L perf` or directly:
//
//   build/bench/core/bench_core [output.json]
//
// Wall-clock numbers vary with hardware; allocation counts do not — they
// are the deterministic part of the regression gate.
// GCC pairs the replaced operator delete with the *default* operator new
// and warns about free(); both operators are replaced here, so the pairing
// is malloc/free throughout and the warning is spurious.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/microburst.hpp"
#include "src/apps/ndb.hpp"
#include "src/apps/rcpstar.hpp"
#include "src/asic/tables.hpp"
#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/core/verifier.hpp"
#include "src/host/collector.hpp"
#include "src/host/flow.hpp"
#include "src/host/tcp.hpp"
#include "src/host/telemetry.hpp"
#include "src/host/topology.hpp"
#include "src/monitor/sketch.hpp"
#include "src/net/link.hpp"
#include "src/net/packet.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"
#include "src/tcpu/tcpu.hpp"
#include "src/workload/scenario.hpp"

// ------------------------------------------------------------------------
// Heap instrumentation: every global allocation in the process is counted.
// ------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
std::atomic<std::uint64_t> g_allocBytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  g_allocBytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  g_allocBytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace tpp;

// ------------------------------------------------------------------------
// Measurement scaffolding
// ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double nsPerOp = 0;
  double opsPerSec = 0;
  double allocsPerOp = 0;
  std::uint64_t ops = 0;
};

// Runs `body(ops)` once as warmup (with a reduced count), then measures.
template <typename F>
Metric measure(std::string name, std::uint64_t ops, F&& body) {
  body(ops / 10 + 1);  // warmup: touch caches, fill pools
  const auto allocs0 = g_allocCount.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  body(ops);
  const auto t1 = std::chrono::steady_clock::now();
  const auto allocs1 = g_allocCount.load(std::memory_order_relaxed);
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  Metric m;
  m.name = std::move(name);
  m.ops = ops;
  m.nsPerOp = ns / static_cast<double>(ops);
  m.opsPerSec = m.nsPerOp > 0 ? 1e9 / m.nsPerOp : 0;
  m.allocsPerOp =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(ops);
  std::printf("  %-28s %10.1f ns/op  %12.0f ops/s  %6.2f allocs/op\n",
              m.name.c_str(), m.nsPerOp, m.opsPerSec, m.allocsPerOp);
  return m;
}

// Times two bodies over `ops` operations each in kGateRounds alternating
// rounds (after one warmup each) and returns each side's fastest ns/op.
// Timing the two sides of a self-gate once each, at different moments,
// lets a scheduler hiccup land on one side only; alternating exposes both
// to the same machine state, and the minimum drops the rounds a hiccup hit.
constexpr int kGateRounds = 5;

template <typename A, typename B>
std::pair<double, double> pairedMinNsPerOp(std::uint64_t ops, A&& a, B&& b) {
  a(ops / 10 + 1);
  b(ops / 10 + 1);
  const auto nsPerOp = [ops](auto& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body(ops);
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
           static_cast<double>(ops);
  };
  double minA = std::numeric_limits<double>::infinity();
  double minB = minA;
  for (int r = 0; r < kGateRounds; ++r) {
    minA = std::min(minA, nsPerOp(a));
    minB = std::min(minB, nsPerOp(b));
  }
  return {minA, minB};
}

// ------------------------------------------------------------------------
// 1. Event queue: schedule + fire, schedule + cancel
// ------------------------------------------------------------------------

Metric benchEventScheduleFire() {
  return measure("event_schedule_fire", 2'000'000, [](std::uint64_t ops) {
    sim::EventQueue q;
    std::uint64_t fired = 0;
    constexpr std::uint64_t kBatch = 64;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        q.push(sim::Time::ns(static_cast<std::int64_t>(done + i)),
               [&fired] { ++fired; });
      }
      while (auto f = q.tryPop()) f->fn();
      done += n;
    }
    if (fired != ops) std::abort();
  });
}

Metric benchEventCancel() {
  return measure("event_cancel", 2'000'000, [](std::uint64_t ops) {
    sim::EventQueue q;
    constexpr std::uint64_t kBatch = 64;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      std::vector<sim::EventHandle> handles;
      handles.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        handles.push_back(
            q.push(sim::Time::ns(static_cast<std::int64_t>(done + i)), [] {}));
      }
      for (auto& h : handles) h.cancel();
      if (!q.empty()) std::abort();  // purges cancelled entries
      done += n;
    }
  });
}

// ------------------------------------------------------------------------
// 2. Packet alloc / clone
// ------------------------------------------------------------------------

Metric benchPacketMake() {
  return measure("packet_make_1500B", 1'000'000, [](std::uint64_t ops) {
    std::uint64_t bytes = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto p = net::Packet::make(1500, 0xab);
      bytes += p->size();
    }
    if (bytes != ops * 1500) std::abort();
  });
}

Metric benchPacketClone() {
  return measure("packet_clone_1500B", 1'000'000, [](std::uint64_t ops) {
    auto proto = net::Packet::make(1500, 0x5a);
    proto->flowId = 7;
    std::uint64_t ids = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto c = proto->clone();
      ids ^= c->id();
    }
    if (ids == 0xdeadbeef) std::abort();  // defeat dead-code elimination
  });
}

// ------------------------------------------------------------------------
// 3. Link transit: serialize + propagate + deliver through the simulator
// ------------------------------------------------------------------------

class SinkNode final : public net::Node {
 public:
  using net::Node::Node;
  std::uint64_t got = 0;
  void receive(net::PacketPtr, std::size_t) override { ++got; }
};

void linkTransit(std::uint64_t ops) {
  sim::Simulator sim;
  SinkNode sink("sink");
  net::Channel ch(sim, 100'000'000'000ULL, sim::Time::ns(100));
  ch.attachReceiver(&sink, 0);
  constexpr std::uint64_t kBatch = 256;
  for (std::uint64_t done = 0; done < ops;) {
    const std::uint64_t n = std::min(kBatch, ops - done);
    for (std::uint64_t i = 0; i < n; ++i) {
      ch.transmit(net::Packet::make(1500, 0x11));
    }
    sim.run();
    done += n;
  }
  if (sink.got != ops) std::abort();
}

Metric benchLinkTransit() {
  return measure("link_transit_1500B", 500'000, linkTransit);
}

// ------------------------------------------------------------------------
// 3b. Fault-check overhead on the transmit hot path: unarmed (one null
// check) vs. armed with an all-zero plan (plus two probability compares,
// no randomness consumed). The regression gate: both must track
// link_transit_1500B — fault injection is free when it isn't injecting.
// ------------------------------------------------------------------------

Metric benchFaultCheck(const std::string& name, bool armed) {
  return measure(name, 500'000, [armed](std::uint64_t ops) {
    sim::Simulator sim;
    SinkNode sink("sink");
    net::Channel ch(sim, 100'000'000'000ULL, sim::Time::ns(100));
    ch.attachReceiver(&sink, 0);
    sim::FaultInjector inj(sim, 1);
    if (armed) ch.setFaultState(&inj.link("bench", sim::LinkFaultPlan{}));
    constexpr std::uint64_t kBatch = 256;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        ch.transmit(net::Packet::make(1500, 0x11));
      }
      sim.run();
      done += n;
    }
    if (sink.got != ops) std::abort();  // a zero plan never drops
  });
}

// ------------------------------------------------------------------------
// 3c. Flight-recorder overhead on the same transmit path: disarmed (one
// null check per trace site, PR 3's fault_check discipline) vs. armed
// (two ring stores per transit: link_tx + link_deliver). Gate: disarmed
// must track link_transit_1500B — tracing is free when nothing listens.
// ------------------------------------------------------------------------

auto traceCheck(bool armed) {
  return [armed](std::uint64_t ops) {
    sim::Simulator sim;
    SinkNode sink("sink");
    net::Channel ch(sim, 100'000'000'000ULL, sim::Time::ns(100));
    ch.attachReceiver(&sink, 0);
    sim::Tracer tracer(1 << 12);
    if (armed) ch.setTracer(&tracer, tracer.actor("bench"));
    constexpr std::uint64_t kBatch = 256;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        ch.transmit(net::Packet::make(1500, 0x11));
      }
      sim.run();
      done += n;
    }
    if (sink.got != ops) std::abort();
    if (armed && tracer.written() == 0) std::abort();
  };
}

Metric benchTraceCheck(const std::string& name, bool armed) {
  return measure(name, 500'000, traceCheck(armed));
}

// Raw cost of one Tracer::record into a warm ring — the per-site price a
// new trace point adds to an armed hot path.
Metric benchTraceRecord() {
  return measure("trace_record", 4'000'000, [](std::uint64_t ops) {
    sim::Tracer tracer(1 << 12);
    const auto actor = tracer.actor("bench");
    for (std::uint64_t i = 0; i < ops; ++i) {
      tracer.record(sim::Time::ns(static_cast<std::int64_t>(i)),
                    sim::TraceKind::EventFire, actor, 0,
                    static_cast<std::uint32_t>(i));
    }
    if (tracer.written() != ops) std::abort();
  });
}

// ------------------------------------------------------------------------
// 4. TCPU: decode + execute, per opcode
// ------------------------------------------------------------------------

// Flat, always-mapped address space: isolates TCPU cost from table lookups.
class FlatMemory final : public tcpu::AddressSpace {
 public:
  std::uint32_t lastWrite = 0;
  ReadResult read(std::uint16_t address, std::uint16_t) override {
    return ReadResult::ok(address * 2654435761u);
  }
  core::Fault write(std::uint16_t, std::uint32_t value,
                    std::uint16_t) override {
    lastWrite = value;
    return core::Fault::None;
  }
};

// Executes `program` repeatedly on one packet, resetting the mutable header
// state between runs so every iteration sees hop 0 / the initial SP.
Metric benchTcpuProgram(const std::string& name, const core::Program& program,
                        std::uint64_t ops) {
  auto packet = core::buildTppFrame(net::MacAddress::fromIndex(1),
                                    net::MacAddress::fromIndex(2), program);
  auto view = core::TppView::at(*packet, net::kEthernetHeaderSize);
  if (!view) std::abort();
  const std::uint16_t sp0 = view->stackPointer();
  const std::size_t perExec = program.instructions.size();
  return measure(name, ops, [&](std::uint64_t n) {
    FlatMemory mem;
    tcpu::Tcpu tcpu;
    for (std::uint64_t i = 0; i < n; i += perExec) {
      const auto report = tcpu.execute(*view, mem);
      if (report.fault != core::Fault::None) std::abort();
      view->setStackPointer(sp0);
      view->setHopNumber(0);
    }
  });
}

std::vector<Metric> benchTcpuOpcodes() {
  std::vector<Metric> out;
  constexpr std::uint64_t kOps = 4'000'000;  // instructions, not executes
  {
    core::ProgramBuilder b;
    for (int i = 0; i < 8; ++i) b.load(0xb000, static_cast<std::uint8_t>(i));
    b.reserve(8);
    out.push_back(benchTcpuProgram("tcpu_load", *b.build(), kOps));
  }
  {
    core::ProgramBuilder b;
    for (int i = 0; i < 8; ++i) b.push(0xb000);
    b.reserve(8);
    out.push_back(benchTcpuProgram("tcpu_push", *b.build(), kOps));
  }
  {
    core::ProgramBuilder b;
    for (int i = 0; i < 8; ++i) b.store(0xb000, static_cast<std::uint8_t>(i));
    b.reserve(8);
    out.push_back(benchTcpuProgram("tcpu_store", *b.build(), kOps));
  }
  {
    core::ProgramBuilder b;
    for (int i = 0; i < 8; ++i) b.add(0xb000, static_cast<std::uint8_t>(i));
    b.reserve(8);
    out.push_back(benchTcpuProgram("tcpu_add", *b.build(), kOps));
  }
  {
    // CEXEC with an always-true predicate: read(0) == 0 masked to 0.
    core::ProgramBuilder b;
    for (int i = 0; i < 8; ++i) b.cexec(0x0000, 0, 0);
    b.reserve(8);
    out.push_back(benchTcpuProgram("tcpu_cexec", *b.build(), kOps));
  }
  {
    // CSTORE whose compare always fails (cond != switch value): measures
    // the read + compare + result write-back path.
    core::ProgramBuilder b;
    for (int i = 0; i < 4; ++i) b.cstore(0xb000, 1, 2);
    b.reserve(8);
    out.push_back(benchTcpuProgram("tcpu_cstore", *b.build(), kOps / 2));
  }
  return out;
}

// ------------------------------------------------------------------------
// 5. Static verifier: full verify() over the canonical app programs — the
// cost an end-host agent pays per program before injection.
// ------------------------------------------------------------------------

Metric benchVerifyProgram(const std::string& name,
                          const core::Program& program) {
  const core::VerifyOptions opts{.maxHops = 8};
  return measure(name, 200'000, [&](std::uint64_t n) {
    std::size_t errors = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      errors += core::verify(program, core::MemoryMap::standard(), opts).errors;
    }
    if (errors != 0) std::abort();  // app programs verify clean
  });
}

std::vector<Metric> benchVerify() {
  std::vector<Metric> out;
  out.push_back(benchVerifyProgram(
      "verify_rcp_collect", apps::makeRcpCollectProgram(8)));
  out.push_back(benchVerifyProgram(
      "verify_ndb_trace", apps::makeTraceProgram(8)));
  out.push_back(benchVerifyProgram(
      "verify_microburst", apps::makeQueueProbeProgram(8)));
  return out;
}

// ------------------------------------------------------------------------
// 6. End-to-end: packets/sec across a 3-switch chain
// ------------------------------------------------------------------------

Metric benchChainUdp() {
  return measure("chain_udp_pps", 60'000, [](std::uint64_t ops) {
    host::Testbed tb;
    buildChain(tb, 3, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
    std::uint64_t delivered = 0;
    tb.host(1).bindUdp(7000, [&](const host::UdpDatagram&) { ++delivered; });
    const std::vector<std::uint8_t> payload(1000, 0x42);
    constexpr std::uint64_t kBatch = 2'000;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        tb.host(0).sendUdp(tb.host(1).mac(), tb.host(1).ip(), 7000, 7000,
                           payload);
      }
      tb.sim().run();
      done += n;
    }
    if (delivered != ops) std::abort();
  });
}

void chainTppProbes(std::uint64_t ops) {
  host::Testbed tb;
  buildChain(tb, 3, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
  const auto program = apps::makeQueueProbeProgram(4);
  std::uint64_t echoed = 0;
  tb.host(0).onTppResult([&](const core::ExecutedTpp&) { ++echoed; });
  constexpr std::uint64_t kBatch = 1'000;
  for (std::uint64_t done = 0; done < ops;) {
    const std::uint64_t n = std::min(kBatch, ops - done);
    for (std::uint64_t i = 0; i < n; ++i) {
      tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
    }
    tb.sim().run();
    done += n;
  }
  if (echoed != ops) std::abort();
}

Metric benchChainTppProbes() {
  return measure("chain_tpp_probe_rtt", 30'000, chainTppProbes);
}

// ------------------------------------------------------------------------
// 6b. SRAM race-oracle overhead on the probe round trip: disarmed (one
// null check per scratch access, the fault/trace discipline) vs. armed
// (one flags-merge append per access). The probe plain-writes one global
// scratch word per hop, so every transit crosses the instrumented path.
// Gate: disarmed must track chain_tpp_probe_rtt — the oracle is free
// when nothing cross-checks.
// ------------------------------------------------------------------------

auto oracleCheck(bool armed) {
  return [armed](std::uint64_t ops) {
    host::Testbed tb;
    buildChain(tb, 3, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
    host::SramOracleSet oracles(tb.switchCount());
    if (armed) host::armSramOracle(tb, oracles);
    core::ProgramBuilder b;
    b.storeImm(core::kSramBase, 7);
    const auto program = *b.build();
    std::uint64_t echoed = 0;
    tb.host(0).onTppResult([&](const core::ExecutedTpp&) { ++echoed; });
    constexpr std::uint64_t kBatch = 1'000;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
      }
      tb.sim().run();
      done += n;
    }
    if (echoed != ops) std::abort();
    if (armed && oracles.accesses() == 0) std::abort();
  };
}

Metric benchOracleCheck(const std::string& name, bool armed) {
  return measure(name, 30'000, oracleCheck(armed));
}

// ------------------------------------------------------------------------
// 6d. In-switch sketch monitoring (DESIGN.md §14). sketch_update is the
// resident count-min hook's per-packet cost: one op = one hook-eligible
// UDP packet crossing a switch that patches and runs the d-row
// LOAD/ADD/CSTORE update (compare against chain_udp_pps for the
// no-hook baseline). sketch_read_rtt is the host-side reader: one op =
// one CEXEC-pinned read probe round trip pushing [epoch, row0..rowd-1]
// out of the grant. Both ride the --check gate.
// ------------------------------------------------------------------------

Metric benchSketchUpdate() {
  return measure("sketch_update", 60'000, [](std::uint64_t ops) {
    host::Testbed tb;
    buildChain(tb, 1, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
    const monitor::CountMinSketch sketch({.taskId = 8});
    auto& sw = tb.sw(0);
    const auto grant = sw.sramAllocator().allocate(
        8, sketch.words(), core::StatNamespace::Sram);
    if (!grant) std::abort();
    sw.installHook(sketch.updateHook(grant->baseAddress()));
    std::uint64_t delivered = 0;
    tb.host(1).bindUdp(7000, [&](const host::UdpDatagram&) { ++delivered; });
    const std::vector<std::uint8_t> payload(1000, 0x42);
    constexpr std::uint64_t kBatch = 2'000;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        tb.host(0).sendUdp(tb.host(1).mac(), tb.host(1).ip(), 7000, 7000,
                           payload);
      }
      tb.sim().run();
      done += n;
    }
    if (delivered != ops) std::abort();
    if (sw.hookExecutions() < ops) std::abort();
  });
}

Metric benchSketchReadRtt() {
  return measure("sketch_read_rtt", 30'000, [](std::uint64_t ops) {
    host::Testbed tb;
    buildChain(tb, 1, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
    const monitor::CountMinSketch sketch({.taskId = 8});
    auto& sw = tb.sw(0);
    const auto grant = sw.sramAllocator().allocate(
        8, sketch.words(), core::StatNamespace::Sram);
    if (!grant) std::abort();
    const auto program = sketch.readProbeProgram(
        grant->baseAddress(), /*switchId=*/1, /*flowHash=*/0x5bd1e995);
    std::uint64_t echoed = 0;
    tb.host(0).onTppResult([&](const core::ExecutedTpp&) { ++echoed; });
    constexpr std::uint64_t kBatch = 1'000;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
      }
      tb.sim().run();
      done += n;
    }
    if (echoed != ops) std::abort();
  });
}

// ------------------------------------------------------------------------
// 6c. TCP transport hot paths (DESIGN.md §12). Three shapes: the
// handshake round trip (connection setup/teardown cost), bulk goodput
// over the same 3-switch chain as chain_udp_pps (per-byte streaming
// cost: segmentation, cumulative ACKs, cwnd growth), and RTO recovery
// (timer re-arm plus go-back-N retransmission when a wire goes dark
// mid-handshake). All three ride the --check gate like every other
// metric: ratios against the transit anchor must not drift.
// ------------------------------------------------------------------------

Metric benchTcpHandshake() {
  // One op = SYN -> SYN+ACK -> ACK -> FIN exchange, run to quiescence.
  // Connections stay alive to the end of the run: the destructor does not
  // unbind the UDP port, so tearing one down mid-run would leave a
  // dangling demux callback.
  return measure("tcp_handshake", 10'000, [](std::uint64_t ops) {
    host::Testbed tb;
    buildChain(tb, 1, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
    host::TcpListener listener(tb.host(1), 23000);
    std::vector<std::unique_ptr<host::TcpConnection>> conns;
    conns.reserve(ops);
    std::uint64_t closed = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto& conn = *conns.emplace_back(
          std::make_unique<host::TcpConnection>(tb.host(0),
                                                host::TcpConnection::Config{}));
      conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000,
                   static_cast<std::uint16_t>(1024 + (i % 60000)), 0);
      tb.sim().run();
      if (conn.closedCleanly()) ++closed;
    }
    if (closed != ops) std::abort();
  });
}

Metric benchTcpGoodputChain() {
  // One op = one stream byte: a single 8 MB bulk transfer across the
  // chain, so the per-byte figure folds in segmentation, pattern
  // generation/verification, ACK processing and congestion growth.
  return measure("tcp_goodput_chain", 8'000'000, [](std::uint64_t ops) {
    host::Testbed tb;
    buildChain(tb, 3, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
    host::TcpListener listener(tb.host(1), 23000);
    host::TcpConnection conn(tb.host(0), {});
    conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000, 40000, ops);
    tb.sim().run();
    if (!conn.closedCleanly()) std::abort();
    if (listener.deliveredBytes() != ops) std::abort();
  });
}

Metric benchTcpRtoRecovery() {
  // One op = one transfer whose SYN hits a dark wire: the link is down
  // for 120 us from connect, so the handshake only completes through the
  // RTO path (50 us initial, doubling once to the 100 us cap), then one
  // data segment and teardown flow normally. Exercises timer re-arm,
  // backoff, and the go-back-N resend that every chaos scenario leans on.
  return measure("tcp_rto_recovery", 2'000, [](std::uint64_t ops) {
    host::Testbed tb;
    buildChain(tb, 1, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
    sim::FaultInjector inj(tb.sim(), 1);
    auto& hole = inj.link("h0->sw0");
    tb.linkAt(0).aToB().setFaultState(&hole);
    host::TcpListener listener(tb.host(1), 23000);
    host::TcpConnection::Config cfg;
    cfg.initialRto = sim::Time::us(50);
    cfg.minRto = sim::Time::us(50);
    cfg.maxRto = sim::Time::us(100);
    std::vector<std::unique_ptr<host::TcpConnection>> conns;
    conns.reserve(ops);
    std::uint64_t recovered = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      hole.setDown(true);
      tb.sim().scheduleAt(tb.sim().now() + sim::Time::us(120),
                          [&] { hole.setDown(false); });
      auto& conn = *conns.emplace_back(
          std::make_unique<host::TcpConnection>(tb.host(0), cfg));
      conn.connect(tb.host(1).mac(), tb.host(1).ip(), 23000,
                   static_cast<std::uint16_t>(1024 + (i % 60000)), 1'000);
      tb.sim().run();
      if (conn.closedCleanly() && conn.rtoFires() > 0) ++recovered;
    }
    if (recovered != ops) std::abort();
  });
}

// ------------------------------------------------------------------------
// 7. Fabric events/sec on a k=8 fat tree (128 hosts, 80 switches), 32
// cross-pod paced flows through the core.
// ------------------------------------------------------------------------

Metric benchFatTreeK8() {
  constexpr std::size_t k = 8;
  host::Testbed tb;
  const auto ix = buildFatTree(
      tb, k, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
  std::vector<std::unique_ptr<host::PacedFlow>> flows;
  std::uint16_t port = 20000;
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t e = 0; e < ix.radix(); ++e) {
      host::Host& dst = tb.host(ix.host((p + 1) % k, e, 1));
      host::FlowSpec spec;
      spec.dstMac = dst.mac();
      spec.dstIp = dst.ip();
      spec.srcPort = port;
      spec.dstPort = port;
      ++port;
      spec.payloadBytes = 1000;
      spec.rateBps = 100e6;
      flows.push_back(std::make_unique<host::PacedFlow>(
          tb.host(ix.host(p, e, 0)), spec, flows.size() + 1));
      flows.back()->start(sim::Time::zero());
    }
  }
  const auto allocs0 = g_allocCount.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  tb.run(sim::Time::ms(40));
  const auto t1 = std::chrono::steady_clock::now();
  const auto allocs1 = g_allocCount.load(std::memory_order_relaxed);
  for (auto& f : flows) f->stop();
  const std::uint64_t events = tb.sim().eventsExecuted();
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  Metric m;
  m.name = "fattree_k8_events_per_sec";
  m.ops = events;
  m.nsPerOp = ns / static_cast<double>(events);
  m.opsPerSec = m.nsPerOp > 0 ? 1e9 / m.nsPerOp : 0;
  m.allocsPerOp =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(events);
  std::printf("  %-28s %10.1f ns/op  %12.0f ops/s  %6.2f allocs/op\n",
              m.name.c_str(), m.nsPerOp, m.opsPerSec, m.allocsPerOp);
  return m;
}

// ------------------------------------------------------------------------
// 8. Declarative scenario runner on a k=16 fat tree (1024 hosts, 320
// switches): events/sec through the full runner path — parse-grade config,
// compiled Poisson web-search schedule, TCP flows, TPP controllers, queue
// samplers. A shortened slice of the `ctest -L scale` web-search
// scenario.
// ------------------------------------------------------------------------

Metric benchScenarioK16() {
  workload::ScenarioConfig c;
  c.name = "bench_k16";
  c.seed = 42;
  c.horizonMs = 1.0;
  c.topology = workload::TopologyType::FatTree;
  c.k = 16;
  c.linkGbps = 10.0;
  c.linkDelayUs = 2.0;
  c.bufferKb = 128;
  c.pattern = workload::TrafficPattern::Poisson;
  c.sizeDist = workload::FlowSizeDist::WebSearch;
  c.sizeScale = 0.02;
  c.flowsPerSec = 40'000;
  c.maxFlows = 100;
  c.participants = 128;
  c.mss = 1000;
  c.tppController = true;
  c.maxControllers = 32;
  c.queueSampleUs = 100.0;

  const auto allocs0 = g_allocCount.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const auto run = workload::runScenario(c);
  const auto t1 = std::chrono::steady_clock::now();
  const auto allocs1 = g_allocCount.load(std::memory_order_relaxed);
  if (run.result.finished + run.result.failed != run.result.flows ||
      run.result.flows == 0) {
    std::abort();
  }
  const std::uint64_t events = run.result.eventsExecuted;
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  Metric m;
  m.name = "scale_k16_events_per_sec";
  m.ops = events;
  m.nsPerOp = ns / static_cast<double>(events);
  m.opsPerSec = m.nsPerOp > 0 ? 1e9 / m.nsPerOp : 0;
  m.allocsPerOp =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(events);
  std::printf("  %-28s %10.1f ns/op  %12.0f ops/s  %6.2f allocs/op\n",
              m.name.c_str(), m.nsPerOp, m.opsPerSec, m.allocsPerOp);
  return m;
}

// ------------------------------------------------------------------------
// 9. Forwarding tables: one L3 lookup in a core switch's table (k=16: 1024
// host /32s) behind an ECMP /0 default, and a k=16 fat-tree build with no
// traffic — the set-up cost that table inserts used to dominate.
// ------------------------------------------------------------------------

Metric benchL3Match1024() {
  asic::L3LpmTable table;
  for (std::uint32_t h = 0; h < 1024; ++h) {
    table.add(net::Ipv4Address::forHost(h), 32, h % 8);
  }
  table.addMultipath(net::Ipv4Address{0}, 0, {8, 9, 10, 11, 12, 13, 14, 15});
  // A fixed stream: three in four destinations hit a host route, the rest
  // fall through to the default.
  std::mt19937_64 rng(42);
  std::vector<std::pair<net::Ipv4Address, std::uint64_t>> keys(4096);
  for (auto& [dst, hash] : keys) {
    dst = net::Ipv4Address::forHost(static_cast<std::uint32_t>(rng() % 1365));
    hash = rng();
  }
  return measure("l3_match_1024", 1'000'000, [&](std::uint64_t ops) {
    std::uint64_t ports = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const auto& [dst, hash] = keys[i % keys.size()];
      const auto r = table.match(dst, hash);
      if (!r) std::abort();  // the default route matches everything
      ports += r->outPort + 1;
    }
    if (ports < ops) std::abort();
  });
}

Metric benchFatTreeBuildK16() {
  const host::LinkParams lp{10'000'000'000ULL, sim::Time::us(2)};
  return measure("fattree_build_k16", 3, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      host::Testbed tb;
      const auto ix = buildFatTree(tb, 16, lp);
      if (tb.sw(ix.coreSw(0)).l3().size() != 1024) std::abort();
    }
  });
}

// ------------------------------------------------------------------------
// JSON output
// ------------------------------------------------------------------------

void writeJson(const char* path, const std::vector<Metric>& metrics) {
  FILE* f = std::fopen(path, "w");
  if (!f) {
    std::perror("bench_core: fopen");
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"core_hotpaths\",\n");
  std::fprintf(f, "  \"units\": {\"ns_per_op\": \"wall nanoseconds per "
                  "operation\", \"ops_per_sec\": \"operations per second\", "
                  "\"allocs_per_op\": \"heap allocations per operation\"},\n");
  std::fprintf(f, "  \"metrics\": {\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::fprintf(f,
                 "    \"%s\": {\"ns_per_op\": %.2f, \"ops_per_sec\": %.0f, "
                 "\"allocs_per_op\": %.3f, \"ops\": %llu}%s\n",
                 m.name.c_str(), m.nsPerOp, m.opsPerSec, m.allocsPerOp,
                 static_cast<unsigned long long>(m.ops),
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

// ------------------------------------------------------------------------
// Baseline comparison (--check BENCH_core.json): the perf-regression gate.
//
// Wall-clock differs across machines, so times are compared as ratios
// against the link_transit_1500B anchor from the *same* run: a metric
// regresses when (metric / anchor) grows past kTimeTolerance times the
// baseline's ratio. The anchor is the fastest of the transit self-gate's
// kGateRounds timings, not the metric's single timing, so one hiccup while
// the anchor is timed cannot move every ratio at once. Allocation counts
// are machine-independent and gated absolutely.
// ------------------------------------------------------------------------

constexpr double kTimeTolerance = 1.75;
constexpr double kAllocSlack = 0.5;

// Pulls "<name>": {"ns_per_op": X, ..., "allocs_per_op": Y out of the
// baseline file — the JSON is our own writeJson output, so a string scan
// is a complete parser for it.
bool baselineFor(const std::string& json, const std::string& name,
                 double& nsPerOp, double& allocsPerOp) {
  const auto key = "\"" + name + "\": {";
  const auto at = json.find(key);
  if (at == std::string::npos) return false;
  const auto end = json.find('}', at);
  const std::string entry = json.substr(at, end - at);
  const auto ns = entry.find("\"ns_per_op\": ");
  const auto al = entry.find("\"allocs_per_op\": ");
  if (ns == std::string::npos || al == std::string::npos) return false;
  nsPerOp = std::strtod(entry.c_str() + ns + 13, nullptr);
  allocsPerOp = std::strtod(entry.c_str() + al + 17, nullptr);
  return true;
}

int checkAgainstBaseline(const std::vector<Metric>& metrics,
                         const char* path, double anchorNs) {
  std::string json;
  {
    FILE* f = std::fopen(path, "rb");
    if (!f) {
      std::fprintf(stderr, "bench_core: cannot read baseline %s\n", path);
      return 2;
    }
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
      json.append(buf, n);
    }
    std::fclose(f);
  }
  double anchorBase = 0;
  double anchorAllocs = 0;
  if (!baselineFor(json, "link_transit_1500B", anchorBase, anchorAllocs)) {
    std::fprintf(stderr, "bench_core: baseline %s lacks the anchor metric\n",
                 path);
    return 2;
  }
  int failures = 0;
  std::size_t compared = 0;
  for (const auto& m : metrics) {
    double baseNs = 0;
    double baseAllocs = 0;
    if (!baselineFor(json, m.name, baseNs, baseAllocs)) {
      std::printf("  %-28s (new metric, no baseline — skipped)\n",
                  m.name.c_str());
      continue;
    }
    ++compared;
    if (m.allocsPerOp > baseAllocs + kAllocSlack) {
      std::fprintf(stderr,
                   "FAIL: %s allocs/op %.3f exceeds baseline %.3f + %.1f\n",
                   m.name.c_str(), m.allocsPerOp, baseAllocs, kAllocSlack);
      ++failures;
    }
    if (m.name == "link_transit_1500B") continue;
    const double ratio = m.nsPerOp / anchorNs;
    const double baseRatio = baseNs / anchorBase;
    if (ratio > baseRatio * kTimeTolerance) {
      std::fprintf(stderr,
                   "FAIL: %s at %.2fx the transit anchor vs %.2fx in the "
                   "baseline (tolerance %.2fx)\n",
                   m.name.c_str(), ratio, baseRatio, kTimeTolerance);
      ++failures;
    }
  }
  std::printf("baseline check: %zu metrics compared against %s (anchor "
              "%.1f ns/op, fastest of %d rounds), %d regression%s\n",
              compared, path, anchorNs, kGateRounds, failures,
              failures == 1 ? "" : "s");
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = "BENCH_core.json";
  const char* baseline = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      out = argv[i];
    }
  }
  std::printf("core hot-path microbenchmarks\n");
  std::vector<Metric> metrics;
  metrics.push_back(benchEventScheduleFire());
  metrics.push_back(benchEventCancel());
  metrics.push_back(benchPacketMake());
  metrics.push_back(benchPacketClone());
  metrics.push_back(benchLinkTransit());
  metrics.push_back(benchFaultCheck("fault_check_unarmed", false));
  metrics.push_back(benchFaultCheck("fault_check_armed_zero", true));
  metrics.push_back(benchTraceCheck("trace_check_off", false));
  metrics.push_back(benchTraceCheck("trace_check_on", true));
  metrics.push_back(benchTraceRecord());
  for (auto& m : benchTcpuOpcodes()) metrics.push_back(std::move(m));
  for (auto& m : benchVerify()) metrics.push_back(std::move(m));
  metrics.push_back(benchChainUdp());
  metrics.push_back(benchChainTppProbes());
  metrics.push_back(benchOracleCheck("oracle_check_off", false));
  metrics.push_back(benchOracleCheck("oracle_check_on", true));
  metrics.push_back(benchSketchUpdate());
  metrics.push_back(benchSketchReadRtt());
  metrics.push_back(benchTcpHandshake());
  metrics.push_back(benchTcpGoodputChain());
  metrics.push_back(benchTcpRtoRecovery());
  metrics.push_back(benchFatTreeK8());
  metrics.push_back(benchScenarioK16());
  metrics.push_back(benchL3Match1024());
  metrics.push_back(benchFatTreeBuildK16());
  writeJson(out, metrics);
  std::printf("wrote %s (%zu metrics)\n", out, metrics.size());

  // Self-gate: with tracing compiled in but disarmed, the transit path must
  // cost the same as the plain transit benchmark (the trace sites are one
  // never-taken branch each). 1.25x absorbs scheduler noise in CI; a real
  // regression (ring store on the disarmed path, say) blows well past it.
  // The gate re-times both sides in alternating rounds (pairedMinNsPerOp)
  // rather than comparing the two JSON metrics, each timed once.
  const auto [transitNs, traceOffNs] =
      pairedMinNsPerOp(500'000, linkTransit, traceCheck(false));
  std::printf("self-gate: trace_check_off %.1f / link_transit_1500B %.1f "
              "ns/op = %.3f (bound 1.25)\n",
              traceOffNs, transitNs, traceOffNs / transitNs);
  if (traceOffNs > transitNs * 1.25) {
    std::fprintf(stderr,
                 "FAIL: trace_check_off %.1f ns/op exceeds 1.25x "
                 "link_transit_1500B %.1f ns/op (fastest of %d alternating "
                 "rounds) — disarmed tracing is not free\n",
                 traceOffNs, transitNs, kGateRounds);
    return 1;
  }

  // Same discipline for the SRAM race oracle: a probe round trip with the
  // oracle compiled in but disarmed must cost what the plain TPP probe
  // round trip costs — each scratch access adds one never-taken null check.
  const auto [probeNs, oracleOffNs] =
      pairedMinNsPerOp(30'000, chainTppProbes, oracleCheck(false));
  std::printf("self-gate: oracle_check_off %.1f / chain_tpp_probe_rtt %.1f "
              "ns/op = %.3f (bound 1.25)\n",
              oracleOffNs, probeNs, oracleOffNs / probeNs);
  if (oracleOffNs > probeNs * 1.25) {
    std::fprintf(stderr,
                 "FAIL: oracle_check_off %.1f ns/op exceeds 1.25x "
                 "chain_tpp_probe_rtt %.1f ns/op (fastest of %d alternating "
                 "rounds) — disarmed race oracle is not free\n",
                 oracleOffNs, probeNs, kGateRounds);
    return 1;
  }

  // The steady-state probe round trip is allocation-free end to end: the
  // prober clones a prebuilt frame from the packet pool, and the echo path
  // parses into reused host scratch. Gate it absolutely — allocation
  // counts are machine-independent, and a fresh vector anywhere on the
  // serialize/parse/echo path shows up as allocs/op >= 1 immediately.
  const auto probe = std::find_if(
      metrics.begin(), metrics.end(),
      [](const Metric& m) { return m.name == "chain_tpp_probe_rtt"; });
  if (probe != metrics.end() && probe->allocsPerOp > 0.5) {
    std::fprintf(stderr,
                 "FAIL: chain_tpp_probe_rtt at %.3f allocs/op — the probe "
                 "echo path must not allocate in steady state\n",
                 probe->allocsPerOp);
    return 1;
  }

  if (baseline != nullptr) {
    return checkAgainstBaseline(metrics, baseline, transitNs);
  }
  return 0;
}
