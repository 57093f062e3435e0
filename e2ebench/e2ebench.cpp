// End-to-end benchmark: builds one workload from the library's
// public pieces, times every call it makes into them, checks the run's
// outputs, and prints every metric as one JSON object on its last line.
//
//   e2ebench --scenario FILE.scn --seed N --seconds S --warmup-ms W
//              --window-ms L --slices K [--probe-interval-us P]
//              [--setups M] [--spans OUT.json]
//
// One "rep" is: set-up (topology build, schedule compile, launch of
// listeners, connections, controllers, probers and hooks), a warm-up of W
// simulated ms, a window of L simulated ms cut into K equal slices, then a
// drain until every flow has ended. Host time is taken only over set-up and
// the window, so every rep — and every commit — times the same simulated
// work. Reps repeat until S wall seconds have passed (at least kMinReps),
// each followed by M set-up-only reps. With --spans, one more rep records
// spans and replays each layer's hot call on the workload's own data. The
// correctness gate runs on every rep; the binary exits 1 without a metrics
// line if any check fails.

// GCC pairs the replaced operator delete with the default operator new and
// warns about free(); both are replaced here, so the pairing is
// malloc/free throughout.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/microburst.hpp"
#include "src/apps/task_ids.hpp"
#include "src/apps/tpp_tcp.hpp"
#include "src/core/hook.hpp"
#include "src/core/program.hpp"
#include "src/host/prober.hpp"
#include "src/host/tcp.hpp"
#include "src/host/topology.hpp"
#include "src/monitor/ground_truth.hpp"
#include "src/monitor/sketch.hpp"
#include "src/net/ethernet.hpp"
#include "src/tcpu/tcpu.hpp"
#include "src/workload/scenario.hpp"

// ------------------------------------------------------------------------
// Heap counting, switched on only around calls into the library, so the
// benchmark's own bookkeeping never lands in a count.
// ------------------------------------------------------------------------
namespace {
bool g_counting = false;
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting) ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
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
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace tpp;

// Counts the heap allocations made while it is alive into `*into`.
class CountAllocs {
 public:
  explicit CountAllocs(std::uint64_t* into) : into_(into), start_(g_allocs) {
    g_counting = true;
  }
  ~CountAllocs() {
    g_counting = false;
    *into_ += g_allocs - start_;
  }
  CountAllocs(const CountAllocs&) = delete;
  CountAllocs& operator=(const CountAllocs&) = delete;

 private:
  std::uint64_t* into_;
  std::uint64_t start_;
};

// Host time is this thread's CPU time: the simulator is single-threaded,
// and CPU time leaves out the intervals the OS gives to other processes on
// a shared machine, which wall time would add as noise.
double hostNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// (Q3 - Q1) / median with Python's statistics.quantiles(n=4) "exclusive"
// method, so the printed spread matches how runs are compared.
double iqrShare(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto quart = [&](double q) {
    const double pos = q * (n + 1) - 1;  // 0-based
    if (pos <= 0) return v.front();
    if (pos >= n - 1) return v.back();
    const auto lo = static_cast<std::size_t>(pos);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
  };
  const double med = median(v);
  return med == 0 ? 0.0 : (quart(0.75) - quart(0.25)) / med;
}

// ------------------------------------------------------------------ spans
struct Span {
  std::string name;
  double start = 0;  // wall seconds since the benchmark started
  double end = 0;
  int parent = -1;   // index into the span list, -1 = root
};

class SpanLog {
 public:
  explicit SpanLog(double epoch) : epoch_(epoch) { spans_.reserve(4096); }
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), wallNow() - epoch_, 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = wallNow() - epoch_;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double epoch_;
  std::vector<Span> spans_;
};

// RAII span; a null log records nothing (the untraced reps).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log ? log->open(name, parent) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------- options
struct Options {
  std::string scenario;
  std::uint64_t seed = 1;
  double seconds = 10;
  double warmupMs = 1;
  double windowMs = 4;
  std::size_t slices = 20;
  double probeIntervalUs = 0;  // 0 = no queue probers
  std::size_t setups = 0;      // set-up-only reps after each full rep
  std::string spansPath;
};

// The fixed port plan of the scenario runner: every destination listens on
// kServerPort; flow f binds kBasePort + f.
constexpr std::uint16_t kServerPort = 23000;
constexpr std::uint32_t kBasePort = 24000;

// Full reps every run makes, however short --seconds is: enough for the
// gate to compare reps inside one process and for a median of three.
constexpr std::size_t kMinReps = 3;

// Always-mapped address space for timing the TCPU alone, as bench_core
// does.
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

volatile std::uint64_t g_sink = 0;

// One walk of the speed anchor: a fixed loop of `loopWords` words, one in
// each of `loopWords` equal slots of a region of `regionWords` words,
// visited in a random cyclic order. Each step hashes the position, takes an
// unpredictable branch on the hash, and loads the next position through an
// index that depends on the hash, so hashing and loading are serial. Only
// the loop's pages of the region are ever touched.
class Walk {
 public:
  Walk(std::size_t loopWords, std::size_t regionWords, std::size_t steps,
       double nominalNsPerStep)
      : region_(new std::uint32_t[regionWords]),
        steps_(steps),
        nominalNsPerStep_(nominalNsPerStep) {
    std::uint64_t x = 88172645463325252ull;
    const auto rnd = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    const std::size_t slot = regionWords / loopWords;
    std::vector<std::uint32_t> at(loopWords);  // even word of each slot
    for (std::size_t i = 0; i < loopWords; ++i) {
      at[i] = static_cast<std::uint32_t>(i * slot + (rnd() % slot & ~1ull));
    }
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<std::uint32_t> order(loopWords);
    for (std::size_t i = 0; i < loopWords; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = loopWords - 1; i > 0; --i) {
      std::swap(order[i], order[rnd() % i]);
    }
    // Both words of a pair link to the successor, whichever the hash picks.
    const long page = sysconf(_SC_PAGESIZE);
    std::vector<std::uintptr_t> pages;
    for (std::size_t i = 0; i < loopWords; ++i) {
      const std::uint32_t w = at[order[i]];
      region_[w] = region_[w + 1] = at[order[(i + 1) % loopWords]];
      pages.push_back(reinterpret_cast<std::uintptr_t>(&region_[w]) /
                      static_cast<std::uintptr_t>(page));
    }
    std::sort(pages.begin(), pages.end());
    residentBytes_ = static_cast<std::size_t>(
        std::unique(pages.begin(), pages.end()) - pages.begin()) *
        static_cast<std::size_t>(page);
    pos_ = at[0];
  }

  // Host ns per step of one walk.
  double run() {
    const double t0 = hostNow();
    std::uint32_t p = pos_;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < steps_; ++i) {
      std::uint64_t h = p * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
      h *= 0xBF58476D1CE4E5B9ull;
      h ^= h >> 32;
      if ((h & 3) == 0) {
        acc += h;
      } else {
        acc ^= h >> 7;
      }
      p = region_[p ^ static_cast<std::uint32_t>(h & 1)];
    }
    pos_ = p;
    g_sink = g_sink + acc;
    return (hostNow() - t0) * 1e9 / static_cast<double>(steps_);
  }

  double nominalNsPerStep() const { return nominalNsPerStep_; }
  // The pages of the region the loop keeps resident.
  std::size_t residentBytes() const { return residentBytes_; }

 private:
  std::unique_ptr<std::uint32_t[]> region_;  // left uninitialised
  std::size_t steps_;
  double nominalNsPerStep_;
  std::size_t residentBytes_ = 0;
  std::uint32_t pos_ = 0;
};

// The speed anchor. On a shared machine other tenants slow every loop by
// up to 2x, in phases from seconds to minutes, and CPU time does not
// exclude that. The anchor is fixed code that never calls the library: two
// walks timed right before and right after each measured interval. The
// `core` walk loops over 512 words of 1 MiB, which stay in L1: it tracks
// the core's own speed. The `tlb` walk loops over 4096 words spread over
// 128 MiB, each on its own page, so every step misses the TLB: it tracks
// address translation and the shared caches. The interval's host time is
// rescaled by the product of the two walks' nominal / measured speeds (each
// the mean of before and after), raised to kExponent: between runs the
// simulator slowed about as much as the product, but each walk also has
// noise of its own, which full correction would add. A change to the
// library cannot move the anchor, so it cannot move the scale either.
class Anchor {
 public:
  struct Reading {
    double coreNs = 0, tlbNs = 0;  // host ns per step
  };

  // Chosen from seven sets of five to ten runs, in calm and in noisy
  // stretches of the machine: 1 left calm sets up to 17 % apart and 1/2
  // noisy ones up to 13 %; 3/4 kept every set within 12 % (README.md).
  static constexpr double kExponent = 0.75;

  Reading read() { return {core_.run(), tlb_.run()}; }

  static Reading mean(const Reading& a, const Reading& b) {
    return {0.5 * (a.coreNs + b.coreNs), 0.5 * (a.tlbNs + b.tlbNs)};
  }

  // The factor that rescales an interval's host time to the nominal speeds,
  // given the mean reading around it.
  double scale(const Reading& around) const {
    return std::pow(core_.nominalNsPerStep() / around.coreNs *
                        (tlb_.nominalNsPerStep() / around.tlbNs),
                    kExponent);
  }

  std::size_t residentBytes() const {
    return core_.residentBytes() + tlb_.residentBytes();
  }

 private:
  Walk core_{512, std::size_t{1} << 18, 100000, 10.0};
  Walk tlb_{4096, std::size_t{1} << 25, 40000, 100.0};
};

// ----------------------------------------------------------- rep results
// Everything a rep simulated. Identical at a fixed seed across reps and
// between traced and untraced reps — the gate compares these.
struct SimOutputs {
  std::uint64_t flows = 0, finished = 0, failed = 0, stuck = 0;
  std::uint64_t badDelivery = 0;  // finished flows with wrong bytes/pattern
  std::int64_t fctP50Ns = 0, fctP99Ns = 0, fctMaxNs = 0;
  std::uint64_t flowDigest = 0;
  std::uint64_t windowEvents = 0, totalEvents = 0;
  std::uint64_t tpps = 0, instrs = 0, decodeHits = 0, decodeMisses = 0;
  std::uint64_t hooks = 0, forwarded = 0, queueDrops = 0;
  std::uint64_t tcpRetransmits = 0, tcpRtoFires = 0, dataSegments = 0;
  std::uint64_t ctrlProbes = 0, ctrlLosses = 0, ctrlOutstanding = 0;
  std::uint64_t cwndCuts = 0;
  std::uint64_t qProbes = 0, qLosses = 0, qOutstanding = 0;
  std::uint64_t sketchChecks = 0, sketchUnder = 0, sketchEps = 0,
                sketchAllowed = 0;
  std::uint64_t l3EntriesCore = 0;

  bool operator==(const SimOutputs&) const = default;
};

struct RepTiming {
  // Host seconds rescaled by the anchor; raw* are as measured.
  double setupS = 0, buildS = 0, compileS = 0, launchS = 0, rawSetupS = 0;
  std::uint64_t setupAllocs = 0;
  std::vector<double> sliceS, rawSliceS;  // per window slice
  std::vector<Anchor::Reading> anchor;    // per window slice
  std::uint64_t windowAllocs = 0;
  double auditS = 0;
};

struct Replays {
  double l3CoreNs = 0, l3EdgeNs = 0, executeNs = 0, residentNs = 0,
         estimateNs = 0;
};

struct Rep {
  SimOutputs out;
  RepTiming t;
  Replays replay;
  std::vector<std::string> gateErrors;
};

std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

std::int64_t nearestRank(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  idx = idx == 0 ? 0 : idx - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Times `fn(iters)` over several rounds; returns the median ns per op.
template <typename Fn>
double timePerOp(std::uint64_t opsPerRound, Fn&& fn) {
  std::vector<double> perOp;
  for (int round = 0; round < 7; ++round) {
    const double t0 = hostNow();
    fn();
    perOp.push_back((hostNow() - t0) * 1e9 /
                    static_cast<double>(opsPerRound));
  }
  return median(perOp);
}

// One execute() per call on a frame of `program`, resetting the mutable
// header so every call is hop 0 at the initial stack pointer.
double timeExecute(const core::Program& program) {
  auto packet = core::buildTppFrame(net::MacAddress::fromIndex(1),
                                    net::MacAddress::fromIndex(2), program);
  auto view = core::TppView::at(*packet, net::kEthernetHeaderSize);
  if (!view) return 0;
  const std::uint16_t sp0 = view->stackPointer();
  constexpr std::uint64_t kExecs = 20000;
  FlatMemory mem;
  tcpu::Tcpu tcpu;
  return timePerOp(kExecs, [&] {
    for (std::uint64_t i = 0; i < kExecs; ++i) {
      const auto report = tcpu.execute(*view, mem);
      g_sink = g_sink + report.executed;
      view->setStackPointer(sp0);
      view->setHopNumber(0);
    }
  });
}

// §2.1 queue probes (apps::makeQueueProbeProgram, the MicroburstMonitor's
// program) sent every `interval` through a ReliableProber, so a probe
// dropped in the storm's queue is retransmitted; it counts as lost only if
// every copy is dropped.
struct QueueProber {
  QueueProber(host::Host& from, host::Host& to, sim::Time interval)
      : prober(from, {.dstMac = to.mac(),
                      .dstIp = to.ip(),
                      .timeout = sim::Time::ms(1),
                      .maxBackoff = sim::Time::ms(8),
                      .maxRetries = 3}),
        program(apps::makeQueueProbeProgram()),
        clock(from.simulator()),
        interval(interval) {}

  void start(sim::Time at) {
    running = true;
    timer = clock.scheduleAt(at, [this] { tick(); });
  }
  void stop() {
    running = false;
    timer.cancel();
  }
  void tick() {
    if (!running) return;
    prober.send(program, [](const core::ExecutedTpp&) {});
    timer = clock.schedule(interval, [this] { tick(); });
  }

  host::ReliableProber prober;
  core::Program program;
  sim::Simulator& clock;
  sim::Time interval;
  bool running = false;
  sim::EventHandle timer;
};

// ------------------------------------------------------------------- rep
struct Flow {
  std::unique_ptr<host::TcpConnection> conn;
  std::unique_ptr<apps::TppTcpController> ctrl;
  sim::Time completion = sim::Time::zero();
  bool failed = false;
};

// What one rep builds: the testbed and everything launched on it. The
// testbed is declared first so it is destroyed last.
struct Build {
  std::unique_ptr<host::Testbed> tb;
  host::FatTreeIndex index;
  std::vector<workload::FlowPlan> plans;
  std::vector<Flow> flows;  // sized once: callbacks hold element pointers
  std::vector<std::unique_ptr<host::TcpListener>> listeners;
  std::vector<host::TcpListener*> listenerOf;  // by host index
  std::vector<std::unique_ptr<QueueProber>> queueProbers;
  monitor::CountMinSketch sketch;
  std::vector<std::unique_ptr<monitor::GroundTruthCounter>> truth;
  std::vector<std::uint16_t> sketchBases;  // per switch
};

// Set-up: everything from parsed config to the first simulated event.
void setUp(Build& b, const workload::ScenarioConfig& c, const Options& o,
           Anchor& anchor, Rep& rep, SpanLog* spans, int repSpan) {
  RepTiming& t = rep.t;
  const Anchor::Reading anchorBefore = anchor.read();
  const double setupStart = hostNow();
  const int setupSpan = spans ? spans->open("setup", repSpan) : -1;

  asic::SwitchConfig swCfg;
  swCfg.bufferPerQueueBytes = c.bufferKb * 1024;
  if (c.ecnThresholdKb != 0) swCfg.ecnThresholdBytes = c.ecnThresholdKb * 1024;
  swCfg.hookStride = c.sketchStride;
  host::LinkParams lp;
  lp.rateBps = static_cast<std::uint64_t>(c.linkGbps * 1e9);
  lp.delay = sim::Time::seconds(c.linkDelayUs * 1e-6);

  {
    Scope s(spans, "host.buildFatTree", setupSpan);
    const double t0 = hostNow();
    CountAllocs count(&t.setupAllocs);
    b.tb = std::make_unique<host::Testbed>();
    b.index = host::buildFatTree(*b.tb, c.k, lp, swCfg);
    t.buildS = hostNow() - t0;
  }
  host::Testbed& tb = *b.tb;

  {
    Scope s(spans, "workload.compileSchedule", setupSpan);
    const double t0 = hostNow();
    CountAllocs count(&t.setupAllocs);
    b.plans = workload::compileSchedule(c);
    t.compileS = hostNow() - t0;
  }

  const auto& plans = b.plans;
  b.flows.resize(plans.size());
  b.listenerOf.assign(c.hostCount(), nullptr);
  b.sketch = monitor::CountMinSketch(
      {.taskId = apps::kTaskSketch,
       .rows = static_cast<std::uint32_t>(c.sketchRows),
       .width = static_cast<std::uint32_t>(c.sketchWidth)});
  auto& flows = b.flows;
  auto& listeners = b.listeners;
  auto& listenerOf = b.listenerOf;
  auto& queueProbers = b.queueProbers;
  const auto& sketch = b.sketch;
  auto& truth = b.truth;
  auto& sketchBases = b.sketchBases;
  {
    const double t0 = hostNow();
    const int launchSpan = spans ? spans->open("host.launch", setupSpan) : -1;
    host::TcpConnection::Config connCfg;
    connCfg.mss = c.mss;
    {
      Scope s(spans, "host.TcpListener", launchSpan);
      CountAllocs count(&t.setupAllocs);
      for (const auto& p : plans) {
        if (listenerOf[p.dst] != nullptr) continue;
        listeners.push_back(std::make_unique<host::TcpListener>(
            tb.host(p.dst), kServerPort, connCfg));
        listenerOf[p.dst] = listeners.back().get();
      }
    }
    {
      Scope s(spans, "host.TcpConnection+apps.TppTcpController", launchSpan);
      CountAllocs count(&t.setupAllocs);
      apps::TppTcpController::Config ctrlCfg;
      ctrlCfg.queueThresholdBytes =
          static_cast<std::uint32_t>(c.queueThresholdKb * 1024);
      for (std::size_t f = 0; f < plans.size(); ++f) {
        const auto& p = plans[f];
        Flow& fl = flows[f];
        host::Host& sender = tb.host(p.src);
        host::Host& receiver = tb.host(p.dst);
        fl.conn = std::make_unique<host::TcpConnection>(sender, connCfg);
        host::TcpConnection* raw = fl.conn.get();
        Flow* rec = &fl;
        raw->onClosed([rec, raw] {
          rec->completion = raw->closedAt().value_or(sim::Time::zero());
        });
        raw->onError([rec](const std::string&) { rec->failed = true; });
        if (c.tppController && f < c.maxControllers) {
          fl.ctrl = std::make_unique<apps::TppTcpController>(sender, *raw,
                                                             ctrlCfg);
        }
        apps::TppTcpController* ctrl = fl.ctrl.get();
        const auto port = static_cast<std::uint16_t>(kBasePort + f);
        const net::MacAddress dstMac = receiver.mac();
        const net::Ipv4Address dstIp = receiver.ip();
        const std::uint64_t bytes = p.bytes;
        const sim::Time arrival = p.arrival;
        sender.simulator().scheduleAt(
            arrival, [raw, ctrl, dstMac, dstIp, port, bytes, arrival] {
              raw->connect(dstMac, dstIp, kServerPort, port, bytes);
              if (ctrl != nullptr) ctrl->start(arrival);
            });
      }
    }
    if (o.probeIntervalUs > 0 && !plans.empty()) {
      // §2.1 micro-burst queue probes from every other host toward the
      // storm's victim (the first flow's receiver), start times spread over
      // one interval so hosts do not probe in lockstep.
      Scope s(spans, "host.ReliableProber+apps.makeQueueProbeProgram",
              launchSpan);
      CountAllocs count(&t.setupAllocs);
      const std::size_t victim = plans.front().dst;
      const sim::Time interval = sim::Time::seconds(o.probeIntervalUs * 1e-6);
      const auto n = static_cast<std::int64_t>(tb.hostCount());
      for (std::int64_t h = 0; h < n; ++h) {
        if (static_cast<std::size_t>(h) == victim) continue;
        host::Host& from = tb.host(static_cast<std::size_t>(h));
        queueProbers.push_back(std::make_unique<QueueProber>(
            from, tb.host(victim), interval));
        queueProbers.back()->start(sim::Time::ns(interval.nanos() * h / n));
      }
    }
    if (c.monitorSketch) {
      // Per switch: the sketch task's SRAM grant, its threshold register,
      // the resident count-min update hook, and the exact ground truth.
      Scope s(spans, "monitor.CountMinSketch+Switch.installHook", launchSpan);
      CountAllocs count(&t.setupAllocs);
      for (std::size_t si = 0; si < tb.switchCount(); ++si) {
        asic::Switch& sw = tb.sw(si);
        const auto grant = sw.sramAllocator().allocate(
            apps::kTaskSketch, sketch.words(), core::StatNamespace::Sram);
        if (!grant) {
          rep.gateErrors.push_back("sketch grant does not fit switch " +
                                   std::to_string(si));
          break;
        }
        const std::uint16_t base = grant->baseAddress();
        sw.scratchWrite(static_cast<std::uint16_t>(
                            base + monitor::CountMinSketch::kThresholdWord),
                        static_cast<std::uint32_t>(c.hhThresholdPkts));
        sw.installHook(sketch.updateHook(base));
        truth.push_back(std::make_unique<monitor::GroundTruthCounter>());
        sw.setEgressInterceptor(truth.back().get());
        sketchBases.push_back(base);
      }
    }
    if (spans) spans->close(launchSpan);
    t.launchS = hostNow() - t0;
  }
  if (spans) spans->close(setupSpan);
  t.rawSetupS = hostNow() - setupStart;
  {
    const double k =
        anchor.scale(Anchor::mean(anchorBefore, anchor.read()));
    t.setupS = t.rawSetupS * k;
    t.buildS *= k;
    t.compileS *= k;
    t.launchS *= k;
  }
  rep.out.l3EntriesCore = tb.sw(b.index.coreSw(0)).l3().size();
}

// Warm-up, the timed window, then the drain.
void runSim(Build& b, const Options& o, Anchor& anchor, Rep& rep,
            SpanLog* spans, int repSpan) {
  host::Testbed& tb = *b.tb;
  RepTiming& t = rep.t;
  SimOutputs& out = rep.out;

  // ------------------------------------------------------------ counters
  struct SwitchTotals {
    std::uint64_t tpps = 0, instrs = 0, hits = 0, misses = 0, hooks = 0,
                  fwd = 0, drops = 0;
  };
  const auto totals = [&tb] {
    SwitchTotals s;
    for (std::size_t i = 0; i < tb.switchCount(); ++i) {
      const asic::Switch& sw = tb.sw(i);
      s.tpps += sw.stats().tppsExecuted;
      s.instrs += sw.tcpu().instructionsExecuted();
      s.hits += sw.tcpu().decodeCacheHits();
      s.misses += sw.tcpu().decodeCacheMisses();
      s.hooks += sw.hookExecutions();
      s.fwd += sw.stats().totalTxPackets;
      s.drops += sw.stats().totalDrops;
    }
    return s;
  };

  // ------------------------------------------------------ warm-up, window
  const sim::Time warmEnd = sim::Time::seconds(o.warmupMs * 1e-3);
  {
    Scope s(spans, "sim.warmup", repSpan);
    out.totalEvents += tb.run(warmEnd);
  }
  const SwitchTotals before = totals();
  const std::int64_t windowNs = std::llround(o.windowMs * 1e6);
  t.sliceS.reserve(o.slices);
  t.rawSliceS.reserve(o.slices);
  t.anchor.reserve(o.slices);
  const int windowSpan = spans ? spans->open("sim.window", repSpan) : -1;
  // Slice i's walk before it is slice i-1's walk after.
  Anchor::Reading anchorBefore = anchor.read();
  for (std::size_t i = 0; i < o.slices; ++i) {
    const sim::Time until =
        warmEnd + sim::Time::ns(windowNs * static_cast<std::int64_t>(i + 1) /
                                static_cast<std::int64_t>(o.slices));
    std::uint64_t ev = 0;
    const double t0 = hostNow();
    {
      Scope s(spans, "sim.slice", windowSpan);
      CountAllocs count(&t.windowAllocs);
      ev = tb.run(until);
    }
    const double raw = hostNow() - t0;
    const Anchor::Reading anchorAfter = anchor.read();
    const Anchor::Reading around = Anchor::mean(anchorBefore, anchorAfter);
    anchorBefore = anchorAfter;
    t.rawSliceS.push_back(raw);
    t.sliceS.push_back(raw * anchor.scale(around));
    t.anchor.push_back(around);
    out.windowEvents += ev;
  }
  if (spans) spans->close(windowSpan);
  out.totalEvents += out.windowEvents;
  const SwitchTotals after = totals();
  out.tpps = after.tpps - before.tpps;
  out.instrs = after.instrs - before.instrs;
  out.decodeHits = after.hits - before.hits;
  out.decodeMisses = after.misses - before.misses;
  out.hooks = after.hooks - before.hooks;
  out.forwarded = after.fwd - before.fwd;

  // -------------------------------------------------------------- drain
  // Queue probers stop with the window; flows then run to completion (the TCP
  // give-up path bounds stragglers), and the event queue to empty so every
  // probe in flight is answered or dropped.
  {
    Scope s(spans, "sim.drain", repSpan);
    for (auto& q : b.queueProbers) q->stop();
    const auto allDone = [&b] {
      for (const Flow& f : b.flows) {
        if (f.completion == sim::Time::zero() && !f.failed) return false;
      }
      return true;
    };
    const sim::Time ceiling = sim::Time::sec(30);
    sim::Time deadline = warmEnd + sim::Time::ns(windowNs);
    while (!allDone() && deadline < ceiling) {
      deadline = deadline + sim::Time::ms(1);
      out.totalEvents += tb.run(deadline);
    }
    out.totalEvents += tb.run(ceiling);
  }
  out.queueDrops = totals().drops;
}

// Flow and probe outcomes of a drained rep.
void collectOutcomes(const Build& b, const workload::ScenarioConfig& c,
                     SimOutputs& out) {
  host::Testbed& tb = *b.tb;
  const auto& plans = b.plans;
  const auto& flows = b.flows;
  std::vector<std::int64_t> fcts;
  std::uint64_t digest = 1469598103934665603ull;
  out.flows = flows.size();
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Flow& fl = flows[f];
    const auto& p = plans[f];
    digest =
        fnvMix(digest, static_cast<std::uint64_t>(fl.completion.nanos()));
    digest = fnvMix(digest, fl.failed ? 1 : 0);
    out.tcpRetransmits += fl.conn->retransmits();
    out.tcpRtoFires += fl.conn->rtoFires();
    if (fl.ctrl) {
      out.ctrlProbes += fl.ctrl->probesSent();
      out.ctrlLosses += fl.ctrl->probeLosses();
      out.cwndCuts += fl.ctrl->probeCuts();
      if (fl.ctrl->probesSent() > 0) {
        out.ctrlOutstanding += fl.ctrl->prober().outstanding();
      }
    }
    if (fl.failed) {
      ++out.failed;
      continue;
    }
    if (fl.completion == sim::Time::zero()) {
      ++out.stuck;
      continue;
    }
    ++out.finished;
    out.dataSegments += (p.bytes + c.mss - 1) / c.mss;
    fcts.push_back((fl.completion - p.arrival).nanos());
    // The receiving side of this flow: the dst listener's connection from
    // the sender's IP and port (the last one, if a failed one was
    // displaced by a fresh SYN).
    const host::TcpConnection* rx = nullptr;
    host::TcpListener* l = b.listenerOf[p.dst];
    const auto port = static_cast<std::uint16_t>(kBasePort + f);
    for (std::size_t i = 0; l != nullptr && i < l->connectionCount(); ++i) {
      const host::TcpConnection& cand = l->connection(i);
      if (cand.remotePort() == port &&
          cand.remoteIp() == tb.host(p.src).ip()) {
        rx = &cand;
      }
    }
    if (rx == nullptr || rx->deliveredBytes() != p.bytes ||
        rx->patternErrors() != 0) {
      ++out.badDelivery;
    }
  }
  for (const auto& l : b.listeners) {
    for (std::size_t i = 0; i < l->connectionCount(); ++i) {
      out.tcpRetransmits += l->connection(i).retransmits();
      out.tcpRtoFires += l->connection(i).rtoFires();
    }
  }
  std::sort(fcts.begin(), fcts.end());
  out.fctP50Ns = nearestRank(fcts, 0.50);
  out.fctP99Ns = nearestRank(fcts, 0.99);
  out.fctMaxNs = fcts.empty() ? 0 : fcts.back();
  out.flowDigest = digest;
  for (const auto& q : b.queueProbers) {
    out.qProbes += q->prober.probesSent();
    out.qLosses += q->prober.losses();
    out.qOutstanding += q->prober.outstanding();
  }
}

// The count-min audit: every (switch, flow) estimate read out of scratch
// SRAM against that switch's exact count.
void auditSketch(const Build& b, const workload::ScenarioConfig& c, Rep& rep,
                 SpanLog* spans, int repSpan) {
  host::Testbed& tb = *b.tb;
  const auto& sketch = b.sketch;
  const auto& truth = b.truth;
  const auto& sketchBases = b.sketchBases;
  SimOutputs& out = rep.out;
  if (c.monitorSketch && truth.size() == tb.switchCount()) {
    Scope s(spans, "monitor.audit", repSpan);
    const double t0 = hostNow();
    const std::uint32_t stride = std::max<std::uint32_t>(1, c.sketchStride);
    for (std::size_t si = 0; si < tb.switchCount(); ++si) {
      asic::Switch& sw = tb.sw(si);
      const double epsN = sketch.epsilon() *
                          static_cast<double>(truth[si]->eligiblePackets());
      std::vector<std::pair<std::uint64_t, std::uint64_t>> counts(
          truth[si]->flows().size());
      std::size_t n = 0;
      for (const auto& [hash, fc] : truth[si]->flows()) {
        counts[n++] = {hash, fc.packets};
      }
      std::sort(counts.begin(), counts.end());
      const auto readWord = [&sw](std::uint16_t a) {
        return sw.scratchRead(a);
      };
      for (const auto& [hash, pkts] : counts) {
        const auto est =
            sketch.estimate(readWord, sketchBases[si], hash, stride);
        if (!est) continue;
        ++out.sketchChecks;
        if (*est < pkts) ++out.sketchUnder;
        if (static_cast<double>(*est) > static_cast<double>(pkts) + epsN) {
          ++out.sketchEps;
        }
      }
    }
    // The scenario runner's allowance: the analytic tail at delta with 3x
    // slack for the finite sample.
    out.sketchAllowed = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(3.0 * sketch.delta() *
                       static_cast<double>(out.sketchChecks))));
    rep.t.auditS = hostNow() - t0;
  }
}

// The correctness gate of one rep.
void checkGate(const workload::ScenarioConfig& c, Rep& rep) {
  const SimOutputs& out = rep.out;
  const auto fail = [&rep](std::string why) {
    rep.gateErrors.push_back(std::move(why));
  };
  if (out.stuck != 0) fail(std::to_string(out.stuck) + " flows stuck");
  if (out.badDelivery != 0) {
    fail(std::to_string(out.badDelivery) +
         " finished flows delivered wrong bytes or pattern errors");
  }
  if (out.finished == 0) fail("no flow finished");
  if (out.ctrlOutstanding != 0) {
    fail(std::to_string(out.ctrlOutstanding) +
         " controller probes neither answered nor counted lost");
  }
  if (out.qOutstanding != 0) {
    fail(std::to_string(out.qOutstanding) +
         " queue probes neither answered nor counted lost");
  }
  if (c.monitorSketch) {
    if (out.sketchChecks == 0) fail("sketch audit made no checks");
    if (c.sketchStride == 1 && out.sketchUnder != 0) {
      fail("count-min underestimated a flow");
    }
    if (out.sketchEps > out.sketchAllowed) {
      fail("count-min eps-violations " + std::to_string(out.sketchEps) +
           " > allowed " + std::to_string(out.sketchAllowed));
    }
  }
}

// Each layer's hot call, replayed on this workload's own data.
Replays replayLayers(const Build& b, const workload::ScenarioConfig& c,
                     const Options& o, const SimOutputs& out, SpanLog* spans,
                     int repSpan) {
  host::Testbed& tb = *b.tb;
  const auto& index = b.index;
  const auto& plans = b.plans;
  const auto& sketch = b.sketch;
  const auto& truth = b.truth;
  const auto& sketchBases = b.sketchBases;
  Replays r;
  {
    Scope s(spans, "replay.asic.L3LpmTable::match", repSpan);
    std::vector<std::pair<net::Ipv4Address, std::uint64_t>> keys;
    for (std::size_t f = 0; f < plans.size(); ++f) {
      const auto src = tb.host(plans[f].src).ip();
      const auto dst = tb.host(plans[f].dst).ip();
      const auto port = static_cast<std::uint16_t>(kBasePort + f);
      keys.emplace_back(
          dst, asic::ecmpFlowHash(src, dst, 17, port, kServerPort));
    }
    const auto timeTable = [&keys](const asic::L3LpmTable& table) {
      const std::uint64_t reps =
          std::max<std::uint64_t>(1, 20000 / keys.size());
      return timePerOp(reps * keys.size(), [&] {
        std::uint64_t acc = 0;
        for (std::uint64_t k = 0; k < reps; ++k) {
          for (const auto& [dst, hash] : keys) {
            const auto m = table.match(dst, hash);
            acc += m ? m->outPort : 0;
          }
        }
        g_sink = g_sink + acc;
      });
    };
    if (!keys.empty()) {
      r.l3CoreNs = timeTable(tb.sw(index.coreSw(0)).l3());
      r.l3EdgeNs = timeTable(tb.sw(index.edgeSw(0, 0)).l3());
    }
  }
  if (c.tppController || o.probeIntervalUs > 0) {
    Scope s(spans, "replay.tcpu.Tcpu::execute", repSpan);
    // The workload's own wire programs, weighted by how many it sent.
    double ns = 0;
    double weight = 0;
    if (out.ctrlProbes > 0) {
      const auto prog = host::ReliableProber::tagged(
          apps::makeTcpCongestionProbeProgram(), 1);
      ns += timeExecute(prog) * static_cast<double>(out.ctrlProbes);
      weight += static_cast<double>(out.ctrlProbes);
    }
    if (out.qProbes > 0) {
      const auto prog =
          host::ReliableProber::tagged(apps::makeQueueProbeProgram(), 1);
      ns += timeExecute(prog) * static_cast<double>(out.qProbes);
      weight += static_cast<double>(out.qProbes);
    }
    r.executeNs = weight > 0 ? ns / weight : 0;
  }
  if (c.monitorSketch && !truth.empty()) {
    // The sketch hook, materialized for the flows the first edge switch
    // actually saw, run resident against flat memory.
    Scope s(spans, "replay.tcpu.Tcpu::executeResident", repSpan);
    const auto hook = sketch.updateHook(sketchBases.front());
    std::vector<std::uint64_t> hashes;
    for (const auto& [hash, fc] : truth[index.edgeSw(0, 0)]->flows()) {
      hashes.push_back(hash);
    }
    std::sort(hashes.begin(), hashes.end());
    if (hashes.size() > 256) hashes.resize(256);
    std::vector<core::Program> progs;
    for (const std::uint64_t h : hashes) {
      progs.push_back(core::materializeHook(hook, 0, h));
    }
    std::vector<std::uint32_t> pmem;
    FlatMemory mem;
    tcpu::Tcpu tcpu;
    const std::size_t n = std::max<std::size_t>(1, progs.size());
    const std::uint64_t reps = std::max<std::size_t>(1, 20000 / n);
    r.residentNs = progs.empty() ? 0 : timePerOp(reps * progs.size(), [&] {
      for (std::uint64_t k = 0; k < reps; ++k) {
        for (const auto& p : progs) {
          pmem.assign(p.pmemWords, 0u);
          std::copy(p.initialPmem.begin(), p.initialPmem.end(),
                    pmem.begin());
          const auto res = tcpu.executeResident(p.instructions, pmem,
                                                 p.taskId, mem, p.initialSp);
          g_sink = g_sink + res.executed;
        }
      }
    });

    Scope s2(spans, "replay.monitor.CountMinSketch::estimate", repSpan);
    asic::Switch& sw = tb.sw(index.edgeSw(0, 0));
    const auto readWord = [&sw](std::uint16_t a) {
      return sw.scratchRead(a);
    };
    const std::uint16_t base = sketchBases[index.edgeSw(0, 0)];
    r.estimateNs = hashes.empty() ? 0 : timePerOp(reps * hashes.size(), [&] {
      std::uint64_t acc = 0;
      for (std::uint64_t k = 0; k < reps; ++k) {
        for (const std::uint64_t h : hashes) {
          acc += sketch.estimate(readWord, base, h).value_or(0);
        }
      }
      g_sink = g_sink + acc;
    });
  }
  return r;
}

// Builds, runs and audits one rep. `simulate` = false stops after set-up.
Rep runRep(const workload::ScenarioConfig& c, const Options& o,
           Anchor& anchor, bool simulate, SpanLog* spans, int repSpan) {
  Rep rep;
  Build b;
  setUp(b, c, o, anchor, rep, spans, repSpan);
  if (!simulate) return rep;
  runSim(b, o, anchor, rep, spans, repSpan);
  collectOutcomes(b, c, rep.out);
  auditSketch(b, c, rep, spans, repSpan);
  checkGate(c, rep);
  if (spans != nullptr) {
    rep.replay = replayLayers(b, c, o, rep.out, spans, repSpan);
  }
  return rep;
}

double medianOf(const std::vector<Rep>& reps, double RepTiming::*field) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.t.*field);
  return median(v);
}

// ------------------------------------------------------------------ json
class Json {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(key, buf);
  }
  void str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') q += '\\';
      q += ch;
    }
    add(key, q + "\"");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + v;
  }
  std::string body_;
};

bool parseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--scenario") o.scenario = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v);
    else if (k == "--warmup-ms") o.warmupMs = std::atof(v);
    else if (k == "--window-ms") o.windowMs = std::atof(v);
    else if (k == "--slices") o.slices = std::strtoull(v, nullptr, 10);
    else if (k == "--probe-interval-us") o.probeIntervalUs = std::atof(v);
    else if (k == "--setups") o.setups = std::strtoull(v, nullptr, 10);
    else if (k == "--spans") o.spansPath = v;
    else return false;
  }
  return argc % 2 == 1 && !o.scenario.empty() && o.slices > 0 &&
         o.windowMs > 0 && o.warmupMs >= 0;
}

bool writeSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d}%s\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parseArgs(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: e2ebench --scenario FILE --seed N --seconds S "
                 "--warmup-ms W --window-ms L --slices K "
                 "[--probe-interval-us P] [--setups M] "
                 "[--spans OUT]\n");
    return 2;
  }
  const auto parsed = workload::parseScenarioFile(o.scenario);
  if (!parsed.ok) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", o.scenario.c_str(),
                 parsed.error.c_str());
    return 2;
  }
  workload::ScenarioConfig c = parsed.config;
  c.seed = o.seed;
  if (c.topology != workload::TopologyType::FatTree || c.shards != 1) {
    std::fprintf(stderr, "e2ebench: needs a single-shard fat tree\n");
    return 2;
  }

  const double runStart = wallNow();
  Anchor anchor;
  std::vector<Rep> reps;
  std::vector<double> setups, rawSetups;
  // Set-up-only reps are interleaved with the full ones, so set-up is
  // sampled across the whole run rather than in one stretch of it.
  while (reps.size() < kMinReps ||
         (wallNow() - runStart < o.seconds && reps.size() < 200)) {
    reps.push_back(runRep(c, o, anchor, true, nullptr, -1));
    setups.push_back(reps.back().t.setupS);
    rawSetups.push_back(reps.back().t.rawSetupS);
    for (std::size_t i = 0; i < o.setups; ++i) {
      const Rep setupOnly = runRep(c, o, anchor, false, nullptr, -1);
      setups.push_back(setupOnly.t.setupS);
      rawSetups.push_back(setupOnly.t.rawSetupS);
    }
  }
  // With --spans, one more rep records spans and replays each layer's hot
  // call; its simulated outputs must equal the untraced reps'.
  SpanLog spanLog(runStart);
  std::optional<Rep> traced;
  if (!o.spansPath.empty()) {
    const int tracedSpan = spanLog.open("rep.traced", -1);
    traced = runRep(c, o, anchor, true, &spanLog, tracedSpan);
    spanLog.close(tracedSpan);
  }
  const Rep& tr = traced ? *traced : reps[0];

  // ---------------------------------------------------------------- gate
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const std::string rep = "rep " + std::to_string(i);
    for (const auto& e : reps[i].gateErrors) errors.push_back(rep + ": " + e);
    if (!(reps[i].out == reps[0].out)) {
      errors.push_back(rep + " simulated different outputs than rep 0");
    }
  }
  for (const auto& e : tr.gateErrors) errors.push_back("traced rep: " + e);
  if (!(tr.out == reps[0].out)) {
    errors.push_back(
        "traced rep simulated different outputs than the untraced reps");
  }
  if (!errors.empty()) {
    for (const auto& e : errors) {
      std::fprintf(stderr, "e2ebench: gate: %s\n", e.c_str());
    }
    return 1;
  }
  if (!o.spansPath.empty() && !writeSpans(o.spansPath, spanLog.spans())) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n",
                 o.spansPath.c_str());
    return 1;
  }

  // ------------------------------------------------------------- metrics
  const SimOutputs& out = reps[0].out;
  const double windowUs = o.windowMs * 1e3;
  // Each slice is the same simulated work in every rep: take each slice's
  // median (anchor-scaled) host time across reps, and sum.
  std::vector<double> ratios;  // slice time / that slice's median, all reps
  std::vector<double> coreNs, tlbNs;  // anchor walks, every slice
  double windowS = 0;
  double rawWindowS = 0;
  for (std::size_t i = 0; i < o.slices; ++i) {
    std::vector<double> across, rawAcross;
    for (const Rep& r : reps) {
      across.push_back(r.t.sliceS[i]);
      rawAcross.push_back(r.t.rawSliceS[i]);
      coreNs.push_back(r.t.anchor[i].coreNs);
      tlbNs.push_back(r.t.anchor[i].tlbNs);
    }
    const double med = median(across);
    windowS += med;
    rawWindowS += median(rawAcross);
    for (const double v : across) ratios.push_back(med > 0 ? v / med : 1.0);
  }
  std::vector<double> repRates;
  for (const Rep& r : reps) {
    double s = 0;
    for (const double v : r.t.sliceS) s += v;
    repRates.push_back(windowUs / s);
  }
  double tracedWindowS = 0;
  for (const double v : tr.t.sliceS) tracedWindowS += v;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  const double simUsPerS = windowUs / windowS;
  const double setupS = median(setups);
  const auto totalSent = out.dataSegments + out.tcpRetransmits;
  const auto probesSent = out.ctrlProbes + out.qProbes;
  const auto probesLost = out.ctrlLosses + out.qLosses;

  std::printf("workload %s seed %llu: %zu reps, %zu set-ups\n",
              c.name.c_str(), static_cast<unsigned long long>(o.seed),
              reps.size(), setups.size());
  std::printf("  anchor core %.2f ns/step, tlb %.1f ns/step (spread over "
              "slices %.1f%%, %.1f%%)\n",
              median(coreNs), median(tlbNs), 100 * iqrShare(coreNs),
              100 * iqrShare(tlbNs));
  std::printf("  setup_s %.6f  (spread over set-ups %.1f%%; unscaled %.6f, "
              "spread %.1f%%)\n",
              setupS, 100 * iqrShare(setups), median(rawSetups),
              100 * iqrShare(rawSetups));
  std::printf("  sim_us_per_s %.2f  (per-slice spread %.1f%%, per-rep spread "
              "%.1f%%; unscaled %.2f)\n",
              simUsPerS, 100 * iqrShare(ratios), 100 * iqrShare(repRates),
              windowUs / rawWindowS);

  Json j;
  j.num("flows", static_cast<double>(out.flows));
  j.num("flows_failed", static_cast<double>(out.failed));
  j.num("probes_sent", static_cast<double>(probesSent));
  j.num("probes_lost", static_cast<double>(probesLost));
  j.num("reps", static_cast<double>(reps.size()));
  // end to end
  j.num("setup_s", setupS);
  j.num("sim_us_per_s", simUsPerS);
  // The anchor's loop pages are resident for the whole run; they are not
  // the program's memory.
  j.num("peak_rss_mb",
        (static_cast<double>(ru.ru_maxrss) * 1024.0 -
         static_cast<double>(anchor.residentBytes())) / (1024.0 * 1024.0));
  j.num("allocs_per_sim_ms",
        static_cast<double>(reps[0].t.windowAllocs) / o.windowMs);
  j.num("fct_p99_sim_us", static_cast<double>(out.fctP99Ns) / 1e3);
  // per layer
  j.num("host.build_s", medianOf(reps, &RepTiming::buildS));
  j.num("asic.l3_entries.core", static_cast<double>(out.l3EntriesCore));
  j.num("asic.l3_match_ns.core", tr.replay.l3CoreNs);
  j.num("asic.l3_match_ns.edge", tr.replay.l3EdgeNs);
  j.num("asic.pkts_forwarded", static_cast<double>(out.forwarded));
  j.num("tcpu.tpps", static_cast<double>(out.tpps));
  j.num("tcpu.instrs", static_cast<double>(out.instrs));
  j.num("tcpu.decode_hit_ratio",
        out.decodeHits + out.decodeMisses == 0
            ? 0.0
            : static_cast<double>(out.decodeHits) /
                  static_cast<double>(out.decodeHits + out.decodeMisses));
  j.num("tcpu.execute_ns", tr.replay.executeNs);
  j.num("tcpu.hooks", static_cast<double>(out.hooks));
  j.num("tcpu.resident_ns", tr.replay.residentNs);
  j.num("sim.events", static_cast<double>(out.windowEvents));
  j.num("sim.ns_per_event",
        windowS * 1e9 /
            static_cast<double>(std::max<std::uint64_t>(1, out.windowEvents)));
  j.num("sim.slice_rate_iqr", iqrShare(ratios));
  j.num("host.tcp_retransmits", static_cast<double>(out.tcpRetransmits));
  j.num("host.tcp_rto_fires", static_cast<double>(out.tcpRtoFires));
  j.num("host.tcp_useful_ratio",
        totalSent == 0 ? 0.0
                       : static_cast<double>(out.dataSegments) /
                             static_cast<double>(totalSent));
  j.num("apps.probes_sent", static_cast<double>(probesSent));
  j.num("apps.probe_answer_ratio",
        probesSent == 0 ? 0.0
                        : static_cast<double>(probesSent - probesLost) /
                              static_cast<double>(probesSent));
  j.num("apps.cwnd_cuts", static_cast<double>(out.cwndCuts));
  j.num("workload.compile_s", medianOf(reps, &RepTiming::compileS));
  j.num("host.launch_s", medianOf(reps, &RepTiming::launchS));
  j.num("setup.allocs", static_cast<double>(reps[0].t.setupAllocs));
  j.num("monitor.estimate_ns", tr.replay.estimateNs);
  j.num("monitor.audit_s", tr.t.auditS);
  j.num("trace.sim_us_per_s", windowUs / tracedWindowS);
  j.num("trace.overhead_ratio", simUsPerS / (windowUs / tracedWindowS));
  j.num("bench.anchor_core_ns_per_step", median(coreNs));
  j.num("bench.anchor_tlb_ns_per_step", median(tlbNs));
  // exact outputs, for the repeat test
  j.num("fct_p50_sim_us", static_cast<double>(out.fctP50Ns) / 1e3);
  j.num("fct_max_sim_us", static_cast<double>(out.fctMaxNs) / 1e3);
  j.str("flow_digest", std::to_string(out.flowDigest));
  j.num("queue_drops", static_cast<double>(out.queueDrops));
  j.num("sketch_checks", static_cast<double>(out.sketchChecks));
  j.num("sketch_eps_violations", static_cast<double>(out.sketchEps));
  std::printf("%s\n", j.text().c_str());
  return 0;
}
