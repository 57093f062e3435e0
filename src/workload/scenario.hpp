// Datacenter-scale scenario library: a declarative config format plus a
// data-driven runner, so new large-scale experiments are data, not code.
//
// A scenario file (`.scn`, see examples/scenarios/) names a topology
// (fat-tree k=4..32, chain, star, dumbbell), a TCP workload (Poisson flow
// mix over the web-search/data-mining size distributions of flow_size.hpp,
// sustained incast storms, or an all-to-all shuffle), optional stochastic
// link faults, the TPP task set (per-connection TppTcpController), and
// metric knobs. The runner compiles the workload into a flow schedule
// drawn entirely from the scenario's own seeded Rng *before* the
// simulation starts, then builds the testbed, runs to completion, and
// reports flow-completion-time percentiles and queue-occupancy statistics.
//
// Determinism contract: at a fixed seed, summaryText() and the
// flight-recorder trace are byte-identical run to run
// (ScenarioRunnerDeterminism.RunToRunMergedTraceByteIdentical), and
// arming the recorder does not change the summary
// (ScenarioRunnerDeterminism.TraceCaptureDoesNotChangeSummary). The
// scale tier (`ctest -L scale`) pins each shipped scenario's tppscenario
// output byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/time.hpp"
#include "src/workload/flow_size.hpp"

namespace tpp::workload {

enum class TopologyType : std::uint8_t { FatTree, Chain, Star, Dumbbell };
enum class TrafficPattern : std::uint8_t { Poisson, Incast, Shuffle };

// Everything a `.scn` file can say. Field defaults are the documented
// config defaults; serializeScenario() emits every field so a round-trip
// is exact.
struct ScenarioConfig {
  // [scenario]
  std::string name = "unnamed";
  std::uint64_t seed = 1;
  // Parsed so that `.scn` files that say `shards = 1` (e2ebench's
  // workloads among them) still load; 1 is the only legal value, since
  // every run uses one simulator.
  std::size_t shards = 1;
  double horizonMs = 5.0;          // workload/metric window; the run itself
                                   // continues until every flow completes

  // [topology]
  TopologyType topology = TopologyType::FatTree;
  std::size_t k = 8;               // fat-tree arity (even, 4..32)
  std::size_t nodes = 3;           // chain switches / star senders /
                                   // dumbbell pairs
  double linkGbps = 10.0;
  double linkDelayUs = 2.0;
  std::uint64_t bufferKb = 256;    // per egress queue
  std::uint64_t ecnThresholdKb = 0;

  // [workload]
  TrafficPattern pattern = TrafficPattern::Poisson;
  FlowSizeDist sizeDist = FlowSizeDist::WebSearch;
  double sizeScale = 1.0;          // multiplies every drawn size
  std::uint64_t fixedKb = 64;      // the `fixed` distribution / burst size
  double load = 0.1;               // fraction of aggregate edge capacity
                                   // (ignored when flowsPerSec > 0)
  double flowsPerSec = 0.0;
  std::size_t maxFlows = 2000;     // schedule cap (also bounds ports)
  std::size_t participants = 0;    // hosts taking part; 0 = all
  std::uint32_t mss = 1000;
  std::size_t fanin = 16;          // incast: senders per storm round
  double periodUs = 500.0;         // incast: round period
  std::size_t rounds = 4;          // incast: storm rounds
  double staggerUs = 10.0;         // shuffle: per-source arrival stagger

  // [tpp]
  bool tppController = false;      // attach TppTcpController to senders
  std::uint64_t queueThresholdKb = 24;
  std::size_t maxControllers = 64; // first N flows get a controller

  // [monitor] — in-switch sketch monitoring (DESIGN.md §14). When sketch is
  // on, every switch gets an SRAM grant for the count-min task, the
  // per-packet update hook installed at the configured sampling stride, and
  // a ground-truth interceptor; the run report then carries the measured
  // (eps, delta) accuracy and heavy-hitter recall.
  bool monitorSketch = false;
  std::size_t sketchRows = 4;        // d (delta = e^-d)
  std::size_t sketchWidth = 64;      // w (eps = e/w)
  std::uint32_t sketchStride = 1;    // hook runs every Nth eligible packet
  std::uint64_t hhThresholdPkts = 64;  // heavy-hitter report threshold

  // [faults]
  double dropRate = 0.0;           // i.i.d. per-packet, every link
  double corruptRate = 0.0;

  // [metrics]
  double queueSampleUs = 100.0;    // queue-occupancy sampling period

  bool operator==(const ScenarioConfig&) const = default;

  // Host count the configured topology will create.
  std::size_t hostCount() const;
  // Participant host indices (stride-spread across the topology).
  std::vector<std::size_t> participantHosts() const;
};

std::string_view topologyTypeName(TopologyType t);
std::string_view trafficPatternName(TrafficPattern p);

// ------------------------------------------------------------------ parse
struct ParsedScenario {
  bool ok = false;
  ScenarioConfig config;
  std::string error;  // "line N: what went wrong" (first error wins)
};

// Parses the `.scn` text: `[section]` headers, `key = value` lines, `#`
// comments. Unknown sections/keys, malformed values and out-of-range
// settings are rejected with the offending line number.
ParsedScenario parseScenario(std::string_view text);
ParsedScenario parseScenarioFile(const std::string& path);

// Canonical form: every field, fixed section/key order. Parsing the output
// reproduces the config exactly (round-trip property).
std::string serializeScenario(const ScenarioConfig& config);

// --------------------------------------------------------------- schedule
// One planned TCP flow. Drawn entirely from the scenario Rng before the
// simulation runs; `src`/`dst` are testbed host indices.
struct FlowPlan {
  sim::Time arrival;
  std::size_t src = 0;
  std::size_t dst = 0;
  std::uint64_t bytes = 0;
};

// The deterministic workload compiler (exposed for the property tests):
// same config, same schedule, byte for byte.
std::vector<FlowPlan> compileSchedule(const ScenarioConfig& config);

// ------------------------------------------------------------------- run
struct ScenarioResult {
  // Topology actually built.
  std::size_t switches = 0;
  std::size_t hosts = 0;
  std::size_t links = 0;

  // Flow outcomes.
  std::size_t flows = 0;
  std::size_t finished = 0;
  std::size_t failed = 0;
  std::uint64_t bytesOffered = 0;

  // FCT percentiles in microseconds (overall and by size bucket; the
  // bucket boundaries scale with sizeScale like the sizes themselves).
  struct FctStats {
    std::size_t n = 0;
    double p50Us = 0, p95Us = 0, p99Us = 0, meanUs = 0, maxUs = 0;
  };
  FctStats fct;       // all finished flows
  FctStats fctSmall;  // <= 100 KB x sizeScale
  FctStats fctLarge;  // >= 1 MB x sizeScale

  // Queue occupancy: periodic per-port samples across every switch,
  // nonzero samples only (an idle fabric contributes nothing).
  std::uint64_t queueSamples = 0;
  std::uint64_t queueP50Bytes = 0;
  std::uint64_t queueP99Bytes = 0;
  std::uint64_t queueMaxBytes = 0;

  // TPP controller activity (zero when [tpp] controller = off).
  std::uint64_t tppProbesSent = 0;
  std::uint64_t tppCwndCuts = 0;

  // Fault layer activity.
  std::uint64_t faultDrops = 0;
  std::uint64_t faultCorruptions = 0;

  // In-switch sketch monitoring (all zero unless [monitor] sketch = on).
  // One "check" is one (switch, flow) estimate compared against that
  // switch's exact ground-truth count. The bound verdict asserts the
  // count-min guarantees: no underestimates (at stride 1) and at most
  // `monitorViolationsAllowed` estimates above true + eps*N (the analytic
  // tail at delta, with slack for the finite sample).
  std::uint64_t monitorChecks = 0;
  std::uint64_t monitorUnderestimates = 0;
  std::uint64_t monitorEpsViolations = 0;
  std::uint64_t monitorViolationsAllowed = 0;
  bool monitorBoundOk = true;
  std::uint64_t hhTrue = 0;      // flows at >= 2x threshold (per switch)
  std::uint64_t hhMissed = 0;    // true heavy hitters estimated below it
  std::uint64_t hhReported = 0;  // flows whose estimate crossed it
  std::uint64_t hookExecutions = 0;  // sum over switches

  // Run metadata, excluded from summaryText().
  std::uint64_t eventsExecuted = 0;

  // Content digests over the flow log and the queue samples (FNV-1a 64).
  std::uint64_t flowDigest = 0;
  std::uint64_t queueDigest = 0;

  // The canonical human/machine-readable report: deterministic at a fixed
  // seed. The scale suite compares these byte for byte.
  std::string summaryText(const ScenarioConfig& config) const;
};

struct RunOptions {
  bool captureTrace = false;  // fill ScenarioRun::trace
  std::size_t traceRing = 1u << 14;
};

struct ScenarioRun {
  ScenarioResult result;
  std::vector<std::uint8_t> trace;  // empty unless captureTrace
};

// Builds the testbed, runs the scenario to completion (every flow closed
// or failed), and aggregates the metrics. The config must have passed
// parsing/validation — programmatically built configs can be re-checked by
// round-tripping through parseScenario(serializeScenario(c)).
ScenarioRun runScenario(const ScenarioConfig& config,
                        const RunOptions& options = {});

}  // namespace tpp::workload
