// Host-side view of the flight recorder: naming, exporters, probe-lifecycle
// reconstruction, and one-call wiring of a Tracer through a whole Testbed.
//
// The recorder itself (src/sim/trace.hpp) stays a dumb fixed-cost ring; all
// interpretation lives here, offline, where cost does not matter. The
// `tpptrace` CLI (examples/tpptrace.cpp) is a thin wrapper over these
// functions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/host/prober.hpp"
#include "src/host/topology.hpp"
#include "src/sim/trace.hpp"

namespace tpp::host {

// Short stable name of a trace kind ("probe_send", "tcpu_retire", ...).
std::string_view traceKindName(sim::TraceKind kind);

// One human-readable timeline line for a record, e.g.
//   "12.345us  sw1        tcpu_execute  task=3 hop=2 instrs=4 fault=0".
std::string describeRecord(const sim::TraceRecord& record,
                           const std::vector<std::string>& actors);

// chrome://tracing / Perfetto JSON (instant events on one track per actor).
std::string toChromeJson(const sim::DecodedTrace& trace);
// Compact CSV: ts_nanos,actor,kind,task,a,b,c,d — one row per record.
std::string toCsv(const sim::DecodedTrace& trace);

// Convenience: a live Tracer's contents, decoded (serialize → decode
// round-trip; also exercises the codec in every caller).
sim::DecodedTrace decoded(const sim::Tracer& tracer);

// ------------------------------------------------- probe lifecycle replay

// A probe's reconstructed story: send → per-hop TCPU execution → echo or
// loss, stitched from the recorder by (task, seq).
struct ProbeLifecycle {
  struct Hop {
    std::int64_t tsNanos = 0;
    std::uint32_t actor = 0;       // switch that executed the TPP
    std::uint32_t hopNumber = 0;   // hop counter after execution
    std::uint32_t instructions = 0;
    std::uint32_t faultCode = 0;
  };
  enum class Outcome { Pending, Echoed, Lost, LostThenSalvaged };

  bool found = false;  // no ProbeSend for (task, seq) in the trace
  std::uint16_t task = 0;
  std::uint32_t seq = 0;
  std::int64_t sendTsNanos = 0;
  std::optional<std::int64_t> endTsNanos;  // echo or loss instant
  Outcome outcome = Outcome::Pending;
  std::uint32_t retransmits = 0;
  std::vector<Hop> hops;
  // Hop attribution is by task + time window; if another probe of the same
  // task was in flight during this one's window (or it was retransmitted),
  // hops cannot be attributed uniquely and this flag is set.
  bool ambiguous = false;
};

ProbeLifecycle reconstructProbeLifecycle(const sim::DecodedTrace& trace,
                                         std::uint16_t task,
                                         std::uint32_t seq);
std::string describeLifecycle(const ProbeLifecycle& lc,
                              const std::vector<std::string>& actors);

// ----------------------------------------------------------------- wiring

// Arms `tracer` on every component of a built Testbed: the simulator, every
// switch (pipeline + TCPU retires), every channel of every link (directions
// named "<a>-><b>"), and every host. Call after topology construction;
// idempotent (re-arming just re-interns the same actor names).
void armTracing(Testbed& tb, sim::Tracer& tracer);

// Binds a prober's outstanding-count gauge to its host's first-hop switch,
// so TPPs from (and through) that port can read Link:ProbesInFlight.
void bindProbeGauge(ReliableProber& prober, Testbed& tb, const Host& host);

// ------------------------------------------------------ SRAM race oracle

// One SramRaceOracle per switch of a Testbed; the aggregation methods are
// offline (post-run) only.
class SramOracleSet {
 public:
  explicit SramOracleSet(std::size_t switches) : oracles_(switches) {}

  std::size_t size() const { return oracles_.size(); }
  asic::SramRaceOracle& at(std::size_t i) { return oracles_.at(i); }

  // Union across switches. Conflicts are per switch (the same task pair
  // colliding on two switches yields two entries).
  std::vector<asic::SramRaceOracle::ObservedConflict> conflicts();
  // Observed conflicts not predicted by the static report — static false
  // negatives, one line each, prefixed with the switch index.
  std::vector<std::string> divergences(
      const core::InterferenceReport& report,
      std::span<const core::EffectSummary> tasks);
  std::uint64_t accesses() const;

 private:
  std::vector<asic::SramRaceOracle> oracles_;
};

// Arms one oracle per switch (oracles.size() must be tb.switchCount());
// armSramOracle(tb, nullptr)-style disarming is disarmSramOracle.
void armSramOracle(Testbed& tb, SramOracleSet& oracles);
void disarmSramOracle(Testbed& tb);

}  // namespace tpp::host
