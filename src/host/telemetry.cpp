#include "src/host/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

namespace tpp::host {

namespace {

// snprintf into a std::string; all formatting here is ASCII and bounded.
template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

const std::string& actorOr(const std::vector<std::string>& actors,
                           std::uint32_t id) {
  static const std::string kNone = "?";
  if (id == 0 || id > actors.size()) return kNone;
  return actors[id - 1];
}

}  // namespace

std::string_view traceKindName(sim::TraceKind kind) {
  using K = sim::TraceKind;
  switch (kind) {
    case K::None: return "none";
    case K::EventSchedule: return "event_schedule";
    case K::EventFire: return "event_fire";
    case K::PacketEnqueue: return "enqueue";
    case K::PacketDequeue: return "dequeue";
    case K::PacketDrop: return "drop";
    case K::LinkTxStart: return "link_tx";
    case K::LinkDeliver: return "link_deliver";
    case K::LinkFaultDrop: return "link_fault_drop";
    case K::LinkFaultCorrupt: return "link_fault_corrupt";
    case K::LinkDetachedDrop: return "link_detached_drop";
    case K::TcpuExecute: return "tcpu_execute";
    case K::TcpuRetire: return "tcpu_retire";
    case K::ProbeSend: return "probe_send";
    case K::ProbeRetransmit: return "probe_retransmit";
    case K::ProbeEcho: return "probe_echo";
    case K::ProbeLoss: return "probe_loss";
    case K::ProbeDuplicate: return "probe_duplicate";
    case K::ProbeLateEcho: return "probe_late_echo";
    case K::SwitchReboot: return "switch_reboot";
    case K::TcpRetransmit: return "tcp_retransmit";
    case K::TcpRto: return "tcp_rto";
    case K::TcpCwndCut: return "tcp_cwnd_cut";
  }
  return "unknown";
}

std::string describeRecord(const sim::TraceRecord& r,
                           const std::vector<std::string>& actors) {
  using K = sim::TraceKind;
  std::string out;
  appendf(out, "%12.3fus  %-10s %-18s", static_cast<double>(r.tsNanos) * 1e-3,
          actorOr(actors, r.actor).c_str(),
          std::string(traceKindName(r.kindOf())).c_str());
  switch (r.kindOf()) {
    case K::EventSchedule: {
      const std::uint64_t at =
          (static_cast<std::uint64_t>(r.c) << 32) | r.b;
      appendf(out, "seq=%u fire_at=%.3fus", r.a,
              static_cast<double>(at) * 1e-3);
      break;
    }
    case K::EventFire:
      appendf(out, "seq=%u", r.a);
      break;
    case K::PacketEnqueue:
      appendf(out, "port=%u queue=%u bytes=%u qbytes=%u", r.a, r.b, r.c, r.d);
      break;
    case K::PacketDequeue:
    case K::PacketDrop:
      appendf(out, "port=%u queue=%u bytes=%u", r.a, r.b, r.c);
      break;
    case K::LinkTxStart: {
      const std::uint64_t end =
          (static_cast<std::uint64_t>(r.c) << 32) | r.b;
      appendf(out, "wire_bytes=%u serialized_at=%.3fus", r.a,
              static_cast<double>(end) * 1e-3);
      break;
    }
    case K::LinkDeliver:
    case K::LinkFaultDrop:
    case K::LinkDetachedDrop:
      appendf(out, "bytes=%u", r.a);
      break;
    case K::LinkFaultCorrupt:
      appendf(out, "byte=%u bit=%u", r.a, r.b);
      break;
    case K::TcpuExecute:
      appendf(out, "task=%u hop=%u instrs=%u fault=%u cycles=%u", r.task, r.a,
              r.b, r.c, r.d);
      break;
    case K::TcpuRetire:
      appendf(out, "task=%u i=%u op=%u addr=0x%04x off=%u", r.task, r.a, r.b,
              r.c, r.d);
      break;
    case K::ProbeSend:
      appendf(out, "task=%u seq=%u instrs=%u seq_word=%u", r.task, r.a, r.b,
              r.c);
      break;
    case K::ProbeRetransmit:
      appendf(out, "task=%u seq=%u retries_left=%u", r.task, r.a, r.b);
      break;
    case K::ProbeEcho:
    case K::ProbeLateEcho:
      appendf(out, "task=%u seq=%u hops=%u fault=%u", r.task, r.a, r.b, r.c);
      break;
    case K::ProbeLoss:
    case K::ProbeDuplicate:
      appendf(out, "task=%u seq=%u", r.task, r.a);
      break;
    case K::SwitchReboot:
      appendf(out, "boot_epoch=%u", r.a);
      break;
    case K::TcpRetransmit:
      appendf(out, "port=%u seq=%u bytes=%u %s", r.a, r.b, r.c,
              r.d != 0 ? "fast" : "rto");
      break;
    case K::TcpRto:
      appendf(out, "port=%u rto_us=%u timeouts=%u", r.a, r.b, r.c);
      break;
    case K::TcpCwndCut:
      appendf(out, "port=%u cwnd=%u reason=%u", r.a, r.b, r.c);
      break;
    case K::None:
      break;
  }
  return out;
}

std::string toChromeJson(const sim::DecodedTrace& trace) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // Name each actor track once (tid = actor id; 0 is the "?" track).
  for (std::size_t i = 0; i < trace.actors.size(); ++i) {
    if (!first) out += ",";
    first = false;
    appendf(out,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
            "\"args\":{\"name\":\"%s\"}}",
            i + 1, trace.actors[i].c_str());
  }
  for (const auto& r : trace.records) {
    if (!first) out += ",";
    first = false;
    appendf(out,
            "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
            "\"tid\":%u,\"ts\":%.3f,\"args\":{\"task\":%u,\"a\":%u,\"b\":%u,"
            "\"c\":%u,\"d\":%u}}",
            std::string(traceKindName(r.kindOf())).c_str(), r.actor,
            static_cast<double>(r.tsNanos) * 1e-3, r.task, r.a, r.b, r.c,
            r.d);
  }
  out += "]}";
  return out;
}

std::string toCsv(const sim::DecodedTrace& trace) {
  std::string out = "ts_nanos,actor,kind,task,a,b,c,d\n";
  for (const auto& r : trace.records) {
    appendf(out, "%" PRId64 ",%s,%s,%u,%u,%u,%u,%u\n", r.tsNanos,
            actorOr(trace.actors, r.actor).c_str(),
            std::string(traceKindName(r.kindOf())).c_str(), r.task, r.a, r.b,
            r.c, r.d);
  }
  return out;
}

sim::DecodedTrace decoded(const sim::Tracer& tracer) {
  const auto bytes = tracer.serialize();
  return sim::decodeTrace(bytes);
}

ProbeLifecycle reconstructProbeLifecycle(const sim::DecodedTrace& trace,
                                         std::uint16_t task,
                                         std::uint32_t seq) {
  using K = sim::TraceKind;
  ProbeLifecycle lc;
  lc.task = task;
  lc.seq = seq;

  // Pass 1: the probe's own window [send, echo/loss].
  for (const auto& r : trace.records) {
    const K k = r.kindOf();
    if (r.task != task) continue;
    if (!lc.found) {
      if (k == K::ProbeSend && r.a == seq) {
        lc.found = true;
        lc.sendTsNanos = r.tsNanos;
      }
      continue;
    }
    if (r.a != seq) continue;
    if (k == K::ProbeRetransmit) {
      ++lc.retransmits;
    } else if (k == K::ProbeEcho && !lc.endTsNanos) {
      lc.endTsNanos = r.tsNanos;
      lc.outcome = ProbeLifecycle::Outcome::Echoed;
    } else if (k == K::ProbeLoss && !lc.endTsNanos) {
      lc.endTsNanos = r.tsNanos;
      lc.outcome = ProbeLifecycle::Outcome::Lost;
    } else if (k == K::ProbeLateEcho) {
      lc.endTsNanos = r.tsNanos;
      lc.outcome = ProbeLifecycle::Outcome::LostThenSalvaged;
    }
  }
  if (!lc.found) return lc;
  const std::int64_t windowEnd =
      lc.endTsNanos.value_or(trace.records.empty()
                                 ? lc.sendTsNanos
                                 : trace.records.back().tsNanos);

  // A retransmitted probe's hops cannot be told apart from the original's
  // (both copies carry the same seq and execute the same program).
  if (lc.retransmits > 0) lc.ambiguous = true;

  // Pass 2: attribute TcpuExecute records inside the window to this probe,
  // and detect overlap with sibling probes of the same task.
  for (const auto& r : trace.records) {
    if (r.task != task) continue;
    const K k = r.kindOf();
    if (k == K::ProbeSend && r.a != seq && r.tsNanos <= windowEnd) {
      // Another probe of this task sent before our window closed — was it
      // still unresolved at our send time? Conservatively: any same-task
      // send inside [send, end], or earlier send without a resolution
      // before our send, overlaps.
      if (r.tsNanos >= lc.sendTsNanos) {
        lc.ambiguous = true;
      } else {
        bool resolvedBeforeUs = false;
        for (const auto& r2 : trace.records) {
          if (r2.task != task || r2.a != r.a) continue;
          const K k2 = r2.kindOf();
          if ((k2 == K::ProbeEcho || k2 == K::ProbeLoss) &&
              r2.tsNanos >= r.tsNanos && r2.tsNanos <= lc.sendTsNanos) {
            resolvedBeforeUs = true;
            break;
          }
        }
        if (!resolvedBeforeUs) lc.ambiguous = true;
      }
    }
    if (k == K::TcpuExecute && r.tsNanos >= lc.sendTsNanos &&
        r.tsNanos <= windowEnd) {
      lc.hops.push_back(ProbeLifecycle::Hop{r.tsNanos, r.actor, r.a, r.b,
                                            r.c});
    }
  }
  return lc;
}

std::string describeLifecycle(const ProbeLifecycle& lc,
                              const std::vector<std::string>& actors) {
  std::string out;
  if (!lc.found) {
    appendf(out, "probe task=%u seq=%u: not found in trace\n", lc.task,
            lc.seq);
    return out;
  }
  appendf(out, "probe task=%u seq=%u%s\n", lc.task, lc.seq,
          lc.ambiguous ? "  (ambiguous: overlapping probes or retransmits)"
                       : "");
  appendf(out, "%12.3fus  send\n",
          static_cast<double>(lc.sendTsNanos) * 1e-3);
  for (const auto& h : lc.hops) {
    appendf(out, "%12.3fus  hop %u @ %s: %u instrs, fault=%u\n",
            static_cast<double>(h.tsNanos) * 1e-3, h.hopNumber,
            actorOr(actors, h.actor).c_str(), h.instructions, h.faultCode);
  }
  if (lc.retransmits > 0) {
    appendf(out, "              (%u retransmit%s)\n", lc.retransmits,
            lc.retransmits == 1 ? "" : "s");
  }
  const char* end = "still pending at end of trace";
  switch (lc.outcome) {
    case ProbeLifecycle::Outcome::Echoed: end = "echo"; break;
    case ProbeLifecycle::Outcome::Lost: end = "LOST (gave up)"; break;
    case ProbeLifecycle::Outcome::LostThenSalvaged:
      end = "late echo (salvaged after loss)";
      break;
    case ProbeLifecycle::Outcome::Pending: break;
  }
  if (lc.endTsNanos) {
    appendf(out, "%12.3fus  %s\n", static_cast<double>(*lc.endTsNanos) * 1e-3,
            end);
  } else {
    appendf(out, "              %s\n", end);
  }
  return out;
}

void armTracing(Testbed& tb, sim::Tracer& tracer) {
  tb.sim().setTracer(&tracer);
  for (std::size_t i = 0; i < tb.switchCount(); ++i) {
    tb.sw(i).setTracer(&tracer);
  }
  for (std::size_t i = 0; i < tb.hostCount(); ++i) {
    tb.host(i).setTracer(&tracer);
  }
  for (std::size_t i = 0; i < tb.linkCount(); ++i) {
    auto& l = tb.linkAt(i);
    l.aToB().setTracer(&tracer,
                       tracer.actor("link" + std::to_string(i) + ".fwd"));
    l.bToA().setTracer(&tracer,
                       tracer.actor("link" + std::to_string(i) + ".rev"));
  }
}

void bindProbeGauge(ReliableProber& prober, Testbed& tb, const Host& host) {
  const auto att = tb.attachmentOf(host);
  if (att.sw == nullptr) return;
  asic::Switch* sw = att.sw;
  const std::size_t port = att.port;
  prober.onOutstandingChange([sw, port](std::size_t n) {
    sw->setPortProbesInFlight(port, static_cast<std::uint32_t>(n));
  });
}

std::vector<asic::SramRaceOracle::ObservedConflict>
SramOracleSet::conflicts() {
  std::vector<asic::SramRaceOracle::ObservedConflict> out;
  for (auto& o : oracles_) {
    const auto c = o.conflicts();
    out.insert(out.end(), c.begin(), c.end());
  }
  return out;
}

std::vector<std::string> SramOracleSet::divergences(
    const core::InterferenceReport& report,
    std::span<const core::EffectSummary> tasks) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < oracles_.size(); ++i) {
    for (auto& d : oracles_[i].divergences(report, tasks)) {
      out.push_back("sw" + std::to_string(i) + ": " + std::move(d));
    }
  }
  return out;
}

std::uint64_t SramOracleSet::accesses() const {
  std::uint64_t total = 0;
  for (const auto& o : oracles_) total += o.accesses();
  return total;
}

void armSramOracle(Testbed& tb, SramOracleSet& oracles) {
  assert(oracles.size() == tb.switchCount() && "one oracle per switch");
  for (std::size_t i = 0; i < tb.switchCount(); ++i) {
    tb.sw(i).setSramOracle(&oracles.at(i));
  }
}

void disarmSramOracle(Testbed& tb) {
  for (std::size_t i = 0; i < tb.switchCount(); ++i) {
    tb.sw(i).setSramOracle(nullptr);
  }
}

}  // namespace tpp::host
