// Flight recorder: an always-on, fixed-cost trace of what the dataplane
// actually did — event firings, link transits, queue churn, TCPU retires,
// fault verdicts, probe lifecycles — in a bounded ring of fixed-size binary
// records. When a chaos run or a convergence test misbehaves, the last N
// records answer "which events fired, which instructions executed, where
// did the probe die" without rerunning anything.
//
// Cost discipline (mirrors sim/fault.hpp): components hold a `Tracer*`
// defaulting to nullptr, so every disarmed hot-path site is a single
// predictable branch; an armed site is one 32-byte store into a
// pre-allocated ring. Compiling with -DTPP_TRACE_DISABLED (cmake
// -DTPP_TRACE=OFF) empties record() so the whole body folds away.
//
// The ring overwrites oldest records (that is what makes it a flight
// recorder, not a log): `overwritten()` counts what was lost, and the
// Switch exposes it to TPPs as [Switch:TraceDrops].
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/sim/time.hpp"

namespace tpp::sim {

#if defined(TPP_TRACE_DISABLED)
inline constexpr bool kTraceCompiledIn = false;
#else
inline constexpr bool kTraceCompiledIn = true;
#endif

// What happened. Values are part of the serialized format — append only.
enum class TraceKind : std::uint8_t {
  None = 0,           // never recorded; marks an invalid/blank record
  EventSchedule = 1,  // a=event seq (lo32), b/c=fire-at nanos lo/hi
  EventFire = 2,      // a=event seq (lo32)
  PacketEnqueue = 3,  // a=egress port, b=queue id, c=bytes, d=queue bytes after
  PacketDequeue = 4,  // a=egress port, b=queue id, c=bytes
  PacketDrop = 5,     // a=port, b=queue id, c=bytes
  LinkTxStart = 6,    // a=wire bytes, b/c=serialization-end nanos lo/hi
  LinkDeliver = 7,    // a=payload bytes
  LinkFaultDrop = 8,  // a=payload bytes (random loss or down window)
  LinkFaultCorrupt = 9,   // a=flipped byte index, b=bit index
  LinkDetachedDrop = 10,  // a=payload bytes (no receiver attached)
  TcpuExecute = 11,   // a=hop number after execute, b=instructions executed,
                      // c=fault code, d=modelled cycles (lo32)
  TcpuRetire = 12,    // a=instruction index, b=opcode, c=addr operand,
                      // d=pmem offset operand
  ProbeSend = 13,     // a=seq, b=instruction count, c=seq word index
  ProbeRetransmit = 14,  // a=seq, b=retries left after this one
  ProbeEcho = 15,     // a=seq, b=hop count, c=fault code
  ProbeLoss = 16,     // a=seq
  ProbeDuplicate = 17,   // a=seq
  ProbeLateEcho = 18,    // a=seq, b=hop count, c=fault code
  SwitchReboot = 19,  // a=boot epoch after the wipe
  TcpRetransmit = 20,    // a=local port, b=seq, c=payload bytes, d=1 if fast
  TcpRto = 21,        // a=local port, b=backed-off RTO (us), c=consecutive
                      // timeouts so far
  TcpCwndCut = 22,    // a=local port, b=cwnd after the cut (bytes),
                      // c=reason (0=rto, 1=dup-ack, 2=tpp probe)
};
inline constexpr std::uint8_t kMaxTraceKind =
    static_cast<std::uint8_t>(TraceKind::TcpCwndCut);

// One fixed-size binary record. POD by construction: the ring, the on-disk
// format, and the decoder all treat it as 32 raw bytes.
struct TraceRecord {
  std::int64_t tsNanos = 0;   // simulator clock at the record site
  std::uint32_t actor = 0;    // interned component id (0 = unattributed)
  std::uint16_t task = 0;     // TPP task id when the site knows it
  std::uint8_t kind = 0;      // TraceKind
  std::uint8_t reserved = 0;  // format padding, always 0
  std::uint32_t a = 0, b = 0, c = 0, d = 0;  // kind-specific payload

  TraceKind kindOf() const { return static_cast<TraceKind>(kind); }
  bool operator==(const TraceRecord&) const = default;
};
static_assert(sizeof(TraceRecord) == 32, "records are 32 bytes on the wire");
static_assert(std::is_trivially_copyable_v<TraceRecord>);

class Tracer {
 public:
  // `capacity` is rounded up to a power of two (ring indexing is a mask).
  explicit Tracer(std::size_t capacity = 1u << 16);

  // Interns a component name, returning its stable actor id (>= 1; 0 means
  // "no actor"). Registration is setup-time only — never on a hot path.
  std::uint32_t actor(std::string name);
  const std::vector<std::string>& actors() const { return actors_; }

  // The one hot-path entry point: one bounds-free ring store when compiled
  // in, nothing at all when compiled out.
  void record(Time at, TraceKind kind, std::uint32_t actor, std::uint16_t task,
              std::uint32_t a = 0, std::uint32_t b = 0, std::uint32_t c = 0,
              std::uint32_t d = 0) {
    if constexpr (!kTraceCompiledIn) {
      (void)at, (void)kind, (void)actor, (void)task;
      (void)a, (void)b, (void)c, (void)d;
    } else {
      TraceRecord& r = ring_[head_ & mask_];
      r.tsNanos = at.nanos();
      r.actor = actor;
      r.task = task;
      r.kind = static_cast<std::uint8_t>(kind);
      r.reserved = 0;
      r.a = a;
      r.b = b;
      r.c = c;
      r.d = d;
      ++head_;
    }
  }

  std::size_t capacity() const { return ring_.size(); }
  // Total records ever written (monotonic, survives wrap).
  std::uint64_t written() const { return head_; }
  // Records lost to ring wrap — the flight recorder's "TraceDrops".
  std::uint64_t overwritten() const {
    return head_ > ring_.size() ? head_ - ring_.size() : 0;
  }
  std::size_t size() const {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                : ring_.size();
  }
  void clear() { head_ = 0; }

  // Surviving records, oldest first.
  std::vector<TraceRecord> snapshot() const;

  // Binary image: header + actor table + records (see trace.cpp for the
  // layout). decodeTrace() round-trips it.
  std::vector<std::uint8_t> serialize() const;
  bool save(const std::string& path) const;

 private:
  std::vector<TraceRecord> ring_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;
  std::vector<std::string> actors_;
};

// Decoded binary trace. The decoder never crashes on adversarial input: any
// structural problem sets `ok = false` and `error`, and whatever prefix
// parsed cleanly is still returned (`truncated` marks a short record
// region, `badKinds` counts records whose kind byte is out of range).
struct DecodedTrace {
  std::vector<TraceRecord> records;
  std::vector<std::string> actors;
  std::uint64_t overwritten = 0;
  bool ok = false;
  bool truncated = false;
  std::uint64_t badKinds = 0;
  std::string error;

  const std::string& actorName(std::uint32_t id) const;
};
DecodedTrace decodeTrace(std::span<const std::uint8_t> bytes);

}  // namespace tpp::sim
