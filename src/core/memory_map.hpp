// The unified memory-mapped statistics address space (paper §3.2.1, Table 2).
//
// All switch state a TPP can touch lives behind 16-bit virtual addresses,
// carved into namespaces by the high nibble. Mnemonics like
// "[Queue:QueueSize]" resolve to addresses at assembly time, and — per the
// paper's simplifying assumption — the same address means the same statistic
// on every switch.
//
//   0x1000..0x1fff  Switch:*          per-switch (global) statistics
//   0x2000..0x2fff  Link:*            per-port; resolved against the
//                                     packet's egress port, except Rx*
//                                     statistics which use the ingress port
//   0xa000..0xafff  PacketMetadata:*  per-packet pipeline registers
//   0xb000..0xbfff  Queue:*           per-queue, at the packet's egress
//                                     port and selected queue
//   0xd000..0xdfff  PortScratch       per-port SRAM words (e.g. the RCP
//                                     per-link rate register)
//   0xe000..0xffff  Sram              global scratch SRAM words
//
// Scratch regions are read-write and subject to per-task grants issued by
// the control-plane agent (src/core/agent.hpp); everything else is a
// statistic: readable by any TPP, writable by none.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tpp::core {

enum class StatNamespace : std::uint8_t {
  Switch,
  Port,
  PacketMeta,
  Queue,
  PortScratch,
  Sram,
  Unmapped,
};

enum class Access : std::uint8_t { ReadOnly, ReadWrite };

// Region bases.
inline constexpr std::uint16_t kSwitchBase = 0x1000;
inline constexpr std::uint16_t kPortBase = 0x2000;
inline constexpr std::uint16_t kPacketMetaBase = 0xa000;
inline constexpr std::uint16_t kQueueBase = 0xb000;
inline constexpr std::uint16_t kPortScratchBase = 0xd000;
inline constexpr std::uint16_t kSramBase = 0xe000;
inline constexpr std::size_t kPortScratchWords = 0x1000;
inline constexpr std::size_t kSramWords = 0x2000;

// Well-known statistic addresses. Kept as an X-macro-free constant list so
// the Table 2 bench can enumerate them.
namespace addr {
// Per-switch.
inline constexpr std::uint16_t SwitchId = 0x1000;
inline constexpr std::uint16_t L2TableVersion = 0x1001;
inline constexpr std::uint16_t L3TableVersion = 0x1002;
inline constexpr std::uint16_t TcamVersion = 0x1003;
inline constexpr std::uint16_t TimeLo = 0x1004;      // sim time ns, low 32
inline constexpr std::uint16_t TimeHi = 0x1005;      // sim time ns, high 32
inline constexpr std::uint16_t TotalRxPackets = 0x1006;
inline constexpr std::uint16_t TotalTxPackets = 0x1007;
inline constexpr std::uint16_t TotalDrops = 0x1008;
inline constexpr std::uint16_t PortCount = 0x1009;
// Robustness extension: increments every time the switch reboots (wiping
// scratch SRAM), so hosts can detect stale CSTORE/CEXEC state.
inline constexpr std::uint16_t SwitchBootEpoch = 0x100a;
// Observability extension (PR 4): simulator/TCPU telemetry a TPP can read
// back out of the dataplane it is diagnosing. Low 32 bits of each counter.
inline constexpr std::uint16_t SimEventsFired = 0x100b;
inline constexpr std::uint16_t TcpuInstrsRetired = 0x100c;
inline constexpr std::uint16_t TppsExecuted = 0x100d;
// Flight-recorder ring: records written, and records lost to ring wrap.
// Both read 0 when no tracer is armed on this switch's simulation.
inline constexpr std::uint16_t TraceRecords = 0x100e;
inline constexpr std::uint16_t TraceDrops = 0x100f;
// Per-port (egress unless noted).
inline constexpr std::uint16_t TxBytes = 0x2000;
inline constexpr std::uint16_t TxPackets = 0x2001;
inline constexpr std::uint16_t TxDrops = 0x2002;
inline constexpr std::uint16_t PortQueueBytes = 0x2003;  // all queues summed
inline constexpr std::uint16_t RxUtilization = 0x2004;   // ppm of capacity,
                                                         // at INGRESS port
inline constexpr std::uint16_t LinkCapacityMbps = 0x2005;
inline constexpr std::uint16_t RxBytes = 0x2006;         // at ingress port
inline constexpr std::uint16_t RxPackets = 0x2007;       // at ingress port
// Extension beyond the paper's list: offered load into the egress port
// (including drops), ppm of capacity — the y(t) an RCP controller wants.
inline constexpr std::uint16_t TxUtilization = 0x2008;
// §2.3 "Other possibilities": wireless access points annotating packets
// with rapidly-changing channel SNR. Per-port, centi-dB, set by the
// radio's PHY (simulated via Switch::setPortSnr).
inline constexpr std::uint16_t WirelessSnr = 0x2009;
// Drop-tail losses summed across the egress port's queues — lets a host
// distinguish "probe dropped here" from "probe lost upstream".
inline constexpr std::uint16_t PortDroppedBytes = 0x200a;
inline constexpr std::uint16_t PortDroppedPackets = 0x200b;
// Host-posted gauge (like Link:SNR): probes the attached end-host currently
// has outstanding toward this port, posted by telemetry wiring.
inline constexpr std::uint16_t ProbesInFlight = 0x200c;
// Per-packet metadata (paper: "0xa000 + {0x1,0x2}").
inline constexpr std::uint16_t InputPort = 0xa001;
inline constexpr std::uint16_t OutputPort = 0xa002;
inline constexpr std::uint16_t QueueId = 0xa003;
inline constexpr std::uint16_t MatchedEntryId = 0xa004;
inline constexpr std::uint16_t MatchedTable = 0xa005;
inline constexpr std::uint16_t AltRoutes = 0xa006;
// Monitoring extension (DESIGN.md §14): the pipeline surfaces the ECMP
// 5-tuple flow hash (low 32 bits), the packet's wire size, and — for
// TCP-over-UDP segments the parser recognizes — the TCP sequence number,
// advertised receive window, and the passive-RTT spin bit. Resident hook
// programs (count-min sketches, the Dapper-style diagnoser) read these to
// fold per-packet state into scratch SRAM.
inline constexpr std::uint16_t FlowHashLo = 0xa007;
inline constexpr std::uint16_t PacketBytes = 0xa008;
inline constexpr std::uint16_t TcpSeq = 0xa009;
inline constexpr std::uint16_t TcpWnd = 0xa00a;
inline constexpr std::uint16_t TcpSpin = 0xa00b;  // bit 0; 0xffffffff if not TCP
// Per-queue (egress port, selected queue).
inline constexpr std::uint16_t QueueBytes = 0xb000;
inline constexpr std::uint16_t QueuePackets = 0xb001;
inline constexpr std::uint16_t QueueEnqueuedBytes = 0xb002;
inline constexpr std::uint16_t QueueDroppedBytes = 0xb003;
inline constexpr std::uint16_t QueueDroppedPackets = 0xb004;
inline constexpr std::uint16_t QueueCapacityBytes = 0xb005;
// Conventional scratch assignments used by the bundled tasks.
inline constexpr std::uint16_t RcpRateRegister = kPortScratchBase + 0;
// RCP* controller mutual-exclusion word (0 = free, else owner id).
inline constexpr std::uint16_t RcpLockRegister = kPortScratchBase + 1;
}  // namespace addr

struct StatInfo {
  std::string name;  // "Namespace:Statistic" mnemonic
  std::uint16_t address = 0;
  Access access = Access::ReadOnly;
  std::string description;
};

class MemoryMap {
 public:
  // The default map: every statistic in the table above, plus the scratch
  // regions' conventional names.
  static const MemoryMap& standard();

  // Resolves "[Queue:QueueSize]"-style mnemonics (without brackets).
  std::optional<std::uint16_t> resolve(std::string_view name) const;
  // Reverse lookup for disassembly; nullptr if the address has no name.
  const StatInfo* lookup(std::uint16_t address) const;
  // "[Namespace:Statistic] (0xADDR)" for named addresses, else "0xADDR" —
  // the form every diagnostic quotes a switch address in.
  std::string describeAddress(std::uint16_t address) const;

  // Namespace classification is positional and needs no map.
  static StatNamespace namespaceOf(std::uint16_t address);
  // Scratch regions are writable; statistics and packet metadata are not
  // (the ASIC pipeline owns them).
  static bool writable(std::uint16_t address);

  void add(StatInfo info);
  const std::vector<StatInfo>& all() const { return stats_; }

 private:
  std::vector<StatInfo> stats_;
};

}  // namespace tpp::core
