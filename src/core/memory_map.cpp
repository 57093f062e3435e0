#include "src/core/memory_map.hpp"

#include <cstdio>

namespace tpp::core {

const MemoryMap& MemoryMap::standard() {
  static const MemoryMap map = [] {
    MemoryMap m;
    auto ro = [&m](std::string name, std::uint16_t a, std::string desc) {
      m.add(StatInfo{std::move(name), a, Access::ReadOnly, std::move(desc)});
    };
    auto rw = [&m](std::string name, std::uint16_t a, std::string desc) {
      m.add(StatInfo{std::move(name), a, Access::ReadWrite, std::move(desc)});
    };
    // Per-switch.
    ro("Switch:SwitchID", addr::SwitchId, "unique switch identifier");
    ro("Switch:ID", addr::SwitchId, "alias of Switch:SwitchID");
    ro("Switch:L2TableVersion", addr::L2TableVersion,
       "version stamp of the L2 table (ndb)");
    ro("Switch:L3TableVersion", addr::L3TableVersion,
       "version stamp of the L3 LPM table (ndb)");
    ro("Switch:TcamVersion", addr::TcamVersion,
       "version stamp of the TCAM (ndb)");
    ro("Switch:TimeLo", addr::TimeLo, "dataplane clock, ns, low 32 bits");
    ro("Switch:TimeHi", addr::TimeHi, "dataplane clock, ns, high 32 bits");
    ro("Switch:TotalRxPackets", addr::TotalRxPackets,
       "packets received, all ports");
    ro("Switch:TotalTxPackets", addr::TotalTxPackets,
       "packets transmitted, all ports");
    ro("Switch:TotalDrops", addr::TotalDrops, "packets dropped, all ports");
    ro("Switch:PortCount", addr::PortCount, "number of ports");
    ro("Switch:BootEpoch", addr::SwitchBootEpoch,
       "increments on every reboot that wipes scratch SRAM");
    ro("Switch:SimEventsFired", addr::SimEventsFired,
       "simulator events executed so far, low 32 bits");
    ro("Switch:InstrsRetired", addr::TcpuInstrsRetired,
       "TCPU instructions retired on this switch, low 32 bits");
    ro("Switch:TppsExecuted", addr::TppsExecuted,
       "TPPs executed by this switch's TCPU, low 32 bits");
    ro("Switch:TraceRecords", addr::TraceRecords,
       "flight-recorder records written, low 32 bits (0 if disarmed)");
    ro("Switch:TraceDrops", addr::TraceDrops,
       "flight-recorder records lost to ring wrap (0 if disarmed)");
    // Per-port.
    ro("Link:TxBytes", addr::TxBytes, "bytes transmitted on egress port");
    ro("Link:TxPackets", addr::TxPackets, "packets transmitted on egress");
    ro("Link:TxDrops", addr::TxDrops, "packets dropped at egress port");
    ro("Link:QueueSize", addr::PortQueueBytes,
       "bytes queued across all queues of the egress port");
    ro("Link:RX-Utilization", addr::RxUtilization,
       "ingress link utilization, parts-per-million of capacity");
    ro("Link:CapacityMbps", addr::LinkCapacityMbps,
       "egress link capacity, Mbit/s");
    ro("Link:RxBytes", addr::RxBytes, "bytes received on ingress port");
    ro("Link:RxPackets", addr::RxPackets, "packets received on ingress port");
    ro("Link:TX-Utilization", addr::TxUtilization,
       "offered load into the egress port incl. drops, ppm of capacity");
    ro("Link:SNR", addr::WirelessSnr,
       "wireless channel SNR at the egress port, centi-dB (§2.3)");
    ro("Link:DroppedBytes", addr::PortDroppedBytes,
       "drop-tail bytes lost across all queues of the egress port");
    ro("Link:DroppedPackets", addr::PortDroppedPackets,
       "drop-tail packets lost across all queues of the egress port");
    ro("Link:ProbesInFlight", addr::ProbesInFlight,
       "host-posted gauge: probes outstanding toward this port");
    // Per-packet metadata.
    ro("PacketMetadata:InputPort", addr::InputPort, "packet's ingress port");
    ro("PacketMetadata:OutputPort", addr::OutputPort,
       "selected egress port (the paper's 'selected route')");
    ro("PacketMetadata:QueueId", addr::QueueId, "selected egress queue");
    ro("PacketMetadata:MatchedEntryID", addr::MatchedEntryId,
       "version-stamped id of the flow entry that forwarded this packet");
    ro("PacketMetadata:MatchedTable", addr::MatchedTable,
       "which table matched: 1=L2 2=L3 3=TCAM 0=miss");
    ro("PacketMetadata:AltRoutes", addr::AltRoutes,
       "number of alternate next-hops for this packet");
    ro("PacketMetadata:FlowHash", addr::FlowHashLo,
       "ECMP 5-tuple flow hash of this packet, low 32 bits");
    ro("PacketMetadata:PacketBytes", addr::PacketBytes,
       "wire size of this packet in bytes");
    ro("PacketMetadata:TcpSeq", addr::TcpSeq,
       "TCP sequence number (TCP-over-UDP segments; 0 otherwise)");
    ro("PacketMetadata:TcpWnd", addr::TcpWnd,
       "TCP advertised receive window (TCP-over-UDP segments; 0 otherwise)");
    ro("PacketMetadata:TcpSpin", addr::TcpSpin,
       "passive-RTT spin bit (bit 0); 0xffffffff when the packet is not a "
       "recognized TCP segment");
    // Per-queue.
    ro("Queue:QueueSize", addr::QueueBytes,
       "bytes in the packet's egress queue, sampled at TCPU time");
    ro("Queue:QueueSizePackets", addr::QueuePackets,
       "packets in the packet's egress queue");
    ro("Queue:EnqueuedBytes", addr::QueueEnqueuedBytes,
       "cumulative bytes enqueued");
    ro("Queue:DroppedBytes", addr::QueueDroppedBytes,
       "cumulative bytes dropped");
    ro("Queue:DroppedPackets", addr::QueueDroppedPackets,
       "cumulative packets dropped");
    ro("Queue:CapacityBytes", addr::QueueCapacityBytes,
       "configured buffer size of the queue");
    // Scratch conventions used by the bundled tasks.
    rw("Link:RCP-RateRegister", addr::RcpRateRegister,
       "per-link fair-share rate R(t), Kbit/s (RCP*, §2.2)");
    rw("Link:RCP-LockRegister", addr::RcpLockRegister,
       "RCP* controller CSTORE lock: 0 = free, else owner id");
    rw("PortScratch:Word0", kPortScratchBase + 0, "per-port scratch word 0");
    rw("PortScratch:Word1", kPortScratchBase + 1, "per-port scratch word 1");
    rw("Sram:Word0", kSramBase + 0, "global scratch word 0");
    rw("Sram:Word1", kSramBase + 1, "global scratch word 1");
    return m;
  }();
  return map;
}

std::optional<std::uint16_t> MemoryMap::resolve(std::string_view name) const {
  for (const auto& s : stats_) {
    if (s.name == name) return s.address;
  }
  return std::nullopt;
}

const StatInfo* MemoryMap::lookup(std::uint16_t address) const {
  for (const auto& s : stats_) {
    if (s.address == address) return &s;
  }
  return nullptr;
}

std::string MemoryMap::describeAddress(std::uint16_t address) const {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%04x", address);
  if (const auto* s = lookup(address)) return "[" + s->name + "] (" + buf + ")";
  return std::string(buf);
}

StatNamespace MemoryMap::namespaceOf(std::uint16_t address) {
  if (address >= kSramBase) return StatNamespace::Sram;
  if (address >= kPortScratchBase) return StatNamespace::PortScratch;
  if (address >= kQueueBase && address < kQueueBase + 0x1000) {
    return StatNamespace::Queue;
  }
  if (address >= kPacketMetaBase && address < kPacketMetaBase + 0x1000) {
    return StatNamespace::PacketMeta;
  }
  if (address >= kPortBase && address < kPortBase + 0x1000) {
    return StatNamespace::Port;
  }
  if (address >= kSwitchBase && address < kSwitchBase + 0x1000) {
    return StatNamespace::Switch;
  }
  return StatNamespace::Unmapped;
}

bool MemoryMap::writable(std::uint16_t address) {
  const auto ns = namespaceOf(address);
  return ns == StatNamespace::PortScratch || ns == StatNamespace::Sram;
}

void MemoryMap::add(StatInfo info) { stats_.push_back(std::move(info)); }

}  // namespace tpp::core
