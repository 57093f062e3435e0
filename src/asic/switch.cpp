#include "src/asic/switch.hpp"

#include <algorithm>
#include <cassert>

#include "src/core/memory_map.hpp"
#include "src/net/byte_io.hpp"

namespace tpp::asic {

namespace addr = core::addr;
using core::Fault;
using core::MemoryMap;
using core::StatNamespace;

// The TCPU's window onto one switch while it processes one packet: resolves
// the unified 16-bit virtual address space (§3.2.1) against the statistics
// banks, the per-packet metadata registers, and scratch SRAM. Statistic
// registers are 32 bits wide; 64-bit counters expose their low word (the
// control plane reads full counters out of band).
class Switch::UnifiedAddressSpace final : public tcpu::AddressSpace {
 public:
  UnifiedAddressSpace(Switch& sw, const net::PacketMeta& meta)
      : sw_(sw), meta_(meta) {}

  ReadResult read(std::uint16_t address, std::uint16_t taskId) override {
    const auto ns = MemoryMap::namespaceOf(address);
    const auto now = sw_.sim_.now();
    const std::size_t in = meta_.inputPort;
    const std::size_t out = meta_.outputPort;
    auto u32 = [](std::uint64_t v) { return static_cast<std::uint32_t>(v); };

    switch (ns) {
      case StatNamespace::Switch:
        switch (address) {
          case addr::SwitchId: return ReadResult::ok(sw_.config_.switchId);
          case addr::L2TableVersion: return ReadResult::ok(sw_.l2_.version());
          case addr::L3TableVersion: return ReadResult::ok(sw_.l3_.version());
          case addr::TcamVersion: return ReadResult::ok(sw_.tcam_.version());
          case addr::TimeLo:
            return ReadResult::ok(u32(static_cast<std::uint64_t>(now.nanos())));
          case addr::TimeHi:
            return ReadResult::ok(
                u32(static_cast<std::uint64_t>(now.nanos()) >> 32));
          case addr::TotalRxPackets:
            return ReadResult::ok(u32(sw_.stats_.totalRxPackets));
          case addr::TotalTxPackets:
            return ReadResult::ok(u32(sw_.stats_.totalTxPackets));
          case addr::TotalDrops:
            return ReadResult::ok(u32(sw_.stats_.totalDrops));
          case addr::PortCount:
            return ReadResult::ok(u32(sw_.config_.ports));
          case addr::SwitchBootEpoch:
            return ReadResult::ok(sw_.bootEpoch_);
          case addr::SimEventsFired:
            return ReadResult::ok(u32(sw_.sim_.eventsExecuted()));
          case addr::TcpuInstrsRetired:
            return ReadResult::ok(u32(sw_.tcpu_.instructionsExecuted()));
          case addr::TppsExecuted:
            return ReadResult::ok(u32(sw_.stats_.tppsExecuted));
          case addr::TraceRecords:
            return ReadResult::ok(
                sw_.tracer_ ? u32(sw_.tracer_->written()) : 0u);
          case addr::TraceDrops:
            return ReadResult::ok(
                sw_.tracer_ ? u32(sw_.tracer_->overwritten()) : 0u);
          default: return ReadResult::fail(Fault::UnmappedAddress);
        }

      case StatNamespace::Port: {
        switch (address) {
          case addr::TxBytes:
            return ReadResult::ok(u32(sw_.ports_[out].txBytes));
          case addr::TxPackets:
            return ReadResult::ok(u32(sw_.ports_[out].txPackets));
          case addr::TxDrops:
            return ReadResult::ok(u32(sw_.ports_[out].txDrops));
          case addr::PortQueueBytes:
            return ReadResult::ok(u32(sw_.banks_[out].totalBytes()));
          case addr::RxUtilization: {
            const auto cap = sw_.portCapacityBps(in);
            if (cap == 0) return ReadResult::ok(0);
            const double ppm =
                sw_.ports_[in].rxRate.rateBps(now) / static_cast<double>(cap) *
                1e6;
            return ReadResult::ok(u32(static_cast<std::uint64_t>(ppm)));
          }
          case addr::TxUtilization: {
            const auto cap = sw_.portCapacityBps(out);
            if (cap == 0) return ReadResult::ok(0);
            const double ppm = sw_.ports_[out].offeredRate.rateBps(now) /
                               static_cast<double>(cap) * 1e6;
            return ReadResult::ok(u32(static_cast<std::uint64_t>(ppm)));
          }
          case addr::LinkCapacityMbps:
            return ReadResult::ok(u32(sw_.portCapacityBps(out) / 1'000'000));
          case addr::WirelessSnr:
            return ReadResult::ok(sw_.snrCentiDb_[out]);
          case addr::RxBytes:
            return ReadResult::ok(u32(sw_.ports_[in].rxBytes));
          case addr::RxPackets:
            return ReadResult::ok(u32(sw_.ports_[in].rxPackets));
          case addr::PortDroppedBytes:
            return ReadResult::ok(u32(sw_.banks_[out].totalDroppedBytes()));
          case addr::PortDroppedPackets:
            return ReadResult::ok(u32(sw_.banks_[out].totalDroppedPackets()));
          case addr::ProbesInFlight:
            // Ingress-resolved: the gauge describes the host feeding this
            // port, so a probe reads its own sender's outstanding count at
            // the first hop.
            return ReadResult::ok(sw_.probesInFlight_[in]);
          default: return ReadResult::fail(Fault::UnmappedAddress);
        }
      }

      case StatNamespace::PacketMeta:
        switch (address) {
          case addr::InputPort: return ReadResult::ok(meta_.inputPort);
          case addr::OutputPort: return ReadResult::ok(meta_.outputPort);
          case addr::QueueId: return ReadResult::ok(meta_.queueId);
          case addr::MatchedEntryId:
            return ReadResult::ok(meta_.matchedEntryId);
          case addr::MatchedTable: return ReadResult::ok(meta_.matchedTable);
          case addr::AltRoutes: return ReadResult::ok(meta_.altRouteCount);
          case addr::FlowHashLo: return ReadResult::ok(meta_.flowHashLo);
          case addr::PacketBytes: return ReadResult::ok(meta_.packetBytes);
          case addr::TcpSeq: return ReadResult::ok(meta_.tcpSeq);
          case addr::TcpWnd: return ReadResult::ok(meta_.tcpWnd);
          case addr::TcpSpin: return ReadResult::ok(meta_.tcpSpin);
          default: return ReadResult::fail(Fault::UnmappedAddress);
        }

      case StatNamespace::Queue: {
        const auto& q = sw_.banks_[out].queue(meta_.queueId);
        switch (address) {
          case addr::QueueBytes: return ReadResult::ok(u32(q.bytes()));
          case addr::QueuePackets: return ReadResult::ok(u32(q.packets()));
          case addr::QueueEnqueuedBytes:
            return ReadResult::ok(u32(q.stats().enqueuedBytes));
          case addr::QueueDroppedBytes:
            return ReadResult::ok(u32(q.stats().droppedBytes));
          case addr::QueueDroppedPackets:
            return ReadResult::ok(u32(q.stats().droppedPackets));
          case addr::QueueCapacityBytes:
            return ReadResult::ok(u32(q.capacityBytes()));
          default: return ReadResult::fail(Fault::UnmappedAddress);
        }
      }

      case StatNamespace::PortScratch: {
        if (!sw_.sram_.allocator.allows(taskId, address)) {
          return ReadResult::fail(Fault::GrantViolation);
        }
        const std::size_t word = address - core::kPortScratchBase;
        if (sw_.oracle_ != nullptr) {
          sw_.oracle_->record(ns, out, word, SramRaceOracle::Access::Read);
        }
        return ReadResult::ok(sw_.sram_.perPort[out][word]);
      }

      case StatNamespace::Sram: {
        if (!sw_.sram_.allocator.allows(taskId, address)) {
          return ReadResult::fail(Fault::GrantViolation);
        }
        const std::size_t word = address - core::kSramBase;
        if (sw_.oracle_ != nullptr) {
          sw_.oracle_->record(ns, 0, word, SramRaceOracle::Access::Read);
        }
        return ReadResult::ok(sw_.sram_.global[word]);
      }

      case StatNamespace::Unmapped:
        return ReadResult::fail(Fault::UnmappedAddress);
    }
    return ReadResult::fail(Fault::UnmappedAddress);
  }

  Fault write(std::uint16_t address, std::uint32_t value,
              std::uint16_t taskId) override {
    const auto ns = MemoryMap::namespaceOf(address);
    switch (ns) {
      case StatNamespace::PortScratch: {
        if (!sw_.sram_.allocator.allows(taskId, address)) {
          return Fault::GrantViolation;
        }
        const std::size_t word = address - core::kPortScratchBase;
        if (sw_.oracle_ != nullptr) {
          sw_.oracle_->record(ns, meta_.outputPort, word,
                              SramRaceOracle::Access::Write);
        }
        sw_.sram_.perPort[meta_.outputPort][word] = value;
        return Fault::None;
      }
      case StatNamespace::Sram: {
        if (!sw_.sram_.allocator.allows(taskId, address)) {
          return Fault::GrantViolation;
        }
        const std::size_t word = address - core::kSramBase;
        if (sw_.oracle_ != nullptr) {
          sw_.oracle_->record(ns, 0, word, SramRaceOracle::Access::Write);
        }
        sw_.sram_.global[word] = value;
        return Fault::None;
      }
      case StatNamespace::Unmapped:
        return Fault::UnmappedAddress;
      default:
        // Statistics and packet metadata are pipeline-owned.
        return Fault::ReadOnlyViolation;
    }
  }

 private:
  Switch& sw_;
  const net::PacketMeta& meta_;
};

Switch::Switch(sim::Simulator& simulator, std::string name,
               SwitchConfig config)
    : net::Node(std::move(name)), sim_(simulator), config_(config) {
  ports_.reserve(config_.ports);
  banks_.reserve(config_.ports);
  sram_.perPort.reserve(config_.ports);
  for (std::size_t i = 0; i < config_.ports; ++i) {
    ports_.emplace_back(config_.utilizationWindow);
    banks_.emplace_back(config_.queuesPerPort, config_.bufferPerQueueBytes);
    sram_.perPort.emplace_back(core::kPortScratchWords, 0u);
  }
  sram_.global.assign(core::kSramWords, 0u);
  snrCentiDb_.assign(config_.ports, 0u);
  probesInFlight_.assign(config_.ports, 0u);
}

void Switch::setTracer(sim::Tracer* tracer) {
  tracer_ = tracer;
  actor_ = tracer != nullptr ? tracer->actor(name()) : 0;
  tcpu_.setTracer(tracer, actor_, tracer != nullptr ? &sim_ : nullptr);
}

Switch::~Switch() = default;

void Switch::receive(net::PacketPtr packet, std::size_t port) {
  assert(port < config_.ports);
  const std::size_t size = packet->size();
  ports_[port].rxBytes += size;
  ++ports_[port].rxPackets;
  ports_[port].rxRate.add(sim_.now(), size);
  ++stats_.totalRxPackets;

  switch (edgeFilter_.apply(*packet, port)) {
    case core::EdgeFilter::Action::Dropped:
      drop(*packet, port);
      return;
    case core::EdgeFilter::Action::Stripped:
    case core::EdgeFilter::Action::Forwarded:
      break;
  }

  if (config_.pipelineDelay > sim::Time::zero()) {
    sim_.schedule(config_.pipelineDelay,
                  [this, p = std::move(packet), port]() mutable {
                    forwardAndEnqueue(std::move(p), port);
                  });
  } else {
    forwardAndEnqueue(std::move(packet), port);
  }
}

std::optional<MatchResult> Switch::lookup(const ParsedPacket& parsed,
                                          std::uint64_t flowHash) {
  Tcam::PacketFields fields;
  fields.dstMac = parsed.eth.dst;
  fields.etherType = parsed.effectiveEtherType;
  if (parsed.ip) {
    fields.ipSrc = parsed.ip->src;
    fields.ipDst = parsed.ip->dst;
    fields.ipProto = parsed.ip->protocol;
  }
  if (auto r = tcam_.match(fields)) {
    r->table = 3;
    return r;
  }
  if (parsed.ip) {
    if (auto r = l3_.match(parsed.ip->dst, flowHash)) {
      r->table = 2;
      return r;
    }
  }
  if (auto r = l2_.match(parsed.eth.dst)) {
    r->table = 1;
    return r;
  }
  return std::nullopt;
}

void Switch::forwardAndEnqueue(net::PacketPtr packet, std::size_t inPort) {
  auto parsed = parsePacket(*packet);
  if (!parsed) {
    drop(*packet, inPort);
    return;
  }

  packet->resetMeta();
  auto& meta = packet->meta();
  meta.inputPort = static_cast<std::uint32_t>(inPort);

  const std::uint64_t flowHash = flowHashOf(*parsed);
  const auto result = lookup(*parsed, flowHash);
  if (!result) {
    ++stats_.forwardingMisses;
    drop(*packet, inPort);
    return;
  }
  if (result->drop || result->outPort >= config_.ports) {
    drop(*packet, inPort);
    return;
  }

  // Routed (L3-matched) packets get standard TTL treatment: drop expiring
  // packets — the loop guard — and decrement in place otherwise.
  if (result->table == 2 && parsed->ip) {
    if (parsed->ip->ttl <= 1) {
      ++stats_.ttlExpired;
      drop(*packet, inPort);
      return;
    }
    auto ip = packet->span().subspan(parsed->ipOffset);
    ip[8] = static_cast<std::uint8_t>(parsed->ip->ttl - 1);
    net::putBe16(ip, 10, 0);
    net::putBe16(ip, 10,
                 net::internetChecksum(ip.first(net::kIpv4HeaderSize)));
  }

  meta.outputPort = static_cast<std::uint32_t>(result->outPort);
  meta.queueId = result->queueId.value_or(0);
  meta.matchedEntryId = result->entryId;
  meta.matchedTable = result->table;
  meta.altRouteCount = result->altRoutes;
  meta.flowHashLo = static_cast<std::uint32_t>(flowHash);
  meta.packetBytes = static_cast<std::uint32_t>(packet->size());
  if (parsed->tcp) {
    meta.tcpSeq = parsed->tcp->seq;
    meta.tcpWnd = parsed->tcp->wnd;
    meta.tcpSpin = parsed->tcp->spin;
  }

  // TCPU: execute the TPP after lookup, before enqueue (Fig 3).
  if (parsed->tppOffset && config_.tcpuEnabled) {
    auto view = core::TppView::at(*packet, *parsed->tppOffset);
    if (view) {
      UnifiedAddressSpace mem(*this, meta);
      if (oracle_ != nullptr) oracle_->beginExecution(view->taskId());
      const auto report = tcpu_.execute(*view, mem);
      ++stats_.tppsExecuted;
      if (tracer_ != nullptr) {
        tracer_->record(sim_.now(), sim::TraceKind::TcpuExecute, actor_,
                        view->taskId(), view->hopNumber(),
                        static_cast<std::uint32_t>(report.executed),
                        static_cast<std::uint32_t>(view->faultCode()),
                        static_cast<std::uint32_t>(report.cycles));
      }
    }
  }

  // Resident monitoring hooks (DESIGN.md §14): run for eligible forwarded
  // traffic — IPv4 and not a TPP carrier (a TPP already had its say above;
  // counting carriers would skew byte sketches toward instrument traffic).
  if (!hooks_.empty() && parsed->ip && !parsed->tppOffset) {
    const std::uint32_t stride = std::max<std::uint32_t>(1, config_.hookStride);
    if (hookTick_++ % stride == 0) runHooks(*parsed, meta, flowHash);
  }

  const std::size_t out = result->outPort;
  ports_[out].offeredRate.add(sim_.now(), packet->size());

  // ECN AQM: mark CE when the chosen egress queue is past the threshold.
  if (config_.ecnThresholdBytes > 0 && parsed->ip &&
      banks_[out].queue(meta.queueId).bytes() >= config_.ecnThresholdBytes) {
    net::Ipv4Header::markCe(packet->span().subspan(parsed->ipOffset));
  }

  if (interceptor_ != nullptr) interceptor_->onEnqueue(*packet, out);
  enqueue(std::move(packet), out, meta.queueId);
}

void Switch::installHook(core::HookProgram hook) {
  for (const auto& patch : hook.addrPatches) {
    for (const auto& target : patch.targets) {
      assert(target.instrIndex < hook.program.instructions.size());
      (void)target;
    }
  }
  for (const auto& patch : hook.pmemPatches) {
    assert(patch.wordIndex < hook.program.initialPmem.size());
    (void)patch;
  }
  InstalledHook installed;
  installed.instrs = hook.program.instructions;
  installed.pmem.reserve(hook.program.pmemWords);
  installed.hook = std::move(hook);
  hooks_.push_back(std::move(installed));
}

void Switch::runHooks(const ParsedPacket& parsed, net::PacketMeta& meta,
                      std::uint64_t flowHash) {
  for (auto& h : hooks_) {
    if (h.hook.tcpOnly && !parsed.tcp) continue;
    const std::uint32_t spin = parsed.tcp ? parsed.tcp->spin : 0;
    const core::Program& tmpl = h.hook.program;

    // Specialize the decoded working copy for this packet's flow.
    for (const auto& patch : h.hook.addrPatches) {
      const std::uint32_t col =
          core::hookColumn(flowHash, patch.salt, patch.slots);
      const std::uint16_t base = static_cast<std::uint16_t>(
          patch.baseAddress + col * patch.slotStride);
      for (const auto& target : patch.targets) {
        h.instrs[target.instrIndex].addr =
            static_cast<std::uint16_t>(base + target.wordOffset);
      }
    }
    h.pmem.assign(tmpl.pmemWords, 0u);
    std::copy(tmpl.initialPmem.begin(), tmpl.initialPmem.end(),
              h.pmem.begin());
    for (const auto& patch : h.hook.pmemPatches) {
      std::uint32_t value = 0;
      switch (patch.source) {
        case core::HookProgram::PmemSource::FlowSig:
          value = core::hookFlowSig(flowHash, patch.salt);
          break;
        case core::HookProgram::PmemSource::SpinBit:
          value = spin & 1;
          break;
        case core::HookProgram::PmemSource::SpinInverse:
          value = 1u - (spin & 1);
          break;
      }
      h.pmem[patch.wordIndex] = value;
    }

    UnifiedAddressSpace mem(*this, meta);
    if (oracle_ != nullptr) oracle_->beginExecution(tmpl.taskId);
    const auto report = tcpu_.executeResident(h.instrs, h.pmem, tmpl.taskId,
                                              mem, tmpl.initialSp);
    ++hookExecutions_;
    if (tracer_ != nullptr) {
      tracer_->record(sim_.now(), sim::TraceKind::TcpuExecute, actor_,
                      tmpl.taskId, /*hopNumber=*/0,
                      static_cast<std::uint32_t>(report.executed),
                      static_cast<std::uint32_t>(report.fault),
                      static_cast<std::uint32_t>(report.cycles));
    }
  }
}

void Switch::enqueue(net::PacketPtr packet, std::size_t outPort,
                     std::size_t queueId) {
  auto& bank = banks_[outPort];
  auto& port = ports_[outPort];
  const std::size_t size = packet->size();
  port.updateIntegral(sim_.now());
  if (!bank.queue(queueId).enqueue(std::move(packet))) {
    ++port.txDrops;
    ++stats_.totalDrops;
    if (tracer_ != nullptr) {
      tracer_->record(sim_.now(), sim::TraceKind::PacketDrop, actor_, 0,
                      static_cast<std::uint32_t>(outPort),
                      static_cast<std::uint32_t>(queueId),
                      static_cast<std::uint32_t>(size));
    }
    return;
  }
  port.queuedBytesNow += size;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), sim::TraceKind::PacketEnqueue, actor_, 0,
                    static_cast<std::uint32_t>(outPort),
                    static_cast<std::uint32_t>(queueId),
                    static_cast<std::uint32_t>(size),
                    static_cast<std::uint32_t>(bank.queue(queueId).bytes()));
  }
  if (!bank.transmitting) startTransmit(outPort);
}

void Switch::startTransmit(std::size_t port) {
  auto& bank = banks_[port];
  const auto next = bank.nextNonEmpty(config_.scheduler ==
                                      SchedulerPolicy::StrictPriority);
  if (!next) {
    bank.transmitting = false;
    return;
  }
  net::PacketPtr packet = bank.queue(*next).dequeue();
  auto& stats = ports_[port];
  stats.updateIntegral(sim_.now());
  stats.queuedBytesNow -= packet->size();
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), sim::TraceKind::PacketDequeue, actor_, 0,
                    static_cast<std::uint32_t>(port),
                    static_cast<std::uint32_t>(*next),
                    static_cast<std::uint32_t>(packet->size()));
  }

  net::Channel* channel =
      port < portCount() ? txChannel(port) : nullptr;
  if (channel == nullptr) {  // unwired port: blackhole
    drop(*packet, port);
    bank.transmitting = false;
    return;
  }

  stats.txBytes += packet->size();
  ++stats.txPackets;
  ++stats_.totalTxPackets;
  const sim::Time done = channel->transmit(std::move(packet));
  bank.transmitting = true;
  sim_.scheduleAt(done, [this, port] {
    banks_[port].transmitting = false;
    startTransmit(port);
  });
}

void Switch::drop(const net::Packet& packet, std::size_t port) {
  ++stats_.totalDrops;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), sim::TraceKind::PacketDrop, actor_, 0,
                    static_cast<std::uint32_t>(port), 0,
                    static_cast<std::uint32_t>(packet.size()));
  }
}

void Switch::reboot() {
  std::fill(sram_.global.begin(), sram_.global.end(), 0u);
  for (auto& bank : sram_.perPort) std::fill(bank.begin(), bank.end(), 0u);
  sram_.allocator.clear();
  ++bootEpoch_;
  ++stats_.reboots;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), sim::TraceKind::SwitchReboot, actor_, 0,
                    bootEpoch_);
  }
}

std::optional<std::uint32_t> Switch::scratchRead(std::uint16_t address,
                                                 std::size_t port) const {
  const auto ns = MemoryMap::namespaceOf(address);
  if (ns == StatNamespace::Sram) {
    return sram_.global[address - core::kSramBase];
  }
  if (ns == StatNamespace::PortScratch && port < config_.ports) {
    return sram_.perPort[port][address - core::kPortScratchBase];
  }
  return std::nullopt;
}

bool Switch::scratchWrite(std::uint16_t address, std::uint32_t value,
                          std::size_t port) {
  const auto ns = MemoryMap::namespaceOf(address);
  if (ns == StatNamespace::Sram) {
    sram_.global[address - core::kSramBase] = value;
    return true;
  }
  if (ns == StatNamespace::PortScratch && port < config_.ports) {
    sram_.perPort[port][address - core::kPortScratchBase] = value;
    return true;
  }
  return false;
}

double Switch::offeredLoadBps(std::size_t port) {
  return ports_[port].offeredRate.rateBps(sim_.now());
}

std::uint64_t Switch::portOfferedBytes(std::size_t port) const {
  std::uint64_t total = 0;
  const auto& bank = banks_[port];
  for (std::size_t q = 0; q < bank.queueCount(); ++q) {
    total += bank.queue(q).stats().enqueuedBytes +
             bank.queue(q).stats().droppedBytes;
  }
  return total;
}

std::uint64_t Switch::portCapacityBps(std::size_t port) const {
  if (port >= portCount()) return 0;
  const net::Channel* ch = txChannel(port);
  return ch ? ch->rateBps() : 0;
}

}  // namespace tpp::asic
