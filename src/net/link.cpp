#include "src/net/link.hpp"

#include <algorithm>
#include <cassert>

namespace tpp::net {

sim::Time Channel::transmit(PacketPtr packet) {
  const sim::Time start = std::max(busyUntil_, sim_.now());
  const std::size_t wireBytes = packet->size() + kEthernetWireOverhead;
  const sim::Time end = start + sim::transmissionTime(wireBytes, rateBps_);
  busyUntil_ = end;
  if (tracer_ != nullptr) {
    const auto endNanos = static_cast<std::uint64_t>(end.nanos());
    tracer_->record(sim_.now(), sim::TraceKind::LinkTxStart, actor_, 0,
                    static_cast<std::uint32_t>(wireBytes),
                    static_cast<std::uint32_t>(endNanos),
                    static_cast<std::uint32_t>(endNanos >> 32));
  }
  if (rx_ == nullptr) {
    // Detached mid-teardown: the wire still serializes, the frame goes
    // nowhere. Counted, not dereferenced.
    ++detachedDropped_;
    if (tracer_ != nullptr) {
      tracer_->record(sim_.now(), sim::TraceKind::LinkDetachedDrop, actor_, 0,
                      static_cast<std::uint32_t>(packet->size()));
    }
    return end;
  }
  if (fault_ != nullptr) {
    switch (fault_->onTransmit()) {
      case sim::LinkFaultState::Verdict::Drop:
        ++faultDropped_;
        if (tracer_ != nullptr) {
          tracer_->record(sim_.now(), sim::TraceKind::LinkFaultDrop, actor_, 0,
                          static_cast<std::uint32_t>(packet->size()));
        }
        return end;
      case sim::LinkFaultState::Verdict::Corrupt: {
        const auto [byte, bit] = fault_->corruptionTarget(packet->size());
        if (byte < packet->size()) {
          packet->bytes()[byte] ^= static_cast<std::uint8_t>(1u << bit);
        }
        if (tracer_ != nullptr) {
          tracer_->record(sim_.now(), sim::TraceKind::LinkFaultCorrupt, actor_,
                          0, static_cast<std::uint32_t>(byte),
                          static_cast<std::uint32_t>(bit));
        }
        break;
      }
      case sim::LinkFaultState::Verdict::Deliver:
        break;
    }
  }
  const std::size_t payloadBytes = packet->size();
  // Deliver after serialization + propagation. EventFn is move-aware, so
  // the packet rides in the closure directly — no heap shim.
  sim_.scheduleAt(end + propDelay_, [this, p = std::move(packet),
                                     payloadBytes]() mutable {
    if (rx_ == nullptr) {
      // Receiver detached while the frame was in flight.
      ++detachedDropped_;
      return;
    }
    ++delivered_;
    bytesDelivered_ += payloadBytes;
    if (tracer_ != nullptr) {
      tracer_->record(sim_.now(), sim::TraceKind::LinkDeliver, actor_, 0,
                      static_cast<std::uint32_t>(payloadBytes));
    }
    rx_->receive(std::move(p), rxPort_);
  });
  return end;
}

void Node::attachPort(std::size_t port, Channel* tx) {
  if (txChannels_.size() <= port) txChannels_.resize(port + 1, nullptr);
  assert(txChannels_[port] == nullptr && "port already wired");
  txChannels_[port] = tx;
}

std::unique_ptr<DuplexLink> DuplexLink::connect(sim::Simulator& simulator,
                                                Node& a, std::size_t portA,
                                                Node& b, std::size_t portB,
                                                std::uint64_t rateBps,
                                                sim::Time propagationDelay) {
  auto link = std::unique_ptr<DuplexLink>(new DuplexLink);
  link->aToB_ =
      std::make_unique<Channel>(simulator, rateBps, propagationDelay);
  link->bToA_ =
      std::make_unique<Channel>(simulator, rateBps, propagationDelay);
  link->aToB_->attachReceiver(&b, portB);
  link->bToA_->attachReceiver(&a, portA);
  a.attachPort(portA, link->aToB_.get());
  b.attachPort(portB, link->bToA_.get());
  return link;
}

}  // namespace tpp::net
