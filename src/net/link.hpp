// Point-to-point links.
//
// Channel is one direction: a serializer (rate) plus a propagation pipe
// (delay). A transmit started while the serializer is busy begins when it
// frees — callers that need back-to-back scheduling (the switch egress
// scheduler, host NICs) use the returned completion time.
#pragma once

#include <cstdint>
#include <memory>

#include "src/net/ethernet.hpp"
#include "src/net/node.hpp"
#include "src/net/packet.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/simulator.hpp"

namespace tpp::net {

class Channel {
 public:
  Channel(sim::Simulator& simulator, std::uint64_t rateBps,
          sim::Time propagationDelay)
      : sim_(simulator), rateBps_(rateBps), propDelay_(propagationDelay) {}

  void attachReceiver(Node* rx, std::size_t rxPort) {
    rx_ = rx;
    rxPort_ = rxPort;
  }
  // Detaches the receiver (teardown, link removal). Packets already in
  // flight — and any transmitted afterwards — are counted as detached
  // drops instead of dereferencing a dead node.
  void detachReceiver() { rx_ = nullptr; }

  // Arms (or, with nullptr, disarms) fault injection on this channel. The
  // state is owned by a sim::FaultInjector and may be shared inspection-side
  // with the scenario that installed it.
  void setFaultState(sim::LinkFaultState* fault) { fault_ = fault; }
  const sim::LinkFaultState* faultState() const { return fault_; }

  // Arms (or disarms, with nullptr) the flight recorder on this channel.
  // `actor` is the tracer-interned id for this direction's display name.
  void setTracer(sim::Tracer* tracer, std::uint32_t actor) {
    tracer_ = tracer;
    actor_ = actor;
  }

  // Queues `packet` for serialization; returns the time serialization ends
  // (delivery happens propagationDelay later). Serialization time charges
  // the Ethernet preamble/FCS/IFG overhead on top of the buffer size.
  // Injected faults act "on the wire": a dropped or corrupted packet still
  // occupies the serializer, so fault plans never change link timing.
  sim::Time transmit(PacketPtr packet);

  bool idleAt(sim::Time t) const { return busyUntil_ <= t; }
  std::uint64_t rateBps() const { return rateBps_; }
  sim::Time propagationDelay() const { return propDelay_; }
  std::uint64_t packetsDelivered() const { return delivered_; }
  std::uint64_t bytesDelivered() const { return bytesDelivered_; }
  // Packets lost to an injected fault plan on this channel.
  std::uint64_t packetsFaultDropped() const { return faultDropped_; }
  // Packets discarded because no receiver was attached, at transmit or at
  // delivery time.
  std::uint64_t packetsDetachedDropped() const { return detachedDropped_; }

 private:
  sim::Simulator& sim_;
  std::uint64_t rateBps_;
  sim::Time propDelay_;
  Node* rx_ = nullptr;
  std::size_t rxPort_ = 0;
  sim::LinkFaultState* fault_ = nullptr;
  sim::Tracer* tracer_ = nullptr;
  std::uint32_t actor_ = 0;
  sim::Time busyUntil_ = sim::Time::zero();
  std::uint64_t delivered_ = 0;
  std::uint64_t bytesDelivered_ = 0;
  std::uint64_t faultDropped_ = 0;
  std::uint64_t detachedDropped_ = 0;
};

// Full-duplex link between (a, portA) and (b, portB).
class DuplexLink {
 public:
  static std::unique_ptr<DuplexLink> connect(sim::Simulator& simulator,
                                             Node& a, std::size_t portA,
                                             Node& b, std::size_t portB,
                                             std::uint64_t rateBps,
                                             sim::Time propagationDelay);

  Channel& aToB() { return *aToB_; }
  Channel& bToA() { return *bToA_; }

 private:
  DuplexLink() = default;
  std::unique_ptr<Channel> aToB_;
  std::unique_ptr<Channel> bToA_;
};

}  // namespace tpp::net
