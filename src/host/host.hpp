// End-host: the smart edge of the TPP architecture ("smartness at the
// edge", §3). A Host owns a NIC port, a tiny UDP stack, and the TPP probe
// machinery: sending programs, echoing fully-executed TPPs back to their
// sender, and delivering results to registered handlers.
//
// Echo convention: a TPP whose inner UDP datagram targets kTppEchoPort is a
// probe. The receiving host strips the executed TPP (header + instructions
// + packet memory), wraps those bytes as the payload of a plain UDP packet,
// and returns it to the prober (§2.2: "the receiver simply echos a fully
// executed TPP back to the sender"). Returning it as payload rather than as
// a live TPP keeps the reverse path from executing the program a second
// time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "src/core/program.hpp"
#include "src/net/ipv4.hpp"
#include "src/net/link.hpp"
#include "src/net/node.hpp"
#include "src/sim/simulator.hpp"

namespace tpp::asic {
struct ParsedPacket;
}  // namespace tpp::asic

namespace tpp::host {

inline constexpr std::uint16_t kTppEchoPort = 11111;

// Where the UDP payload starts in a frame built by Host::makeUdpFrame.
inline constexpr std::size_t kUdpPayloadOffset =
    net::kEthernetHeaderSize + net::kIpv4HeaderSize + net::kUdpHeaderSize;

struct UdpDatagram {
  // The frame's Ethernet source: the reply address for passive openers.
  net::MacAddress srcMac;
  net::Ipv4Address srcIp;
  net::Ipv4Address dstIp;
  std::uint16_t srcPort = 0;
  std::uint16_t dstPort = 0;
  std::uint8_t ecn = 0;  // RFC 3168 codepoint from the IP header
  std::span<const std::uint8_t> payload;
  const net::Packet* packet = nullptr;  // full frame, for advanced handlers
};

class Host : public net::Node {
 public:
  Host(sim::Simulator& simulator, std::string name, net::MacAddress mac,
       net::Ipv4Address ip);

  net::MacAddress mac() const { return mac_; }
  net::Ipv4Address ip() const { return ip_; }
  sim::Simulator& simulator() { return sim_; }

  void receive(net::PacketPtr packet, std::size_t port) override;

  // --------------------------------------------------------------- sending
  // Builds and transmits an Ethernet+IPv4+UDP frame. `dstMac` is the final
  // receiver's MAC (the simulated fabric routes on L3 but does not rewrite
  // MACs). Returns the serialization-complete time at the NIC.
  sim::Time sendUdp(net::MacAddress dstMac, net::Ipv4Address dstIp,
                    std::uint16_t srcPort, std::uint16_t dstPort,
                    std::span<const std::uint8_t> payload);

  // Transmits `program` as a standalone probe TPP addressed to the echo
  // service of the destination host. The echoed result arrives at the
  // handler registered with onTppResult().
  sim::Time sendProbe(net::MacAddress dstMac, net::Ipv4Address dstIp,
                      const core::Program& program);

  // Transmits a UDP datagram with `program` shimmed onto it (the §2.3
  // "insert the TPP on all its packets" pattern).
  sim::Time sendUdpWithTpp(net::MacAddress dstMac, net::Ipv4Address dstIp,
                           std::uint16_t srcPort, std::uint16_t dstPort,
                           std::span<const std::uint8_t> payload,
                           const core::Program& program);

  // Raw frame transmit (used by flows that build their own packets).
  sim::Time transmit(net::PacketPtr packet);

  // Builds (but does not send) an Ethernet+IPv4+UDP frame from this host.
  // Public so flows can decorate packets (RCP headers, TPP shims) before
  // handing them to transmit().
  net::PacketPtr makeUdpFrame(net::MacAddress dstMac, net::Ipv4Address dstIp,
                              std::uint16_t srcPort, std::uint16_t dstPort,
                              std::span<const std::uint8_t> payload);
  // The same frame with a zeroed `payloadBytes`-long payload at
  // kUdpPayloadOffset, for callers that serialize straight into it.
  net::PacketPtr makeUdpFrame(net::MacAddress dstMac, net::Ipv4Address dstIp,
                              std::uint16_t srcPort, std::uint16_t dstPort,
                              std::size_t payloadBytes);

  // Builds (but does not send) the probe frame sendProbe() would transmit.
  // The ReliableProber builds each probe's frame once and clones it for
  // retransmits, so retries skip re-serialization entirely.
  net::PacketPtr makeProbeFrame(net::MacAddress dstMac, net::Ipv4Address dstIp,
                                const core::Program& program);

  // ------------------------------------------------------------- receiving
  using UdpHandler = std::function<void(const UdpDatagram&)>;
  // Registers a handler for UDP datagrams to `port`. One handler per port.
  void bindUdp(std::uint16_t port, UdpHandler handler);

  using TppResultHandler = std::function<void(const core::ExecutedTpp&)>;
  // Adds a handler for echoed probe results (parsed from echo payloads).
  // Handlers accumulate, so several tasks (RCP*, ndb, monitoring) can share
  // one host; each sees every result and filters by program shape/taskId.
  void onTppResult(TppResultHandler handler) {
    tppResult_.push_back(std::move(handler));
  }

  // Adds a handler for TPPs that arrive shimmed onto packets addressed to
  // us (invoked before the shim is stripped and the datagram delivered).
  void onTppArrival(TppResultHandler handler) {
    tppArrival_.push_back(std::move(handler));
  }

  // ------------------------------------------------------------ statistics
  std::uint64_t packetsSent() const { return sent_; }
  std::uint64_t packetsReceived() const { return received_; }
  std::uint64_t bytesReceived() const { return bytesReceived_; }
  std::uint64_t probesEchoed() const { return echoed_; }

  // ------------------------------------------------------------- telemetry
  // Arms the flight recorder for this host's probe machinery (the
  // ReliableProber reads the tracer through these accessors on every send
  // and echo). nullptr disarms.
  void setTracer(sim::Tracer* tracer) {
    tracer_ = tracer;
    actor_ = tracer != nullptr ? tracer->actor(name()) : 0;
  }
  sim::Tracer* tracer() const { return tracer_; }
  std::uint32_t tracerActor() const { return actor_; }

 private:
  // Both take the frame's one parse from receive().
  void deliverUdp(const net::Packet& packet, const asic::ParsedPacket& parsed);
  void echoExecutedTpp(net::Packet& packet, const asic::ParsedPacket& parsed);

  sim::Simulator& sim_;
  net::MacAddress mac_;
  net::Ipv4Address ip_;
  std::map<std::uint16_t, UdpHandler> udpHandlers_;
  std::vector<TppResultHandler> tppResult_;
  std::vector<TppResultHandler> tppArrival_;
  // Reused across echo deliveries so the probe feedback path stays
  // allocation-free; handlers must not retain the reference.
  core::ExecutedTpp echoScratch_;
  sim::Tracer* tracer_ = nullptr;
  std::uint32_t actor_ = 0;
  std::uint16_t nextIpId_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t bytesReceived_ = 0;
  std::uint64_t echoed_ = 0;
};

}  // namespace tpp::host
