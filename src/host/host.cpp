#include "src/host/host.hpp"

#include <cassert>

#include "src/asic/parser.hpp"
#include "src/net/byte_io.hpp"

namespace tpp::host {

Host::Host(sim::Simulator& simulator, std::string name, net::MacAddress mac,
           net::Ipv4Address ip)
    : net::Node(std::move(name)), sim_(simulator), mac_(mac), ip_(ip) {}

net::PacketPtr Host::makeUdpFrame(net::MacAddress dstMac,
                                   net::Ipv4Address dstIp,
                                   std::uint16_t srcPort,
                                   std::uint16_t dstPort,
                                   std::size_t payloadBytes) {
  const std::size_t ipLen =
      net::kIpv4HeaderSize + net::kUdpHeaderSize + payloadBytes;
  const std::size_t frameLen = net::kEthernetHeaderSize + ipLen;
  auto packet = net::Packet::make(std::max(frameLen, net::kMinFrameSize));
  packet->createdAt = sim_.now();

  net::EthernetHeader eth{dstMac, mac_, net::kEtherTypeIpv4};
  eth.write(packet->span());

  net::Ipv4Header ip;
  ip.totalLength = static_cast<std::uint16_t>(ipLen);
  ip.identification = nextIpId_++;
  ip.src = ip_;
  ip.dst = dstIp;
  ip.write(packet->span().subspan(net::kEthernetHeaderSize));

  net::UdpHeader udp;
  udp.srcPort = srcPort;
  udp.dstPort = dstPort;
  udp.length = static_cast<std::uint16_t>(net::kUdpHeaderSize + payloadBytes);
  udp.write(packet->span().subspan(net::kEthernetHeaderSize +
                                   net::kIpv4HeaderSize));
  return packet;
}

net::PacketPtr Host::makeUdpFrame(net::MacAddress dstMac,
                                   net::Ipv4Address dstIp,
                                   std::uint16_t srcPort,
                                   std::uint16_t dstPort,
                                   std::span<const std::uint8_t> payload) {
  auto packet = makeUdpFrame(dstMac, dstIp, srcPort, dstPort, payload.size());
  std::copy(payload.begin(), payload.end(),
            packet->bytes().begin() +
                static_cast<std::ptrdiff_t>(kUdpPayloadOffset));
  return packet;
}

sim::Time Host::transmit(net::PacketPtr packet) {
  net::Channel* ch = portCount() > 0 ? txChannel(0) : nullptr;
  assert(ch != nullptr && "host NIC is not wired to a link");
  ++sent_;
  return ch->transmit(std::move(packet));
}

sim::Time Host::sendUdp(net::MacAddress dstMac, net::Ipv4Address dstIp,
                        std::uint16_t srcPort, std::uint16_t dstPort,
                        std::span<const std::uint8_t> payload) {
  return transmit(makeUdpFrame(dstMac, dstIp, srcPort, dstPort, payload));
}

net::PacketPtr Host::makeProbeFrame(net::MacAddress dstMac,
                                    net::Ipv4Address dstIp,
                                    const core::Program& program) {
  // The probe encapsulates a minimal UDP datagram to the echo port so the
  // destination host knows to send the executed program back. All three
  // layers are serialized straight into one pooled packet — this is the
  // probe hot path and must stay allocation-free in steady state.
  const std::size_t tppBytes = program.wireBytes();
  const std::size_t ipLen = net::kIpv4HeaderSize + net::kUdpHeaderSize;
  // The encapsulated datagram is padded as a standalone minimum-size frame
  // would be (sans Ethernet header) — the wire format probes have always
  // had, and what the echoed-bytes golden traces pin down.
  const std::size_t innerBytes =
      std::max(net::kEthernetHeaderSize + ipLen, net::kMinFrameSize) -
      net::kEthernetHeaderSize;
  const std::size_t frameLen = net::kEthernetHeaderSize + tppBytes + innerBytes;
  auto packet = net::Packet::make(std::max(frameLen, net::kMinFrameSize));
  packet->createdAt = sim_.now();

  net::EthernetHeader eth{dstMac, mac_, net::kEtherTypeTpp};
  eth.write(packet->span());
  core::writeTpp(packet->span(), net::kEthernetHeaderSize, program,
                 net::kEtherTypeIpv4);

  const std::size_t ipOff = net::kEthernetHeaderSize + tppBytes;
  net::Ipv4Header ip;
  ip.totalLength = static_cast<std::uint16_t>(ipLen);
  ip.identification = nextIpId_++;
  ip.src = ip_;
  ip.dst = dstIp;
  ip.write(packet->span().subspan(ipOff));

  net::UdpHeader udp;
  udp.srcPort = kTppEchoPort;
  udp.dstPort = kTppEchoPort;
  udp.length = net::kUdpHeaderSize;
  udp.write(packet->span().subspan(ipOff + net::kIpv4HeaderSize));
  return packet;
}

sim::Time Host::sendProbe(net::MacAddress dstMac, net::Ipv4Address dstIp,
                          const core::Program& program) {
  return transmit(makeProbeFrame(dstMac, dstIp, program));
}

sim::Time Host::sendUdpWithTpp(net::MacAddress dstMac, net::Ipv4Address dstIp,
                               std::uint16_t srcPort, std::uint16_t dstPort,
                               std::span<const std::uint8_t> payload,
                               const core::Program& program) {
  auto packet = makeUdpFrame(dstMac, dstIp, srcPort, dstPort, payload);
  core::insertTppShim(*packet, program);
  return transmit(std::move(packet));
}

void Host::bindUdp(std::uint16_t port, UdpHandler handler) {
  udpHandlers_[port] = std::move(handler);
}

void Host::receive(net::PacketPtr packet, std::size_t port) {
  (void)port;
  ++received_;
  bytesReceived_ += packet->size();

  auto parsed = asic::parsePacket(*packet);
  if (!parsed) return;
  if (parsed->eth.dst != mac_ && !parsed->eth.dst.isBroadcast()) return;

  if (parsed->tppOffset) {
    // A live TPP reached us. Surface it, then either echo it (probe) or
    // strip it and deliver the inner datagram (shimmed data packet).
    if (!tppArrival_.empty() &&
        core::parseExecutedInto(packet->span().subspan(*parsed->tppOffset),
                                echoScratch_)) {
      for (const auto& handler : tppArrival_) handler(echoScratch_);
    }
    if (parsed->ip && parsed->udp && parsed->udp->dstPort == kTppEchoPort) {
      echoExecutedTpp(*packet, *parsed);
      return;
    }
    if (!core::stripTppShim(*packet)) return;
    // Stripping moved every header after the shim: parse the frame again.
    parsed = asic::parsePacket(*packet);
    if (!parsed) return;
  }
  deliverUdp(*packet, *parsed);
}

void Host::echoExecutedTpp(net::Packet& packet,
                           const asic::ParsedPacket& parsed) {
  auto view = core::TppView::at(packet, *parsed.tppOffset);
  if (!view) return;
  const std::size_t body = view->tppSizeBytes();
  std::span<const std::uint8_t> tppBytes =
      packet.span().subspan(*parsed.tppOffset, body);
  ++echoed_;
  sendUdp(parsed.eth.src, parsed.ip->src, parsed.udp->dstPort,
          parsed.udp->srcPort, tppBytes);
}

void Host::deliverUdp(const net::Packet& packet,
                      const asic::ParsedPacket& parsed) {
  if (!parsed.ip || !parsed.udp) return;
  if (parsed.ip->dst != ip_) return;

  // Echo-port traffic carries executed TPP bytes as its payload.
  if (parsed.udp->dstPort == kTppEchoPort ||
      parsed.udp->srcPort == kTppEchoPort) {
    if (!tppResult_.empty()) {
      // Parse an ExecutedTpp straight out of the payload bytes, reusing the
      // scratch object's capacity (steady-state echoes allocate nothing).
      const std::size_t payloadLen =
          parsed.udp->length >= net::kUdpHeaderSize
              ? parsed.udp->length - net::kUdpHeaderSize
              : 0;
      if (parsed.l4PayloadOffset + payloadLen <= packet.size() &&
          payloadLen > 0 &&
          core::parseExecutedInto(
              packet.span().subspan(parsed.l4PayloadOffset, payloadLen),
              echoScratch_)) {
        for (const auto& handler : tppResult_) handler(echoScratch_);
      }
    }
    return;
  }

  const auto it = udpHandlers_.find(parsed.udp->dstPort);
  if (it == udpHandlers_.end()) return;
  const std::size_t payloadLen =
      parsed.udp->length >= net::kUdpHeaderSize
          ? parsed.udp->length - net::kUdpHeaderSize
          : 0;
  if (parsed.l4PayloadOffset + payloadLen > packet.size()) return;
  UdpDatagram dgram;
  dgram.srcMac = parsed.eth.src;
  dgram.srcIp = parsed.ip->src;
  dgram.dstIp = parsed.ip->dst;
  dgram.srcPort = parsed.udp->srcPort;
  dgram.dstPort = parsed.udp->dstPort;
  dgram.ecn = parsed.ip->ecn;
  dgram.payload = packet.span().subspan(parsed.l4PayloadOffset, payloadLen);
  dgram.packet = &packet;
  it->second(dgram);
}

}  // namespace tpp::host
