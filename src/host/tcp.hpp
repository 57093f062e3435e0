// Reliable transport: a compact real TCP state machine over the simulated
// fabric (DESIGN.md §12).
//
// Deployment trick: segments ride as payloads of ordinary UDP datagrams
// (the QUIC encapsulation pattern), so the existing Ethernet+IPv4+UDP
// parser, routing, ECN and fault layers apply unchanged — a corrupted or
// dropped frame is exactly a corrupted or dropped segment. Each segment
// carries its own checksum; a bit flipped anywhere in the segment by the
// fault layer makes it indistinguishable from a loss and the retransmit
// machinery recovers it.
//
// The byte stream is synthetic: byte i of the stream is patternByte(i), a
// fixed function of the offset. The receiver verifies every in-order byte
// against the pattern instead of buffering megabytes, which is how the
// chaos suite proves "every byte delivered exactly once" cheaply:
// deliveredBytes() can only advance through the cumulative-ACK frontier,
// and patternErrors() counts any byte that survived the checksum but does
// not match its offset.
//
// What's modelled (the parts that matter under chaos): three-way
// handshake, cumulative ACKs with dup-ACK generation and out-of-order
// tracking at the receiver, SRTT/RTTVAR RTO (RFC 6298) with Karn's rule
// and capped exponential backoff, fast retransmit on 3 dup-ACKs with
// NewReno-style partial-ACK recovery, slow start / congestion avoidance /
// multiplicative decrease, FIN teardown from either side, and a give-up
// path that surfaces a connection error instead of retrying forever.
// Deliberately not modelled: TIME_WAIT (the simulator never reuses a
// 4-tuple), RST generation, SACK, delayed ACKs, and receiver-driven flow
// control beyond a fixed advertised window.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/host/host.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"

namespace tpp::host {

// ------------------------------------------------------------ wire format
//
// 20-byte segment header, big-endian, carried as UDP payload:
//   off 0  u8  flags (SYN=1, ACK=2, FIN=4)
//   off 1  u8  spin bit (bit 0; remaining bits reserved, must be 0)
//   off 2  u16 payload length
//   off 4  u32 seq
//   off 8  u32 ack (valid when ACK set)
//   off 12 u32 advertised window (bytes)
//   off 16 u32 checksum: the ones'-complement sum of the segment's
//              little-endian 32-bit words (this field read as zero, a
//              short tail zero-padded), folded to 32 bits. A single-bit
//              flip changes the sum by ±2^k mod 2^32-1, never by 0, so the
//              fault layer's one-bit corruptions are always caught.
struct TcpSegment {
  static constexpr std::size_t kHeaderBytes = 20;
  static constexpr std::uint8_t kSyn = 1;
  static constexpr std::uint8_t kAck = 2;
  static constexpr std::uint8_t kFin = 4;

  std::uint8_t flags = 0;
  // Passive-RTT spin bit (QUIC RFC 9000 §17.4 pattern, DESIGN.md §14): the
  // active opener sends the inverse of the last bit it saw, the passive
  // side echoes it, so the bit flips once per round trip and any on-path
  // observer can estimate the RTT from flip spacing alone. Covered by the
  // segment checksum like every other header byte.
  std::uint8_t spin = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint32_t wnd = 0;
  std::span<const std::uint8_t> payload;

  bool syn() const { return (flags & kSyn) != 0; }
  bool hasAck() const { return (flags & kAck) != 0; }
  bool fin() const { return (flags & kFin) != 0; }

  // Writes this header, all but the checksum, at the front of `segment`,
  // whose size fixes the payload length. The one header writer: the
  // caller then fills the payload and calls seal().
  void writeHeader(std::span<std::uint8_t> segment) const;
  // Stores the checksum of a complete segment (header + payload).
  static void seal(std::span<std::uint8_t> segment);
  // Serializes header+payload into `out` (resized), checksum filled in.
  void serialize(std::vector<std::uint8_t>& out) const;
  // Parses and checksum-verifies. nullopt = truncated or corrupt.
  static std::optional<TcpSegment> parse(std::span<const std::uint8_t> bytes);
};

inline constexpr std::uint64_t kTcpPatternStep = 0x9E3779B97F4A7C15ull;

// Byte i of every synthetic TCP stream: the definition the fill and the
// check below agree with.
inline std::uint8_t tcpPatternByte(std::uint64_t streamOffset) {
  std::uint64_t x = (streamOffset + 1) * kTcpPatternStep;
  x ^= x >> 29;
  return static_cast<std::uint8_t>(x);
}

// out[i] = tcpPatternByte(streamOffset + i). The multiplier steps by one
// addition per byte instead of a multiply, so the compiler can vectorize.
void tcpPatternFill(std::span<std::uint8_t> out, std::uint64_t streamOffset);

// How many bytes[i] differ from tcpPatternByte(streamOffset + i), counted
// without a branch per byte.
std::uint64_t tcpPatternMismatches(std::span<const std::uint8_t> bytes,
                                   std::uint64_t streamOffset);

class TcpConnection {
 public:
  enum class State : std::uint8_t {
    Closed,       // initial, and final (clean close, give-up, or failure)
    SynSent,      // active open: SYN in flight
    SynReceived,  // passive open: SYN+ACK in flight
    Established,
    FinWait1,     // our FIN sent, not yet acked
    FinWait2,     // our FIN acked, waiting for the peer's
    Closing,      // both FINs seen, ours not yet acked
    CloseWait,    // peer FIN seen, ours not yet sent
    LastAck,      // our FIN sent after the peer's, not yet acked
  };

  struct Config {
    std::uint32_t mss = 1000;               // payload bytes per segment
    std::uint32_t initialCwndSegments = 4;  // IW in segments
    std::uint32_t rcvWndBytes = 256 * 1024; // fixed advertised window
    std::uint32_t initialSeq = 1000;        // deterministic ISS
    sim::Time initialRto = sim::Time::ms(10);  // before the first RTT sample
    sim::Time minRto = sim::Time::ms(2);
    sim::Time maxRto = sim::Time::ms(200);  // backoff cap
    // Consecutive timeouts of one segment before the connection gives up
    // and surfaces an error (the no-stuck-connections guarantee).
    unsigned maxRetries = 10;
    // Passive side: answer the peer's FIN with our own immediately.
    bool autoClose = true;
    std::uint16_t taskId = 0;  // flight-recorder attribution
  };

  TcpConnection(Host& host, Config config);
  ~TcpConnection();

  // Active open: handshake, then stream `sendBytes` pattern bytes, then
  // FIN. The connection binds `localPort` on its host for the reply path.
  void connect(net::MacAddress dstMac, net::Ipv4Address dstIp,
               std::uint16_t dstPort, std::uint16_t localPort,
               std::uint64_t sendBytes);

  // Queues `bytes` more pattern bytes (only before close() takes effect).
  void send(std::uint64_t bytes);
  // Half-closes the local side once everything queued has been sent.
  void close();

  // ------------------------------------------------------------ callbacks
  void onEstablished(std::function<void()> fn) { established_ = std::move(fn); }
  // Clean teardown: both FINs sent and acked.
  void onClosed(std::function<void()> fn) { closed_ = std::move(fn); }
  // Give-up: the retransmission limit expired. The connection is Closed,
  // failed() is true, and error() holds the reason.
  void onError(std::function<void(const std::string&)> fn) {
    errorCb_ = std::move(fn);
  }

  // --------------------------------------------------------------- status
  State state() const { return state_; }
  bool established() const { return state_ == State::Established; }
  bool closedCleanly() const { return state_ == State::Closed && wasOpen_ && !failed_; }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  // Closed one way or the other — the negation of "stuck".
  bool done() const { return state_ == State::Closed && (wasOpen_ || failed_); }

  std::uint16_t localPort() const { return localPort_; }
  std::uint16_t remotePort() const { return remotePort_; }
  net::MacAddress remoteMac() const { return remoteMac_; }
  net::Ipv4Address remoteIp() const { return remoteIp_; }

  // --------------------------------------------------------------- sender
  std::uint64_t bytesQueued() const { return bytesQueued_; }
  std::uint64_t bytesAcked() const;
  std::uint32_t cwndBytes() const { return cwnd_; }
  std::uint32_t ssthreshBytes() const { return ssthresh_; }
  sim::Time srtt() const { return srtt_; }
  sim::Time rto() const { return rto_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t fastRetransmits() const { return fastRetransmits_; }
  std::uint64_t rtoFires() const { return rtoFires_; }
  std::uint64_t cwndCuts() const { return cwndCuts_; }
  std::uint64_t dupAcksSeen() const { return dupAcksSeen_; }

  // External congestion hook (the TPP controller): multiplies cwnd by
  // `factor` (also lowering ssthresh), flooring at one mss. `reason` lands
  // in the TcpCwndCut trace record.
  void cutCwnd(double factor, std::uint32_t reason);

  // ------------------------------------------------------------- receiver
  std::uint64_t deliveredBytes() const { return deliveredBytes_; }
  std::uint64_t patternErrors() const { return patternErrors_; }
  std::uint64_t checksumDrops() const { return checksumDrops_; }
  std::uint64_t dupSegments() const { return dupSegments_; }
  std::uint64_t dupAcksSent() const { return dupAcksSent_; }
  std::uint64_t outOfOrderSegments() const { return outOfOrderSegments_; }

  // When the connection reached Established / Closed (for FCT accounting).
  std::optional<sim::Time> establishedAt() const { return establishedAt_; }
  std::optional<sim::Time> closedAt() const { return closedAt_; }

 private:
  friend class TcpListener;

  struct TxSeg {
    std::uint32_t seq = 0;
    std::uint16_t len = 0;  // payload bytes (0 for pure SYN/FIN)
    bool syn = false;
    bool fin = false;
    bool retransmitted = false;  // Karn: never RTT-sample these
    sim::Time sentAt;
  };

  // Passive open, invoked by the listener on an inbound SYN.
  void accept(const TcpSegment& syn, net::MacAddress peerMac,
              net::Ipv4Address peerIp, std::uint16_t peerPort,
              std::uint16_t localPort);

  // The passive side's reply MAC comes from frames' Ethernet source field,
  // which the TCP checksum does not cover — a bit flip there yields a valid
  // segment with a poisoned reply address, and every reply goes to a void.
  // So every checksum-valid frame from the right (ip, port) re-learns it:
  // a single corrupted-source frame can poison the address for one round,
  // but the peer's retransmission (intact with high probability) repairs
  // it, so a persistent blackout would need the corruption to hit the same
  // six bytes in every frame.
  void relearnPeerMac(net::MacAddress mac) { remoteMac_ = mac; }

  void onDatagram(const UdpDatagram& dgram);
  void onSegment(const TcpSegment& seg);
  void processAck(const TcpSegment& seg);
  void processPayload(const TcpSegment& seg);
  void maybeSendData();
  void sendQueuedSegment(const TxSeg& seg, bool isRetransmit);
  void sendPureAck();
  void emitSegment(std::uint8_t flags, std::uint32_t seq, std::uint32_t len);
  void armRtoTimer();
  void onRtoFire();
  void enterRecovery(std::uint32_t reason);
  void retransmitFront(bool fast);
  void sampleRtt(sim::Time rttSample);
  void onOurFinAcked();
  void onPeerFin();
  void finishClose();
  void fail(std::string reason);
  void trace(sim::TraceKind kind, std::uint32_t a, std::uint32_t b,
             std::uint32_t c, std::uint32_t d = 0);
  std::uint32_t flightSize() const { return sndNxt_ - sndUna_; }
  std::uint64_t dataLimitSeq() const;

  Host& host_;
  Config cfg_;
  State state_ = State::Closed;
  bool wasOpen_ = false;   // reached Established at least once
  bool failed_ = false;
  std::string error_;

  net::MacAddress remoteMac_{};
  net::Ipv4Address remoteIp_{};
  std::uint16_t remotePort_ = 0;
  std::uint16_t localPort_ = 0;
  bool boundPort_ = false;

  // Send side (all sequence arithmetic is mod-2^32 like real TCP, but the
  // streams here never wrap).
  std::uint32_t iss_ = 0;
  std::uint32_t sndUna_ = 0;
  std::uint32_t sndNxt_ = 0;
  std::uint32_t sndMax_ = 0;  // highest sndNxt ever (ack-validity ceiling)
  std::uint64_t bytesQueued_ = 0;
  bool finQueued_ = false;
  bool finSent_ = false;
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0;
  std::uint32_t peerWnd_ = 0;
  std::deque<TxSeg> txq_;  // unacked segments, front = oldest
  unsigned dupAckRun_ = 0;
  bool inRecovery_ = false;
  std::uint32_t recover_ = 0;  // sndNxt at the last recovery entry
  // Highest sndNxt ever rewound past by the go-back-N timeout path: bytes
  // below it re-emitted by maybeSendData are retransmissions (Karn).
  std::uint32_t rexmitHighWater_ = 0;

  // RTO state.
  bool haveRttSample_ = false;
  sim::Time srtt_ = sim::Time::zero();
  sim::Time rttvar_ = sim::Time::zero();
  sim::Time rto_ = sim::Time::zero();
  unsigned consecutiveRtos_ = 0;
  sim::EventHandle rtoTimer_;

  // Receive side.
  std::uint32_t irs_ = 0;
  std::uint32_t rcvNxt_ = 0;
  // Out-of-order segments already checksum- and pattern-verified: seq →
  // payload length. Pattern payloads need no byte storage.
  std::map<std::uint32_t, std::uint16_t> ooo_;
  bool peerFinSeen_ = false;
  std::uint32_t peerFinSeq_ = 0;

  // Counters.
  std::uint64_t deliveredBytes_ = 0;
  std::uint64_t patternErrors_ = 0;
  std::uint64_t checksumDrops_ = 0;
  std::uint64_t dupSegments_ = 0;
  std::uint64_t dupAcksSent_ = 0;
  std::uint64_t dupAcksSeen_ = 0;
  std::uint64_t outOfOrderSegments_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t fastRetransmits_ = 0;
  std::uint64_t rtoFires_ = 0;
  std::uint64_t cwndCuts_ = 0;

  // Spin-bit state: the active opener (connect()) inverts the last bit
  // seen from the peer; the passive side echoes it.
  bool spinClient_ = false;
  std::uint8_t peerSpin_ = 0;

  std::optional<sim::Time> establishedAt_;
  std::optional<sim::Time> closedAt_;

  std::function<void()> established_;
  std::function<void()> closed_;
  std::function<void(const std::string&)> errorCb_;
};

// Accepts inbound connections on one UDP-encapsulated TCP port and demuxes
// subsequent segments to the per-peer connection (keyed by peer IP:port).
// Accepted connections live as long as the listener.
class TcpListener {
 public:
  TcpListener(Host& host, std::uint16_t port,
              TcpConnection::Config config = {});

  // Fires on each new connection, before the SYN is processed, so callers
  // can attach callbacks that see every transition.
  void onAccept(std::function<void(TcpConnection&)> fn) {
    accept_ = std::move(fn);
  }

  std::size_t connectionCount() const { return order_.size(); }
  TcpConnection& connection(std::size_t i) { return *order_.at(i); }
  std::uint64_t checksumDrops() const { return checksumDrops_; }

  // Aggregates across every accepted connection.
  std::uint64_t deliveredBytes() const;
  std::uint64_t patternErrors() const;

 private:
  void onDatagram(const UdpDatagram& dgram);

  Host& host_;
  std::uint16_t port_;
  TcpConnection::Config config_;
  std::function<void(TcpConnection&)> accept_;
  std::map<std::uint64_t, std::unique_ptr<TcpConnection>> byPeer_;
  std::vector<TcpConnection*> order_;  // in accept order
  // Failed connections displaced by a fresh SYN from the same peer (port
  // reuse). Kept alive because order_ still points at them.
  std::vector<std::unique_ptr<TcpConnection>> displaced_;
  std::uint64_t checksumDrops_ = 0;
};

}  // namespace tpp::host
