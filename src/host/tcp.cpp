#include "src/host/tcp.hpp"

#include <algorithm>
#include <cassert>

#include "src/net/byte_io.hpp"

namespace tpp::host {

namespace {

// Wrap-safe 32-bit sequence comparisons (RFC 793 arithmetic).
bool seqLt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seqLe(std::uint32_t a, std::uint32_t b) { return !seqLt(b, a); }
bool seqGt(std::uint32_t a, std::uint32_t b) { return seqLt(b, a); }
bool seqGe(std::uint32_t a, std::uint32_t b) { return !seqLt(a, b); }

std::uint32_t loadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Ones'-complement sum of the segment's little-endian 32-bit words in a
// 64-bit accumulator, the checksum word (bytes 16..19) read as zero and a
// short tail zero-padded, folded to 32 bits. `bytes` holds at least the
// header.
std::uint32_t segmentChecksum(std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < 16; i += 4) sum += loadLe32(p + i);
  std::size_t i = TcpSegment::kHeaderBytes;
  for (; i + 4 <= n; i += 4) sum += loadLe32(p + i);
  std::uint8_t tail[4] = {};
  std::copy(p + i, p + n, tail);
  sum += loadLe32(tail);
  sum = (sum & 0xffffffffu) + (sum >> 32);
  sum = (sum & 0xffffffffu) + (sum >> 32);
  return static_cast<std::uint32_t>(sum);
}

}  // namespace

// ----------------------------------------------------------- TcpSegment

void TcpSegment::writeHeader(std::span<std::uint8_t> segment) const {
  segment[0] = flags;
  segment[1] = static_cast<std::uint8_t>(spin & 1);
  net::putBe16(segment, 2,
               static_cast<std::uint16_t>(segment.size() - kHeaderBytes));
  net::putBe32(segment, 4, seq);
  net::putBe32(segment, 8, ack);
  net::putBe32(segment, 12, wnd);
}

void TcpSegment::seal(std::span<std::uint8_t> segment) {
  net::putBe32(segment, 16, segmentChecksum(segment));
}

void TcpSegment::serialize(std::vector<std::uint8_t>& out) const {
  out.resize(kHeaderBytes + payload.size());
  writeHeader(out);
  std::copy(payload.begin(), payload.end(), out.begin() + kHeaderBytes);
  seal(out);
}

std::optional<TcpSegment> TcpSegment::parse(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  const std::uint16_t len = *net::getBe16(bytes, 2);
  if (bytes.size() != kHeaderBytes + len) return std::nullopt;
  if ((bytes[1] & ~1) != 0) return std::nullopt;  // only the spin bit may be set
  if (segmentChecksum(bytes) != *net::getBe32(bytes, 16)) return std::nullopt;
  TcpSegment s;
  s.flags = bytes[0];
  s.spin = bytes[1] & 1;
  s.seq = *net::getBe32(bytes, 4);
  s.ack = *net::getBe32(bytes, 8);
  s.wnd = *net::getBe32(bytes, 12);
  s.payload = bytes.subspan(kHeaderBytes);
  return s;
}

// ------------------------------------------------------------- pattern

void tcpPatternFill(std::span<std::uint8_t> out, std::uint64_t streamOffset) {
  std::uint64_t x = (streamOffset + 1) * kTcpPatternStep;
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(x ^ (x >> 29));
    x += kTcpPatternStep;
  }
}

std::uint64_t tcpPatternMismatches(std::span<const std::uint8_t> bytes,
                                   std::uint64_t streamOffset) {
  std::uint64_t x = (streamOffset + 1) * kTcpPatternStep;
  std::uint64_t mismatches = 0;
  for (const std::uint8_t b : bytes) {
    mismatches += b != static_cast<std::uint8_t>(x ^ (x >> 29));
    x += kTcpPatternStep;
  }
  return mismatches;
}

// -------------------------------------------------------- TcpConnection

TcpConnection::TcpConnection(Host& host, Config config)
    : host_(host), cfg_(config) {
  cwnd_ = cfg_.initialCwndSegments * cfg_.mss;
  ssthresh_ = cfg_.rcvWndBytes;
  rto_ = cfg_.initialRto;
}

TcpConnection::~TcpConnection() { rtoTimer_.cancel(); }

void TcpConnection::connect(net::MacAddress dstMac, net::Ipv4Address dstIp,
                            std::uint16_t dstPort, std::uint16_t localPort,
                            std::uint64_t sendBytes) {
  assert(state_ == State::Closed && !wasOpen_);
  remoteMac_ = dstMac;
  remoteIp_ = dstIp;
  remotePort_ = dstPort;
  localPort_ = localPort;
  bytesQueued_ = sendBytes;
  finQueued_ = true;  // stream length is fixed up front: close after it
  spinClient_ = true;  // active opener drives the spin bit
  host_.bindUdp(localPort_,
                [this](const UdpDatagram& d) { onDatagram(d); });
  boundPort_ = true;

  iss_ = cfg_.initialSeq;
  sndUna_ = iss_;
  state_ = State::SynSent;
  TxSeg syn;
  syn.seq = iss_;
  syn.syn = true;
  syn.sentAt = host_.simulator().now();
  txq_.push_back(syn);
  sndNxt_ = iss_ + 1;
  sndMax_ = sndNxt_;
  sendQueuedSegment(syn, /*isRetransmit=*/false);
  armRtoTimer();
}

void TcpConnection::accept(const TcpSegment& syn, net::MacAddress peerMac,
                           net::Ipv4Address peerIp, std::uint16_t peerPort,
                           std::uint16_t localPort) {
  remoteMac_ = peerMac;
  remoteIp_ = peerIp;
  remotePort_ = peerPort;
  localPort_ = localPort;

  irs_ = syn.seq;
  rcvNxt_ = syn.seq + 1;
  peerWnd_ = syn.wnd;
  peerSpin_ = syn.spin & 1;
  iss_ = cfg_.initialSeq;
  sndUna_ = iss_;
  state_ = State::SynReceived;
  TxSeg synAck;
  synAck.seq = iss_;
  synAck.syn = true;
  synAck.sentAt = host_.simulator().now();
  txq_.push_back(synAck);
  sndNxt_ = iss_ + 1;
  sndMax_ = sndNxt_;
  sendQueuedSegment(synAck, /*isRetransmit=*/false);
  armRtoTimer();
}

void TcpConnection::send(std::uint64_t bytes) {
  assert(!finSent_);
  bytesQueued_ += bytes;
  maybeSendData();
}

void TcpConnection::close() {
  finQueued_ = true;
  maybeSendData();
}

std::uint64_t TcpConnection::bytesAcked() const {
  if (sndUna_ == iss_) return 0;
  return std::min<std::uint64_t>(sndUna_ - iss_ - 1, bytesQueued_);
}

std::uint64_t TcpConnection::dataLimitSeq() const {
  return iss_ + 1 + bytesQueued_;
}

void TcpConnection::onDatagram(const UdpDatagram& dgram) {
  // Our port is exclusive to this connection; anything from another peer
  // (or a corrupted source field) is noise.
  if (dgram.srcIp.value() != remoteIp_.value() ||
      dgram.srcPort != remotePort_) {
    return;
  }
  const auto seg = TcpSegment::parse(dgram.payload);
  if (!seg) {
    ++checksumDrops_;
    return;
  }
  onSegment(*seg);
}

void TcpConnection::onSegment(const TcpSegment& seg) {
  peerSpin_ = seg.spin & 1;
  if (state_ == State::Closed) {
    // Lightweight TIME_WAIT: after a clean close we still re-ack a peer's
    // retransmitted FIN (our final ACK may have been lost), so the peer's
    // LAST_ACK never times out into a spurious give-up.
    if (wasOpen_ && !failed_ && seg.fin()) sendPureAck();
    return;
  }

  if (state_ == State::SynSent) {
    if (!(seg.syn() && seg.hasAck() && seg.ack == iss_ + 1)) return;
    irs_ = seg.seq;
    rcvNxt_ = seg.seq + 1;
    peerWnd_ = seg.wnd;
    processAck(seg);
    state_ = State::Established;
    wasOpen_ = true;
    establishedAt_ = host_.simulator().now();
    if (established_) established_();
    sendPureAck();
    maybeSendData();
    return;
  }

  if (state_ == State::SynReceived && seg.syn() && !seg.hasAck()) {
    // Duplicate SYN: our SYN+ACK was lost or is still in flight — resend.
    if (!txq_.empty()) {
      txq_.front().retransmitted = true;
      ++retransmits_;
      trace(sim::TraceKind::TcpRetransmit, localPort_, txq_.front().seq, 0, 0);
      sendQueuedSegment(txq_.front(), /*isRetransmit=*/true);
    }
    return;
  }

  if (seg.hasAck()) processAck(seg);

  if (state_ == State::SynReceived) {
    if (!(seg.hasAck() && seqGe(seg.ack, iss_ + 1))) return;
    state_ = State::Established;
    wasOpen_ = true;
    establishedAt_ = host_.simulator().now();
    if (established_) established_();
  }

  peerWnd_ = seg.wnd;
  if (!seg.payload.empty() || seg.fin()) processPayload(seg);
  // A duplicate SYN+ACK means our handshake ACK was lost; re-ack it.
  if (seg.syn() && seg.hasAck()) sendPureAck();
  maybeSendData();
}

void TcpConnection::processAck(const TcpSegment& seg) {
  const std::uint32_t ack = seg.ack;
  if (seqGt(ack, sndMax_)) return;  // acks data never sent: ignore

  if (seqGt(ack, sndUna_)) {
    const std::uint32_t acked = ack - sndUna_;
    sndUna_ = ack;
    // After a go-back-N rewind the peer can re-ack data above sndNxt_
    // (it had it all along — only the ACKs died). Jump forward: those
    // bytes need no regeneration. If the jump covers the FIN the rewind
    // dropped, the teardown is acked too.
    if (seqGt(ack, sndNxt_)) {
      sndNxt_ = ack;
      if (finQueued_ && !finSent_ &&
          ack == static_cast<std::uint32_t>(dataLimitSeq()) + 1) {
        finSent_ = true;
        onOurFinAcked();
      }
    }
    consecutiveRtos_ = 0;
    dupAckRun_ = 0;

    const sim::Time now = host_.simulator().now();
    while (!txq_.empty()) {
      const TxSeg& f = txq_.front();
      const std::uint32_t end =
          f.seq + f.len + ((f.syn || f.fin) ? 1 : 0);
      if (!seqLe(end, sndUna_)) break;
      if (!f.retransmitted) sampleRtt(now - f.sentAt);
      const bool finAcked = f.fin;
      txq_.pop_front();
      if (finAcked) onOurFinAcked();
    }

    if (inRecovery_) {
      if (seqGe(ack, recover_)) {
        inRecovery_ = false;
        cwnd_ = ssthresh_;
      } else if (!txq_.empty()) {
        // NewReno partial ACK: the next hole is the new front — resend it
        // without waiting for three more dup-ACKs.
        retransmitFront(/*fast=*/true);
      }
    } else {
      if (cwnd_ < ssthresh_) {
        cwnd_ += std::min(acked, cfg_.mss);  // slow start
      } else {
        cwnd_ += std::max<std::uint32_t>(
            1, cfg_.mss * cfg_.mss / std::max<std::uint32_t>(cwnd_, 1));
      }
      cwnd_ = std::min(cwnd_, cfg_.rcvWndBytes);
    }

    rtoTimer_.cancel();
    armRtoTimer();
    return;
  }

  // Duplicate ACK: same frontier, no payload, no flags, data outstanding.
  if (ack == sndUna_ && seg.payload.empty() && !seg.syn() && !seg.fin() &&
      !txq_.empty() && flightSize() > 0) {
    ++dupAcksSeen_;
    ++dupAckRun_;
    if (dupAckRun_ == 3 && !inRecovery_) enterRecovery(/*reason=*/1);
  }
}

void TcpConnection::enterRecovery(std::uint32_t reason) {
  ssthresh_ = std::max(flightSize() / 2, 2 * cfg_.mss);
  cwnd_ = ssthresh_;
  inRecovery_ = true;
  recover_ = sndNxt_;
  ++cwndCuts_;
  trace(sim::TraceKind::TcpCwndCut, localPort_, cwnd_, reason);
  retransmitFront(/*fast=*/true);
}

void TcpConnection::retransmitFront(bool fast) {
  if (txq_.empty()) return;
  TxSeg& f = txq_.front();
  f.retransmitted = true;  // Karn: no RTT sample from this segment
  ++retransmits_;
  if (fast) ++fastRetransmits_;
  trace(sim::TraceKind::TcpRetransmit, localPort_, f.seq, f.len,
        fast ? 1 : 0);
  sendQueuedSegment(f, /*isRetransmit=*/true);
}

void TcpConnection::onRtoFire() {
  if (txq_.empty() || state_ == State::Closed) return;
  ++consecutiveRtos_;
  ++rtoFires_;
  if (consecutiveRtos_ > cfg_.maxRetries) {
    fail("retransmission limit reached (seq " +
         std::to_string(txq_.front().seq) + ", " +
         std::to_string(cfg_.maxRetries) + " consecutive timeouts)");
    return;
  }
  // Collapse to one segment and back off the timer (capped).
  ssthresh_ = std::max(flightSize() / 2, 2 * cfg_.mss);
  cwnd_ = cfg_.mss;
  inRecovery_ = false;
  dupAckRun_ = 0;
  ++cwndCuts_;
  trace(sim::TraceKind::TcpCwndCut, localPort_, cwnd_, /*reason=*/0);
  rto_ = std::min(rto_ + rto_, cfg_.maxRto);
  trace(sim::TraceKind::TcpRto, localPort_,
        static_cast<std::uint32_t>(rto_.toMicros()), consecutiveRtos_);
  retransmitFront(/*fast=*/false);
  // Go-back-N: a timeout usually means the whole flight died with the
  // front segment (burst loss, dark window). Rewind sndNxt past the front
  // so maybeSendData regenerates the tail from the pattern stream as the
  // window reopens — recovering the hole at slow-start pace instead of
  // one full RTO per lost segment.
  if (txq_.size() > 1) {
    const TxSeg& f = txq_.front();
    bool droppedFin = false;
    for (std::size_t i = 1; i < txq_.size(); ++i) droppedFin |= txq_[i].fin;
    if (seqLt(rexmitHighWater_, sndNxt_)) rexmitHighWater_ = sndNxt_;
    sndNxt_ = f.seq + f.len + ((f.syn || f.fin) ? 1 : 0);
    txq_.erase(txq_.begin() + 1, txq_.end());
    if (droppedFin) finSent_ = false;  // regenerated with the data
  }
  armRtoTimer();
}

void TcpConnection::sampleRtt(sim::Time rttSample) {
  if (!haveRttSample_) {
    haveRttSample_ = true;
    srtt_ = rttSample;
    rttvar_ = sim::Time::ns(rttSample.nanos() / 2);
  } else {
    const std::int64_t err =
        std::abs(srtt_.nanos() - rttSample.nanos());
    rttvar_ = sim::Time::ns((3 * rttvar_.nanos() + err) / 4);
    srtt_ = sim::Time::ns((7 * srtt_.nanos() + rttSample.nanos()) / 8);
  }
  rto_ = std::clamp(srtt_ + rttvar_ * 4, cfg_.minRto, cfg_.maxRto);
}

void TcpConnection::maybeSendData() {
  // Data (and a go-back-N-regenerated FIN) may still need sending in any
  // post-handshake state; only before the handshake or after Closed is
  // there nothing to stream.
  if (state_ == State::Closed || state_ == State::SynSent ||
      state_ == State::SynReceived) {
    armRtoTimer();
    return;
  }
  const std::uint32_t limit =
      iss_ + 1 + static_cast<std::uint32_t>(bytesQueued_);
  const std::uint32_t wnd = std::min(cwnd_, peerWnd_);
  while (seqLt(sndNxt_, limit)) {
    const std::uint32_t len =
        std::min<std::uint32_t>(limit - sndNxt_, cfg_.mss);
    if (flightSize() + len > wnd) break;
    TxSeg s;
    s.seq = sndNxt_;
    s.len = static_cast<std::uint16_t>(len);
    s.sentAt = host_.simulator().now();
    // Bytes below the go-back-N high-water mark have been on the wire
    // before: Karn's rule applies, and they count as retransmissions.
    s.retransmitted = seqLt(s.seq, rexmitHighWater_);
    txq_.push_back(s);
    sndNxt_ += len;
    if (seqLt(sndMax_, sndNxt_)) sndMax_ = sndNxt_;
    if (s.retransmitted) {
      ++retransmits_;
      trace(sim::TraceKind::TcpRetransmit, localPort_, s.seq, s.len, 0);
    }
    sendQueuedSegment(s, /*isRetransmit=*/s.retransmitted);
  }
  if (finQueued_ && !finSent_ && sndNxt_ == limit) {
    TxSeg f;
    f.seq = sndNxt_;
    f.fin = true;
    f.sentAt = host_.simulator().now();
    f.retransmitted = seqLt(f.seq, rexmitHighWater_);
    txq_.push_back(f);
    sndNxt_ += 1;
    if (seqLt(sndMax_, sndNxt_)) sndMax_ = sndNxt_;
    finSent_ = true;
    // First FIN: advance the state machine. A regenerated FIN (go-back-N
    // rewound past it) leaves the already-reached teardown state alone.
    if (state_ == State::Established) {
      state_ = State::FinWait1;
    } else if (state_ == State::CloseWait) {
      state_ = State::LastAck;
    }
    sendQueuedSegment(f, /*isRetransmit=*/f.retransmitted);
  }
  armRtoTimer();
}

void TcpConnection::sendQueuedSegment(const TxSeg& seg, bool /*isRetransmit*/) {
  std::uint8_t flags = 0;
  if (seg.syn) flags |= TcpSegment::kSyn;
  if (seg.fin) flags |= TcpSegment::kFin;
  // Everything after the active opener's bare SYN carries an ACK.
  if (state_ != State::SynSent) flags |= TcpSegment::kAck;
  emitSegment(flags, seg.seq, seg.len);
}

void TcpConnection::sendPureAck() {
  emitSegment(TcpSegment::kAck, sndNxt_, 0);
}

void TcpConnection::cutCwnd(double factor, std::uint32_t reason) {
  const std::uint32_t target = static_cast<std::uint32_t>(
      static_cast<double>(cwnd_) * factor);
  const std::uint32_t next = std::max(cfg_.mss, target);
  if (next >= cwnd_) return;
  cwnd_ = next;
  ssthresh_ = std::max(next, 2 * cfg_.mss);
  ++cwndCuts_;
  trace(sim::TraceKind::TcpCwndCut, localPort_, cwnd_, reason);
}

void TcpConnection::emitSegment(std::uint8_t flags, std::uint32_t seq,
                                std::uint32_t len) {
  TcpSegment header;
  header.flags = flags;
  // Spin bit: the client sends the inverse of the last bit it saw, the
  // server echoes it — one flip per round trip for on-path observers.
  header.spin = spinClient_ ? (peerSpin_ ^ 1) : peerSpin_;
  header.seq = seq;
  header.ack = (flags & TcpSegment::kAck) != 0 ? rcvNxt_ : 0;
  header.wnd = cfg_.rcvWndBytes;
  // Header and pattern are written straight into the frame's UDP payload.
  const std::size_t bytes = TcpSegment::kHeaderBytes + len;
  net::PacketPtr frame =
      host_.makeUdpFrame(remoteMac_, remoteIp_, localPort_, remotePort_, bytes);
  const auto segment = frame->span().subspan(kUdpPayloadOffset, bytes);
  header.writeHeader(segment);
  tcpPatternFill(segment.subspan(TcpSegment::kHeaderBytes), seq - (iss_ + 1));
  TcpSegment::seal(segment);
  host_.transmit(std::move(frame));
}

void TcpConnection::processPayload(const TcpSegment& seg) {
  const std::uint32_t seq = seg.seq;
  const std::uint16_t len = static_cast<std::uint16_t>(seg.payload.size());
  const std::uint32_t end = seq + len;
  const bool hasFin = seg.fin();

  auto verify = [this](std::uint32_t firstSeq,
                       std::span<const std::uint8_t> bytes) {
    patternErrors_ += tcpPatternMismatches(bytes, firstSeq - (irs_ + 1));
  };

  if (seqLe(end + (hasFin ? 1 : 0), rcvNxt_)) {
    // Entirely old: a retransmit of data (or FIN) we already took.
    ++dupSegments_;
    sendPureAck();
    return;
  }

  if (seqGt(seq, rcvNxt_)) {
    // Out of order: verify and remember the range, answer with a dup-ACK.
    ++outOfOrderSegments_;
    if (len > 0) {
      verify(seq, seg.payload);
      ooo_.emplace(seq, len);
    }
    if (hasFin) {
      peerFinSeen_ = true;
      peerFinSeq_ = end;
    }
    ++dupAcksSent_;
    sendPureAck();
    return;
  }

  // In order (possibly overlapping the frontier on the left).
  const std::uint32_t skip = rcvNxt_ - seq;
  if (len > skip) {
    verify(rcvNxt_, seg.payload.subspan(skip));
    deliveredBytes_ += len - skip;
    rcvNxt_ = end;
  }
  if (hasFin) {
    peerFinSeen_ = true;
    peerFinSeq_ = end;
  }
  // Drain any out-of-order ranges the frontier now reaches.
  for (auto it = ooo_.begin(); it != ooo_.end();) {
    if (seqGt(it->first, rcvNxt_)) break;
    const std::uint32_t oEnd = it->first + it->second;
    if (seqGt(oEnd, rcvNxt_)) {
      deliveredBytes_ += oEnd - rcvNxt_;
      rcvNxt_ = oEnd;
    }
    it = ooo_.erase(it);
  }
  if (peerFinSeen_ && rcvNxt_ == peerFinSeq_) {
    rcvNxt_ = peerFinSeq_ + 1;
    onPeerFin();
  }
  sendPureAck();
}

void TcpConnection::onPeerFin() {
  switch (state_) {
    case State::Established:
      state_ = State::CloseWait;
      if (cfg_.autoClose) close();
      break;
    case State::FinWait1:
      state_ = State::Closing;
      break;
    case State::FinWait2:
      finishClose();
      break;
    default:
      break;
  }
}

void TcpConnection::onOurFinAcked() {
  switch (state_) {
    case State::FinWait1:
      state_ = State::FinWait2;
      break;
    case State::Closing:
    case State::LastAck:
      finishClose();
      break;
    default:
      break;
  }
}

void TcpConnection::finishClose() {
  state_ = State::Closed;
  closedAt_ = host_.simulator().now();
  rtoTimer_.cancel();
  if (closed_) closed_();
}

void TcpConnection::fail(std::string reason) {
  failed_ = true;
  error_ = std::move(reason);
  state_ = State::Closed;
  closedAt_ = host_.simulator().now();
  rtoTimer_.cancel();
  if (errorCb_) errorCb_(error_);
}

void TcpConnection::armRtoTimer() {
  if (txq_.empty()) {
    rtoTimer_.cancel();
    return;
  }
  if (rtoTimer_.pending()) return;
  rtoTimer_ = host_.simulator().schedule(rto_, [this] { onRtoFire(); });
}

void TcpConnection::trace(sim::TraceKind kind, std::uint32_t a,
                          std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  sim::Tracer* t = host_.tracer();
  if (t == nullptr) return;
  t->record(host_.simulator().now(), kind, host_.tracerActor(), cfg_.taskId,
            a, b, c, d);
}

// ---------------------------------------------------------- TcpListener

TcpListener::TcpListener(Host& host, std::uint16_t port,
                         TcpConnection::Config config)
    : host_(host), port_(port), config_(config) {
  host_.bindUdp(port_, [this](const UdpDatagram& d) { onDatagram(d); });
}

void TcpListener::onDatagram(const UdpDatagram& dgram) {
  const auto seg = TcpSegment::parse(dgram.payload);
  if (!seg) {
    ++checksumDrops_;
    return;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(dgram.srcIp.value()) << 16) |
      dgram.srcPort;
  auto it = byPeer_.find(key);
  if (it != byPeer_.end() && it->second->failed() && seg->syn() &&
      !seg->hasAck()) {
    // The old incarnation died (e.g. retransmission limit during a dark
    // window); a fresh bare SYN from the same peer is a new connection,
    // not a duplicate — don't let the corpse swallow it.
    displaced_.push_back(std::move(it->second));
    byPeer_.erase(it);
    it = byPeer_.end();
  }
  if (it == byPeer_.end()) {
    if (!(seg->syn() && !seg->hasAck())) return;  // no connection: ignore
    auto conn = std::make_unique<TcpConnection>(host_, config_);
    TcpConnection* raw = conn.get();
    byPeer_.emplace(key, std::move(conn));
    order_.push_back(raw);
    if (accept_) accept_(*raw);
    raw->accept(*seg, dgram.srcMac, dgram.srcIp, dgram.srcPort, port_);
    return;
  }
  it->second->relearnPeerMac(dgram.srcMac);
  it->second->onSegment(*seg);
}

std::uint64_t TcpListener::deliveredBytes() const {
  std::uint64_t total = 0;
  for (const TcpConnection* c : order_) total += c->deliveredBytes();
  return total;
}

std::uint64_t TcpListener::patternErrors() const {
  std::uint64_t total = 0;
  for (const TcpConnection* c : order_) total += c->patternErrors();
  return total;
}

}  // namespace tpp::host
