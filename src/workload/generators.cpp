#include "src/workload/generators.hpp"

namespace tpp::workload {

// ------------------------------------------------------------ OnOffSender

OnOffSender::OnOffSender(host::Host& src, Config config, sim::Rng rng)
    : src_(src), config_(config), rng_(rng),
      flow_(src, config.flow, /*flowId=*/0) {
  flow_.setRateBps(0.0);
}

void OnOffSender::start(sim::Time at) {
  running_ = true;
  flow_.start(at);
  pending_ = src_.simulator().scheduleAt(at, [this] { toggle(true); });
}

void OnOffSender::stop() {
  running_ = false;
  pending_.cancel();
  flow_.stop();
}

void OnOffSender::toggle(bool on) {
  if (!running_) return;
  flow_.setRateBps(on ? config_.peakRateBps : 0.0);
  const double mean =
      (on ? config_.meanOn : config_.meanOff).toSeconds();
  const sim::Time duration = sim::Time::seconds(rng_.exponential(mean));
  pending_ = src_.simulator().schedule(duration, [this, on] { toggle(!on); });
}

// ------------------------------------------------------------- IncastBurst

IncastBurst::IncastBurst(std::vector<host::Host*> senders, Config config)
    : senders_(std::move(senders)), config_(config) {}

void IncastBurst::start(sim::Time at) {
  if (senders_.empty()) return;
  running_ = true;
  pending_ = senders_.front()->simulator().scheduleAt(at, [this] { fire(); });
}

void IncastBurst::stop() {
  running_ = false;
  pending_.cancel();
  for (auto& f : flows_) f->stop();
}

void IncastBurst::fire() {
  if (!running_) return;
  ++bursts_;
  flows_.clear();  // previous burst's flows have finished
  std::uint16_t port = config_.dstPort;
  for (host::Host* sender : senders_) {
    host::FlowSpec spec;
    spec.dstMac = config_.dstMac;
    spec.dstIp = config_.dstIp;
    spec.srcPort = port;
    spec.dstPort = config_.dstPort;
    spec.payloadBytes = config_.payloadBytes;
    spec.rateBps = config_.lineRateBps;
    spec.totalBytes = config_.burstBytes;
    auto flow = std::make_unique<host::PacedFlow>(*sender, spec,
                                                  /*flowId=*/bursts_);
    flow->start(sender->simulator().now());
    flows_.push_back(std::move(flow));
    ++port;
  }
  if (config_.period > sim::Time::zero()) {
    pending_ = senders_.front()->simulator().schedule(config_.period,
                                                      [this] { fire(); });
  }
}

// --------------------------------------------------- PoissonFlowGenerator

PoissonFlowGenerator::PoissonFlowGenerator(std::vector<host::Host*> senders,
                                           Config config, sim::Rng rng)
    : senders_(std::move(senders)), config_(config), rng_(rng) {}

void PoissonFlowGenerator::start(sim::Time at) {
  running_ = true;
  pending_ = senders_.front()->simulator().scheduleAt(at,
                                                      [this] { arrive(); });
}

void PoissonFlowGenerator::stop() {
  running_ = false;
  pending_.cancel();
  for (auto& f : flows_) f->stop();
}

void PoissonFlowGenerator::arrive() {
  if (!running_) return;
  host::Host* sender =
      senders_[static_cast<std::size_t>(rng_.uniformInt(
          0, static_cast<std::int64_t>(senders_.size()) - 1))];
  const double bytes = rng_.paretoBounded(
      config_.paretoShape, config_.minFlowBytes, config_.maxFlowBytes);

  host::FlowSpec spec;
  spec.dstMac = config_.dstMac;
  spec.dstIp = config_.dstIp;
  spec.srcPort = static_cast<std::uint16_t>(30000 + (flowsStarted_ % 20000));
  spec.dstPort = config_.dstPort;
  spec.payloadBytes = config_.payloadBytes;
  spec.rateBps = config_.lineRateBps;
  spec.totalBytes = static_cast<std::uint64_t>(bytes);
  auto flow = std::make_unique<host::PacedFlow>(*sender, spec,
                                                flowsStarted_ + 1);
  flow->start(sender->simulator().now());
  flows_.push_back(std::move(flow));
  ++flowsStarted_;
  bytesOffered_ += static_cast<std::uint64_t>(bytes);

  // Garbage-collect finished flows so long runs stay bounded.
  if (flows_.size() > 512) {
    std::erase_if(flows_, [](const auto& f) { return f->finished(); });
  }

  const double gap = rng_.exponential(1.0 / config_.flowsPerSecond);
  pending_ = senders_.front()->simulator().schedule(
      sim::Time::seconds(gap), [this] { arrive(); });
}

// ------------------------------------------------------------- TcpIncast

TcpIncast::TcpIncast(std::vector<host::Host*> senders, Config config)
    : senders_(std::move(senders)), config_(config) {}

void TcpIncast::start(sim::Time at) {
  conns_.reserve(senders_.size());
  records_.resize(senders_.size());
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    records_[i].arrival = at;
    records_[i].bytes = config_.burstBytes;
    records_[i].sender = i;
    auto conn = std::make_unique<host::TcpConnection>(*senders_[i],
                                                      config_.conn);
    host::TcpConnection* raw = conn.get();
    TcpFlowRecord* rec = &records_[i];
    raw->onClosed([rec, raw] {
      rec->completion = raw->closedAt().value_or(sim::Time::zero());
    });
    raw->onError([rec](const std::string&) { rec->failed = true; });
    const std::uint16_t port =
        static_cast<std::uint16_t>(config_.basePort + i);
    senders_[i]->simulator().scheduleAt(at, [this, raw, port] {
      raw->connect(config_.dstMac, config_.dstIp, config_.serverPort, port,
                   config_.burstBytes);
    });
    conns_.push_back(std::move(conn));
  }
}

bool TcpIncast::allDone() const {
  for (const auto& r : records_) {
    if (!r.done()) return false;
  }
  return !records_.empty();
}

std::size_t TcpIncast::finishedCount() const {
  std::size_t n = 0;
  for (const auto& r : records_) n += r.finished() ? 1 : 0;
  return n;
}

std::size_t TcpIncast::failedCount() const {
  std::size_t n = 0;
  for (const auto& r : records_) n += r.failed ? 1 : 0;
  return n;
}

// ------------------------------------------------ TcpPoissonFlowGenerator

TcpPoissonFlowGenerator::TcpPoissonFlowGenerator(
    std::vector<host::Host*> senders, Config config, sim::Rng rng)
    : senders_(std::move(senders)), config_(config), rng_(rng) {}

void TcpPoissonFlowGenerator::start(sim::Time at) {
  // Draw the whole schedule first — the flow log depends on the Rng alone.
  sim::Time t = at;
  while (records_.size() < config_.maxFlows) {
    t += sim::Time::seconds(rng_.exponential(1.0 / config_.flowsPerSecond));
    if (t >= at + config_.horizon) break;
    TcpFlowRecord rec;
    rec.arrival = t;
    rec.sender = static_cast<std::size_t>(rng_.uniformInt(
        0, static_cast<std::int64_t>(senders_.size()) - 1));
    rec.bytes = static_cast<std::uint64_t>(rng_.paretoBounded(
        config_.paretoShape, config_.minFlowBytes, config_.maxFlowBytes));
    bytesOffered_ += rec.bytes;
    records_.push_back(rec);
  }

  conns_.reserve(records_.size());
  for (std::size_t f = 0; f < records_.size(); ++f) {
    host::Host* sender = senders_[records_[f].sender];
    auto conn = std::make_unique<host::TcpConnection>(*sender, config_.conn);
    host::TcpConnection* raw = conn.get();
    TcpFlowRecord* rec = &records_[f];
    raw->onClosed([rec, raw] {
      rec->completion = raw->closedAt().value_or(sim::Time::zero());
    });
    raw->onError([rec](const std::string&) { rec->failed = true; });
    const std::uint16_t port =
        static_cast<std::uint16_t>(config_.basePort + f);
    const std::uint64_t bytes = records_[f].bytes;
    sender->simulator().scheduleAt(
        records_[f].arrival, [this, raw, port, bytes] {
          raw->connect(config_.dstMac, config_.dstIp, config_.serverPort,
                       port, bytes);
        });
    conns_.push_back(std::move(conn));
  }
}

bool TcpPoissonFlowGenerator::allDone() const {
  for (const auto& r : records_) {
    if (!r.done()) return false;
  }
  return !records_.empty();
}

std::size_t TcpPoissonFlowGenerator::finishedCount() const {
  std::size_t n = 0;
  for (const auto& r : records_) n += r.finished() ? 1 : 0;
  return n;
}

std::size_t TcpPoissonFlowGenerator::failedCount() const {
  std::size_t n = 0;
  for (const auto& r : records_) n += r.failed ? 1 : 0;
  return n;
}

}  // namespace tpp::workload
