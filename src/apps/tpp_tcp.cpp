#include "src/apps/tpp_tcp.hpp"

#include <algorithm>

#include "src/core/memory_map.hpp"
#include "src/core/verifier.hpp"
#include "src/host/collector.hpp"

namespace tpp::apps {

core::Program makeTcpCongestionProbeProgram(std::size_t maxHops,
                                            std::uint16_t taskId) {
  core::ProgramBuilder b;
  b.task(taskId);
  b.push(core::addr::SwitchId);
  b.push(core::addr::PortQueueBytes);
  b.push(core::addr::TxUtilization);
  b.push(core::addr::LinkCapacityMbps);
  b.push(core::addr::SwitchBootEpoch);
  b.reserve(
      static_cast<std::uint8_t>(kTcpProbeValuesPerHop * maxHops));
  return core::verified(b.buildChecked(), {.maxHops = maxHops});
}

TppTcpController::TppTcpController(host::Host& sender,
                                   host::TcpConnection& conn, Config config)
    : sender_(sender), conn_(conn), cfg_(config),
      program_(makeTcpCongestionProbeProgram(config.maxHops, config.taskId)) {
}

void TppTcpController::start(sim::Time at) {
  if (running_) return;
  running_ = true;
  timer_ = sender_.simulator().scheduleAt(at, [this] { tick(); });
}

void TppTcpController::stop() {
  running_ = false;
  timer_.cancel();
}

sim::Time TppTcpController::period() const {
  return std::max(cfg_.minPeriod, conn_.srtt());
}

void TppTcpController::tick() {
  if (!running_) return;
  if (conn_.done()) {  // the transfer ended; the control loop ends with it
    running_ = false;
    return;
  }
  if (!prober_) {
    // Built on the first tick, not at start(): the connection's remote
    // endpoint is only fixed once connect()/accept() has run, which for
    // workload generators happens at simulation time, after start().
    host::ReliableProber::Config pc;
    pc.dstMac = conn_.remoteMac();
    pc.dstIp = conn_.remoteIp();
    pc.timeout = cfg_.probeTimeout;
    pc.maxBackoff = cfg_.probeMaxBackoff;
    pc.maxRetries = cfg_.probeMaxRetries;
    prober_ = std::make_unique<host::ReliableProber>(sender_, pc);
  }
  prober_->send(
      program_, [this](const core::ExecutedTpp& tpp) { onEcho(tpp); },
      [this](std::uint32_t) { ++probeLosses_; });
  timer_ = sender_.simulator().schedule(period(), [this] { tick(); });
}

void TppTcpController::onEcho(const core::ExecutedTpp& tpp) {
  const std::size_t initialSpWords =
      host::ReliableProber::seqWordIndex(program_) + 1;
  const auto split = host::splitStackRecords(
      tpp, kTcpProbeValuesPerHop, initialSpWords);
  if (split.truncated || split.records.empty()) {
    // A TCPU-off hop (or mangled echo): no per-hop picture this round.
    ++truncatedRounds_;
    return;
  }

  // A switch that rebooted since the last round has freshly-zeroed queue
  // and utilization counters; acting on them would cut or coast wrongly.
  bool epochChanged = false;
  for (const auto& rec : split.records) {
    const std::uint32_t id = rec[kSwitchId];
    const std::uint32_t epoch = rec[kBootEpoch];
    const auto it = epochBySwitch_.find(id);
    if (it != epochBySwitch_.end() && it->second != epoch) {
      epochChanged = true;
      ++epochChanges_;
    }
    epochBySwitch_[id] = epoch;
  }
  if (epochChanged) return;

  std::uint32_t maxQueue = 0;
  for (const auto& rec : split.records) {
    maxQueue = std::max(maxQueue, rec[kQueueBytes]);
  }
  maxQueueSeen_ = std::max(maxQueueSeen_, maxQueue);

  if (maxQueue > cfg_.queueThresholdBytes) {
    // Shrink before the queue overflows into drops — but at most once per
    // srtt, since a cut needs an RTT to show up in the queue.
    const sim::Time now = sender_.simulator().now();
    if (now - lastCutAt_ >= conn_.srtt()) {
      lastCutAt_ = now;
      ++probeCuts_;
      conn_.cutCwnd(cfg_.cutFactor, /*reason=*/2);
    }
  }
}

}  // namespace tpp::apps
