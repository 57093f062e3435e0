#include "src/apps/rcpstar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/memory_map.hpp"
#include "src/core/verifier.hpp"

namespace tpp::apps {

namespace addr = core::addr;

core::Program makeRcpCollectProgram(std::size_t maxHops,
                                    std::uint16_t taskId) {
  core::ProgramBuilder b;
  b.task(taskId);
  b.push(addr::SwitchId);
  b.push(addr::PortQueueBytes);     // [Link:QueueSize]
  b.push(addr::TxUtilization);      // offered load on the egress link
  b.push(addr::LinkCapacityMbps);
  b.push(addr::RcpRateRegister);    // [Link:RCP-RateRegister]
  b.push(addr::SwitchBootEpoch);    // detect scratch-wiping reboots
  b.reserve(static_cast<std::uint8_t>(6 * maxHops));
  return core::verified(b.buildChecked(), {.maxHops = maxHops});
}

core::Program makeRcpUpdateProgram(std::uint32_t bottleneckSwitchId,
                                   std::uint32_t newRateKbps,
                                   std::uint16_t taskId) {
  core::ProgramBuilder b;
  b.task(taskId);
  // CEXEC [Switch:SwitchID], 0xFFFFFFFF, $BottleneckSwitchID
  b.cexec(addr::SwitchId, 0xffffffffu, bottleneckSwitchId);
  // STORE [Link:RCP-RateRegister], [PacketMemory:Offset]
  b.storeImm(addr::RcpRateRegister, newRateKbps);
  return core::verified(b.buildChecked());
}

namespace {

core::Program makeRcpLockProgram(std::uint32_t switchId, std::uint32_t expect,
                                 std::uint32_t store, std::size_t maxHops,
                                 std::uint16_t taskId) {
  // The pushes come first so they run at every hop — a failed CEXEC only
  // halts the instructions after it — giving the sender (id, epoch) proof
  // of which switches executed the TPP.
  core::ProgramBuilder b;
  b.task(taskId);
  b.push(addr::SwitchId);
  b.push(addr::SwitchBootEpoch);
  b.cexec(addr::SwitchId, 0xffffffffu, switchId);
  b.cstore(addr::RcpLockRegister, expect, store);
  b.reserve(static_cast<std::uint8_t>(kRcpLockValuesPerHop * maxHops));
  return core::verified(b.buildChecked(), {.maxHops = maxHops});
}

}  // namespace

core::Program makeRcpLockAcquireProgram(std::uint32_t switchId,
                                        std::uint32_t ownerId,
                                        std::size_t maxHops,
                                        std::uint16_t taskId) {
  return makeRcpLockProgram(switchId, /*expect=*/0, /*store=*/ownerId,
                            maxHops, taskId);
}

core::Program makeRcpLockReleaseProgram(std::uint32_t switchId,
                                        std::uint32_t ownerId,
                                        std::size_t maxHops,
                                        std::uint16_t taskId) {
  return makeRcpLockProgram(switchId, /*expect=*/ownerId, /*store=*/0,
                            maxHops, taskId);
}

RcpStarController::RcpStarController(host::Host& sender,
                                     host::PacedFlow& flow, Config config)
    : sender_(sender), flow_(flow), config_(config),
      collectProgram_(makeRcpCollectProgram(config.maxHops, config.taskId)) {
  host::ReliableProber::Config pc;
  pc.dstMac = config_.dstMac;
  pc.dstIp = config_.dstIp;
  pc.timeout = config_.probeTimeout;
  pc.maxBackoff = config_.probeMaxBackoff;
  pc.maxRetries = config_.probeMaxRetries;
  prober_ = std::make_unique<host::ReliableProber>(sender_, pc);
  ownerId_ = config_.controllerId != 0 ? config_.controllerId
                                       : sender_.ip().value();
}

void RcpStarController::start(sim::Time at) {
  running_ = true;
  probeTimer_ =
      sender_.simulator().scheduleAt(at, [this] { sendCollectProbe(); });
  periodTimer_ = sender_.simulator().scheduleAt(
      at + config_.period, [this] { computeAndUpdate(); });
}

void RcpStarController::stop() {
  running_ = false;
  probeTimer_.cancel();
  periodTimer_.cancel();
  if (config_.useCstoreLock && lockState_ == LockState::Held) {
    // Best-effort unlock so the word doesn't stay claimed by a dead
    // controller (the epoch check would still unwedge any successor).
    sender_.sendProbe(config_.dstMac, config_.dstIp,
                      makeRcpLockReleaseProgram(lockSwitchId_, ownerId_,
                                                config_.maxHops,
                                                config_.taskId));
    lockState_ = LockState::Released;
  }
}

void RcpStarController::sendCollectProbe() {
  if (!running_) return;
  prober_->send(
      collectProgram_,
      [this](const core::ExecutedTpp& tpp) { onCollect(tpp); },
      [this](std::uint32_t) { ++probeLosses_; });
  probeTimer_ = sender_.simulator().schedule(
      config_.period /
          static_cast<std::int64_t>(std::max<std::size_t>(
              config_.probesPerPeriod, 1)),
      [this] { sendCollectProbe(); });
}

void RcpStarController::onCollect(const core::ExecutedTpp& tpp) {
  // The seq word the prober appended sits at the end of the immediates;
  // hop records start one word later.
  const std::size_t spWords =
      host::ReliableProber::seqWordIndex(collectProgram_) + 1;
  auto split = host::splitStackRecords(tpp, kValuesPerHop, spWords);
  if (split.truncated) ++truncatedCollects_;
  if (split.records.empty()) return;
  for (const auto& rec : split.records) {
    epochBySwitch_[rec[kSwitchId]] = rec[kBootEpoch];
  }
  averager_.add(split.records);
  lastRecords_ = std::move(split.records);
}

double RcpStarController::rateFloorBps() const {
  if (lastBottleneckCapacityBps_ <= 0) return 0.0;
  return config_.params.minRateFraction * lastBottleneckCapacityBps_;
}

void RcpStarController::computeAndUpdate() {
  if (!running_) return;

  if (averager_.probeCount() == 0) {
    // Every collect probe of this period was lost (and retransmits timed
    // out): degrade with a multiplicative decrease rather than holding a
    // possibly-stale rate into a possibly-congested network.
    if (currentRateBps_ > 0) {
      ++mdFallbacks_;
      currentRateBps_ =
          std::max(currentRateBps_ * config_.mdFactor, rateFloorBps());
      flow_.setRateBps(currentRateBps_);
    }
  } else if (!lastRecords_.empty()) {
    // Phase 2: per-link control equation on collected samples.
    const double T = config_.period.toSeconds();
    linkRatesBps_.assign(lastRecords_.size(), 0.0);
    double minRate = std::numeric_limits<double>::infinity();
    std::size_t minHop = 0;
    for (std::size_t h = 0; h < lastRecords_.size(); ++h) {
      const auto& rec = lastRecords_[h];
      const double capacity = static_cast<double>(rec[kCapacityMbps]) * 1e6;
      if (capacity <= 0) continue;
      const double offered =
          averager_.mean(h, kUtilizationPpm) / 1e6 * capacity;
      const double avgQueueBits = averager_.mean(h, kQueueBytes) * 8.0;
      const double prevRate = static_cast<double>(rec[kRateKbps]) * 1000.0;
      const double next = rcp::rcpStep(prevRate, capacity, offered,
                                       avgQueueBits, T, config_.params);
      linkRatesBps_[h] = next;
      if (next < minRate) {
        minRate = next;
        minHop = h;
      }
    }

    if (std::isfinite(minRate)) {
      bottleneckSwitchId_ = lastRecords_[minHop][kSwitchId];
      lastBottleneckCapacityBps_ =
          static_cast<double>(lastRecords_[minHop][kCapacityMbps]) * 1e6;
      const auto rateKbps = static_cast<std::uint32_t>(minRate / 1000.0);
      // Phase 3: update only the bottleneck link's register.
      if (config_.useCstoreLock) {
        updateViaLock(rateKbps);
      } else {
        prober_->send(makeRcpUpdateProgram(bottleneckSwitchId_, rateKbps,
                                           config_.taskId),
                      [](const core::ExecutedTpp&) {});
        ++updates_;
      }

      // The flow transmits at its path's fair share.
      currentRateBps_ = minRate;
      flow_.setRateBps(minRate);
    }
  }
  rateSeries_.add(sender_.simulator().now(), currentRateBps_);
  averager_.reset();

  periodTimer_ = sender_.simulator().schedule(config_.period,
                                              [this] { computeAndUpdate(); });
}

// ------------------------------------------------------------------- lock

std::optional<std::uint32_t> RcpStarController::epochFromLockEcho(
    const core::ExecutedTpp& tpp, std::size_t initialSpWords,
    std::uint32_t switchId) {
  const auto split =
      host::splitStackRecords(tpp, kRcpLockValuesPerHop, initialSpWords);
  for (const auto& rec : split.records) {
    if (rec[0] == switchId) return rec[1];
  }
  return std::nullopt;
}

void RcpStarController::updateViaLock(std::uint32_t rateKbps) {
  // Epoch check: a reboot since acquisition wiped the lock word (and the
  // rate register). Forget the lock — there is nothing left to release —
  // and re-acquire below. This is what prevents the stuck-lock deadlock.
  if (lockState_ == LockState::Held) {
    auto it = epochBySwitch_.find(lockSwitchId_);
    if (it != epochBySwitch_.end() && it->second != lockEpoch_) {
      ++lockEpochResets_;
      lockState_ = LockState::Released;
    }
  }
  if (lockState_ == LockState::Held && lockSwitchId_ != bottleneckSwitchId_) {
    // Bottleneck moved: hand the old switch's lock back first; the update
    // resumes next period against the new bottleneck.
    startRelease();
    return;
  }
  switch (lockState_) {
    case LockState::Held:
      sendLockedUpdate(rateKbps);
      break;
    case LockState::Released:
      startAcquire(bottleneckSwitchId_, rateKbps);
      break;
    case LockState::Acquiring:
    case LockState::Releasing:
      break;  // previous round-trip still in flight; skip this period
  }
}

void RcpStarController::startAcquire(std::uint32_t target,
                                     std::uint32_t rateKbps) {
  lockState_ = LockState::Acquiring;
  const auto program = makeRcpLockAcquireProgram(target, ownerId_,
                                                 config_.maxHops,
                                                 config_.taskId);
  const std::size_t spWords =
      host::ReliableProber::seqWordIndex(program) + 1;
  prober_->send(
      program,
      [this, target, rateKbps, spWords](const core::ExecutedTpp& tpp) {
        if (lockState_ != LockState::Acquiring) return;
        const auto epoch = epochFromLockEcho(tpp, spWords, target);
        if (!epoch) {
          // The target never executed our TPP (path change / TCPU off):
          // the CSTORE result word is meaningless, so don't trust it.
          ++lockUnreachable_;
          lockState_ = LockState::Released;
          return;
        }
        const std::uint32_t old = kRcpLockResultWord < tpp.pmem.size()
                                      ? tpp.pmem[kRcpLockResultWord]
                                      : ~0u;
        if (old == 0 || old == ownerId_) {
          // Swap took (or we already owned it from a round we gave up on).
          lockState_ = LockState::Held;
          lockSwitchId_ = target;
          lockEpoch_ = *epoch;
          ++lockAcquisitions_;
          sendLockedUpdate(rateKbps);
        } else {
          ++lockContention_;
          lockState_ = LockState::Released;
        }
      },
      [this](std::uint32_t) {
        if (lockState_ == LockState::Acquiring) {
          lockState_ = LockState::Released;
        }
      });
}

void RcpStarController::startRelease() {
  lockState_ = LockState::Releasing;
  releaseRetriesLeft_ = kReleaseRetryCap;
  sendRelease();
}

void RcpStarController::sendRelease() {
  const auto program = makeRcpLockReleaseProgram(lockSwitchId_, ownerId_,
                                                 config_.maxHops,
                                                 config_.taskId);
  const std::size_t spWords =
      host::ReliableProber::seqWordIndex(program) + 1;
  auto giveUpOrRetry = [this] {
    if (lockState_ != LockState::Releasing) return;
    if (releaseRetriesLeft_ > 0) {
      --releaseRetriesLeft_;
      sendRelease();
    } else {
      // Safety net: stop retrying — a future owner's epoch check (or the
      // next reboot) clears the word; we must not spin forever.
      ++lockForcedReleases_;
      lockState_ = LockState::Released;
    }
  };
  prober_->send(
      program,
      [this, spWords, giveUpOrRetry](const core::ExecutedTpp& tpp) {
        if (lockState_ != LockState::Releasing) return;
        const std::uint32_t old = kRcpLockResultWord < tpp.pmem.size()
                                      ? tpp.pmem[kRcpLockResultWord]
                                      : ~0u;
        if (old == ownerId_) {  // swap took: lock handed back
          lockState_ = LockState::Released;
          return;
        }
        const auto epoch = epochFromLockEcho(tpp, spWords, lockSwitchId_);
        if (epoch && *epoch != lockEpoch_) {
          // Rebooted underneath us: the word is already wiped.
          ++lockEpochResets_;
          lockState_ = LockState::Released;
          return;
        }
        giveUpOrRetry();
      },
      [giveUpOrRetry](std::uint32_t) { giveUpOrRetry(); });
}

void RcpStarController::sendLockedUpdate(std::uint32_t rateKbps) {
  prober_->send(
      makeRcpUpdateProgram(lockSwitchId_, rateKbps, config_.taskId),
      [](const core::ExecutedTpp&) {});
  ++updates_;
}

}  // namespace tpp::apps
