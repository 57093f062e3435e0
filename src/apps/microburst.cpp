#include "src/apps/microburst.hpp"

#include "src/core/memory_map.hpp"
#include "src/core/verifier.hpp"
#include "src/host/collector.hpp"

namespace tpp::apps {

core::Program makeQueueProbeProgram(std::size_t maxHops,
                                    std::uint16_t taskId) {
  core::ProgramBuilder b;
  b.task(taskId);
  b.push(core::addr::SwitchId);
  b.push(core::addr::QueueBytes);
  b.reserve(static_cast<std::uint8_t>(2 * maxHops));
  return core::verified(b.buildChecked(), {.maxHops = maxHops});
}

MicroburstMonitor::MicroburstMonitor(host::Host& prober, Config config)
    : prober_(prober), config_(config),
      program_(makeQueueProbeProgram(config.maxHops, config.taskId)) {
  prober_.onTppResult([this](const core::ExecutedTpp& tpp) { onResult(tpp); });
}

void MicroburstMonitor::start(sim::Time at) {
  running_ = true;
  pending_ = prober_.simulator().scheduleAt(at, [this] { probe(); });
}

void MicroburstMonitor::stop() {
  running_ = false;
  pending_.cancel();
}

void MicroburstMonitor::probe() {
  if (!running_) return;
  prober_.sendProbe(config_.dstMac, config_.dstIp, program_);
  ++sent_;
  pending_ = prober_.simulator().schedule(config_.interval,
                                          [this] { probe(); });
}

void MicroburstMonitor::onResult(const core::ExecutedTpp& tpp) {
  if (tpp.header.taskId != config_.taskId) return;
  ++received_;
  const auto split = host::splitStackRecords(tpp, 2);
  if (!split.complete(config_.expectedHops)) ++partial_;
  const auto& records = split.records;
  if (records.size() > hopSeries_.size()) {
    hopSeries_.resize(records.size());
    hopSwitchIds_.resize(records.size(), 0);
  }
  const auto now = prober_.simulator().now();
  for (std::size_t h = 0; h < records.size(); ++h) {
    hopSwitchIds_[h] = records[h][0];
    hopSeries_[h].add(now, static_cast<double>(records[h][1]));
  }
}

ControlPlanePoller::ControlPlanePoller(asic::Switch& sw, std::size_t port,
                                       std::size_t queue, sim::Time interval)
    : sw_(sw), port_(port), queue_(queue), interval_(interval) {}

void ControlPlanePoller::start(sim::Time at) {
  running_ = true;
  pending_ = sw_.simulator().scheduleAt(at, [this] { poll(); });
}

void ControlPlanePoller::stop() {
  running_ = false;
  pending_.cancel();
}

void ControlPlanePoller::poll() {
  if (!running_) return;
  series_.add(sw_.simulator().now(),
              static_cast<double>(sw_.queueStats(port_, queue_).bytes));
  pending_ = sw_.simulator().schedule(interval_, [this] { poll(); });
}

std::vector<Burst> detectBursts(const sim::TimeSeries& series,
                                double thresholdBytes) {
  std::vector<Burst> out;
  bool inBurst = false;
  Burst current;
  for (const auto& [t, v] : series.points()) {
    if (!inBurst && v >= thresholdBytes) {
      inBurst = true;
      current = Burst{t, t, v};
    } else if (inBurst) {
      if (v >= thresholdBytes) {
        current.end = t;
        current.peakBytes = std::max(current.peakBytes, v);
      } else {
        current.end = t;
        out.push_back(current);
        inBurst = false;
      }
    }
  }
  if (inBurst) out.push_back(current);
  return out;
}

double detectionRecall(const std::vector<Burst>& reference,
                       const std::vector<Burst>& observed) {
  if (reference.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& ref : reference) {
    for (const auto& obs : observed) {
      if (obs.start <= ref.end && obs.end >= ref.start) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(reference.size());
}

}  // namespace tpp::apps
