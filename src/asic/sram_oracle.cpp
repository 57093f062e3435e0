#include "src/asic/sram_oracle.hpp"

#include <algorithm>

namespace tpp::asic {
namespace {

std::string kindsName(std::uint8_t mask) {
  std::string out;
  const auto add = [&](const char* name) {
    if (!out.empty()) out += "+";
    out += name;
  };
  if (mask & SramRaceOracle::kReadBit) add("read");
  if (mask & SramRaceOracle::kWriteBit) add("write");
  if (mask & SramRaceOracle::kRmwBit) add("cstore");
  return out.empty() ? "none" : out;
}

}  // namespace

void SramRaceOracle::beginExecution(std::uint16_t taskId) {
  flush();
  inExecution_ = true;
  currentTask_ = taskId;
}

void SramRaceOracle::record(core::StatNamespace region, std::size_t port,
                            std::size_t word, Access access) {
  WordKey key;
  key.perPort = region == core::StatNamespace::PortScratch;
  key.port = key.perPort ? static_cast<std::uint32_t>(port) : 0u;
  key.word = static_cast<std::uint32_t>(word);
  const std::uint8_t bit = access == Access::Read ? 1 : 2;
  ++accesses_;
  for (auto& p : pending_) {
    if (p.key == key) {
      p.flags |= bit;
      return;
    }
  }
  pending_.push_back({key, bit});
}

void SramRaceOracle::flush() {
  if (inExecution_) {
    for (const auto& p : pending_) {
      const std::uint8_t kind = p.flags == 3   ? kRmwBit
                                : p.flags == 2 ? kWriteBit
                                               : kReadBit;
      auto& tasks = words_[p.key];
      const auto it = std::find_if(
          tasks.begin(), tasks.end(),
          [&](const auto& t) { return t.first == currentTask_; });
      if (it == tasks.end()) {
        tasks.emplace_back(currentTask_, kind);
      } else {
        it->second |= kind;
      }
    }
  }
  pending_.clear();
  inExecution_ = false;
}

std::string SramRaceOracle::ObservedConflict::describe() const {
  std::string out = "observed conflict on " +
                    core::MemoryMap::standard().describeAddress(address);
  if (perPort) out += " port " + std::to_string(port);
  out += ": task " + std::to_string(taskA) + " (" + kindsName(kindsA) +
         ") vs task " + std::to_string(taskB) + " (" + kindsName(kindsB) +
         ")";
  if (lostUpdate()) out += " — plain write against CSTORE (lost update)";
  return out;
}

std::vector<SramRaceOracle::ObservedConflict> SramRaceOracle::conflicts() {
  flush();
  std::vector<ObservedConflict> out;
  for (const auto& [key, tasks] : words_) {
    const std::uint16_t base =
        key.perPort ? core::kPortScratchBase : core::kSramBase;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      for (std::size_t j = i + 1; j < tasks.size(); ++j) {
        // A conflict needs a plain writer on one side and any access on
        // the other; pure read/CSTORE sharing is the coordinated case.
        std::size_t a = i;
        std::size_t b = j;
        if ((tasks[a].second & kWriteBit) == 0) std::swap(a, b);
        if ((tasks[a].second & kWriteBit) == 0) continue;
        ObservedConflict c;
        c.address = static_cast<std::uint16_t>(base + key.word);
        c.perPort = key.perPort;
        c.port = key.port;
        c.taskA = tasks[a].first;
        c.taskB = tasks[b].first;
        c.kindsA = tasks[a].second;
        c.kindsB = tasks[b].second;
        out.push_back(c);
      }
    }
  }
  return out;
}

std::vector<std::string> SramRaceOracle::divergences(
    const core::InterferenceReport& report,
    std::span<const core::EffectSummary> tasks) {
  std::vector<std::string> out;
  for (const auto& c : conflicts()) {
    const bool covered = std::any_of(
        report.findings.begin(), report.findings.end(),
        [&](const core::Conflict& f) {
          if (f.address != c.address) return false;
          if (f.taskA >= tasks.size() || f.taskB >= tasks.size()) {
            return false;
          }
          const std::uint16_t fa = tasks[f.taskA].taskId;
          const std::uint16_t fb = tasks[f.taskB].taskId;
          return (fa == c.taskA && fb == c.taskB) ||
                 (fa == c.taskB && fb == c.taskA);
        });
    if (!covered) {
      out.push_back(c.describe() +
                    " — not predicted by any static finding (static false "
                    "negative)");
    }
  }
  return out;
}

void SramRaceOracle::clear() {
  pending_.clear();
  words_.clear();
  inExecution_ = false;
  accesses_ = 0;
}

}  // namespace tpp::asic
