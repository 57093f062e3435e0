#include "src/apps/ndb.hpp"

#include "src/core/header.hpp"
#include "src/core/memory_map.hpp"
#include "src/core/verifier.hpp"
#include "src/host/collector.hpp"

namespace tpp::apps {

core::Program makeTraceProgram(std::size_t maxHops, std::uint16_t taskId) {
  core::ProgramBuilder b;
  b.task(taskId);
  b.push(core::addr::SwitchId);
  b.push(core::addr::MatchedEntryId);
  b.push(core::addr::InputPort);
  b.reserve(static_cast<std::uint8_t>(3 * maxHops));
  return core::verified(b.buildChecked(), {.maxHops = maxHops});
}

PacketTrace parseTrace(const core::ExecutedTpp& tpp,
                       std::size_t expectedHops) {
  PacketTrace out;
  out.faulted = (tpp.header.flags & core::kFlagFaulted) != 0;
  const auto split = host::splitStackRecords(tpp, 3);
  for (const auto& rec : split.records) {
    out.hops.push_back(HopTrace{rec[0], rec[1], rec[2]});
  }
  out.incomplete = !split.complete(expectedHops);
  return out;
}

std::vector<IntentStore::Divergence> IntentStore::check(
    const PacketTrace& trace) const {
  std::vector<Divergence> out;
  if (trace.hops.size() != path_.size()) {
    out.push_back(Divergence{0, DivergenceKind::PathLengthMismatch,
                             static_cast<std::uint32_t>(path_.size()),
                             static_cast<std::uint32_t>(trace.hops.size())});
  }
  const std::size_t hops = std::min(trace.hops.size(), path_.size());
  for (std::size_t h = 0; h < hops; ++h) {
    const auto& expect = path_[h];
    const auto& got = trace.hops[h];
    if (expect.switchId != got.switchId) {
      out.push_back(Divergence{h, DivergenceKind::WrongSwitch,
                               expect.switchId, got.switchId});
      continue;
    }
    if (expect.matchedEntryId == 0) continue;
    if (expect.matchedEntryId == got.matchedEntryId) continue;
    const bool sameEntry =
        (expect.matchedEntryId & 0xffff) == (got.matchedEntryId & 0xffff);
    out.push_back(Divergence{
        h,
        sameEntry ? DivergenceKind::StaleVersion : DivergenceKind::WrongEntry,
        expect.matchedEntryId, got.matchedEntryId});
  }
  return out;
}

std::string divergenceKindName(IntentStore::DivergenceKind kind) {
  switch (kind) {
    case IntentStore::DivergenceKind::PathLengthMismatch:
      return "path-length-mismatch";
    case IntentStore::DivergenceKind::WrongSwitch: return "wrong-switch";
    case IntentStore::DivergenceKind::WrongEntry: return "wrong-entry";
    case IntentStore::DivergenceKind::StaleVersion: return "stale-version";
  }
  return "?";
}

namespace {

bool isTraceProgram(const core::ExecutedTpp& tpp) {
  if (tpp.instructions.size() != 3) return false;
  const std::uint16_t wanted[] = {core::addr::SwitchId,
                                  core::addr::MatchedEntryId,
                                  core::addr::InputPort};
  for (std::size_t i = 0; i < 3; ++i) {
    if (tpp.instructions[i].op != core::Opcode::Push ||
        tpp.instructions[i].addr != wanted[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

TraceCollector::TraceCollector(host::Host& receiver, std::uint16_t taskId,
                               std::size_t expectedHops) {
  receiver.onTppArrival([this, taskId, expectedHops](
                            const core::ExecutedTpp& tpp) {
    if (!isTraceProgram(tpp)) return;
    if (taskId != 0 && tpp.header.taskId != taskId) return;
    traces_.push_back(parseTrace(tpp, expectedHops));
    if (traces_.back().incomplete) ++incomplete_;
  });
}

std::size_t tppTraceBytesPerPacket(std::size_t hops) {
  // Shim header + 3 instructions + 3 words of packet memory per hop.
  return core::kTppHeaderSize + 3 * core::kInstructionSize +
         hops * 3 * core::kWordSize;
}

}  // namespace tpp::apps
