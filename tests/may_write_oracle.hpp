// The interference summarizer's original private copy of the verifier's
// stack-pointer walk, kept as the differential oracle for the shared walk
// (src/core/walk.hpp) that replaced it (test_walk.cpp). It spells out its
// own per-opcode cases instead of reading the ISA table, and stops on its
// own rule (stack mode, sp unchanged and nothing newly dirtied) where the
// shared walk stops on an unchanged abstract state: both must give the same
// union of writes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/program.hpp"

namespace tpp::test {

inline bool oracleModeAddressed(core::Opcode op) {
  using core::Opcode;
  switch (op) {
    case Opcode::Load:
    case Opcode::Store:
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Min:
    case Opcode::Max:
      return true;
    default:
      return false;
  }
}

// Which packet-memory words can any execution of `program` overwrite, over
// up to `maxHops` hops? Push dirties every word the sp interval can reach,
// mode-addressed write-backs dirty their resolved word, CSTORE dirties its
// cond word (old-value write-back). CEXEC early exits only *shrink* the set
// of executed instructions, so ignoring the halt (while still joining the
// sp intervals it can leave behind) stays a conservative superset.
inline std::vector<bool> mayWriteWords(const core::Program& program,
                                       std::size_t maxHops) {
  using core::AddressingMode;
  using core::Opcode;
  const std::size_t pmemWords = program.pmemWords;
  std::vector<bool> dirty(pmemWords, false);
  const auto wordCap = static_cast<std::int64_t>(pmemWords);
  const auto mark = [&](std::int64_t w) {
    if (w >= 0 && w < wordCap) dirty[static_cast<std::size_t>(w)] = true;
  };

  std::int64_t spLo = program.initialSp;
  std::int64_t spHi = program.initialSp;
  for (std::size_t hop = 0; hop < maxHops; ++hop) {
    std::int64_t lo = spLo;
    std::int64_t hi = spHi;
    std::int64_t exitLo = lo;
    std::int64_t exitHi = hi;
    bool anyDirtied = false;
    const auto markTracking = [&](std::int64_t w) {
      if (w >= 0 && w < wordCap && !dirty[static_cast<std::size_t>(w)]) {
        mark(w);
        anyDirtied = true;
      }
    };

    for (const auto& in : program.instructions) {
      switch (in.op) {
        case Opcode::Push:
          for (std::int64_t w = lo / 4; w <= hi / 4; ++w) markTracking(w);
          lo += 4;
          hi += 4;
          break;
        case Opcode::Pop:
          lo = std::max<std::int64_t>(0, lo - 4);
          hi = std::max<std::int64_t>(0, hi - 4);
          break;
        case Opcode::Cstore:
          markTracking(in.pmemOff);
          break;
        case Opcode::Cexec:
          exitLo = std::min(exitLo, lo);
          exitHi = std::max(exitHi, hi);
          break;
        default:
          if (oracleModeAddressed(in.op) && in.op != Opcode::Store) {
            const std::int64_t w =
                program.mode == AddressingMode::Hop
                    ? static_cast<std::int64_t>(hop) * program.perHopWords +
                          in.pmemOff
                    : in.pmemOff;
            markTracking(w);
          }
          break;
      }
    }

    lo = std::min(lo, exitLo);
    hi = std::max(hi, exitHi);
    if (program.mode != AddressingMode::Hop && lo == spLo && hi == spHi &&
        !anyDirtied) {
      break;  // stack-mode fixpoint: further hops repeat these transitions
    }
    spLo = lo;
    spHi = hi;
  }
  return dirty;
}

}  // namespace tpp::test
