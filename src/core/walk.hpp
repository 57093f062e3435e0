// The abstract walk behind the static verifier (verifier.hpp) and the
// interference summarizer: per hop, one linear pass over the program that
// tracks a stack-pointer interval (bytes) and a three-valued init state per
// packet-memory word, joining every failed-CEXEC exit in at hop end. Stack
// mode stops once a hop ends in the state it began in; hop-mode operands
// move with the hop counter, so hop mode runs all `maxHops` hops. Findings
// go to a visitor passed as a template parameter (no indirect calls); it
// derives from WalkVisitor and overrides the callbacks it needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/isa.hpp"
#include "src/core/program.hpp"

namespace tpp::core {

// Written on no path / some paths / every path.
enum class Init : std::uint8_t { No, Maybe, Yes };

struct WalkVisitor {
  // Instruction `instr` reads in-bounds packet-memory word `word`.
  void read(int /*instr*/, std::int64_t /*word*/, Init /*state*/) {}
  // Some execution may overwrite in-bounds packet-memory word `word`.
  void write(std::int64_t /*word*/) {}
  // A PUSH/POP stack slot or a hop-mode operand resolves to `word`, past
  // the end of packet memory, at hop `hop`.
  void overflow(int /*instr*/, std::int64_t /*word*/, std::size_t /*hop*/) {}
  // A POP runs while the stack pointer can be below one word (`sp` bytes).
  void underflow(int /*instr*/, std::int64_t /*sp*/, std::size_t /*hop*/) {}
};

struct WalkState {
  std::int64_t spLo = 0;
  std::int64_t spHi = 0;
  std::vector<Init> words;

  bool operator==(const WalkState&) const = default;

  static Init join(Init a, Init b) { return a == b ? a : Init::Maybe; }

  void joinWith(const WalkState& o) {
    spLo = std::min(spLo, o.spLo);
    spHi = std::max(spHi, o.spHi);
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = join(words[i], o.words[i]);
    }
  }
};

template <class Visitor>
void walkHops(const Program& program, std::size_t maxHops, Visitor& visit) {
  const auto& ins = program.instructions;
  const auto wordCap = static_cast<std::int64_t>(program.pmemWords);
  const bool hopMode = program.mode == AddressingMode::Hop;

  WalkState state;
  state.spLo = state.spHi = program.initialSp;
  state.words.assign(program.pmemWords, Init::No);
  std::fill_n(state.words.begin(),
              std::min(program.initialPmem.size(), state.words.size()),
              Init::Yes);

  WalkState cur;
  WalkState exitJoin;  // join of this hop's failed-CEXEC exits
  for (std::size_t hop = 0; hop < maxHops; ++hop) {
    cur = state;
    bool exited = false;

    for (std::size_t i = 0; i < ins.size(); ++i) {
      const auto& in = ins[i];
      const auto& info = opcodeInfo(in.op);
      const int idx = static_cast<int>(i);
      const bool exactSp = cur.spLo == cur.spHi;
      const auto read = [&](std::int64_t w) {
        if (w >= 0 && w < wordCap) {
          visit.read(idx, w, cur.words[static_cast<std::size_t>(w)]);
        }
      };
      const auto write = [&](std::int64_t w, bool exact) {
        if (w < 0 || w >= wordCap) return;
        auto& slot = cur.words[static_cast<std::size_t>(w)];
        slot = exact ? Init::Yes : WalkState::join(slot, Init::Yes);
        visit.write(w);
      };

      if (info.stackDelta > 0) {  // PUSH: every slot the interval reaches
        const std::int64_t hiIdx = cur.spHi / 4;
        if (hiIdx >= wordCap) visit.overflow(idx, hiIdx, hop);
        for (std::int64_t w = cur.spLo / 4; w <= hiIdx; ++w) write(w, exactSp);
      } else if (info.stackDelta < 0) {  // POP
        if (cur.spLo < 4) visit.underflow(idx, cur.spLo, hop);
        const std::int64_t hiIdx = cur.spHi / 4 - 1;
        if (hiIdx >= wordCap) visit.overflow(idx, hiIdx, hop);
        if (exactSp) read(hiIdx);
      } else {  // packet-memory operands, if any
        const bool hopRelative = info.modeAddressed && hopMode;
        const std::int64_t w =
            hopRelative
                ? static_cast<std::int64_t>(hop) * program.perHopWords +
                      in.pmemOff
                : in.pmemOff;
        if (hopRelative && w >= wordCap) visit.overflow(idx, w, hop);
        if (info.readsPacketOperand) {
          read(w);
          if (info.operands == Operands::AddrTwoPmem) read(w + 1);
        }
        // CSTORE's write-back of the observed switch value included.
        if (info.writesPacketOperand) write(w, true);
        if (in.op == Opcode::Cexec) {  // a failed predicate ends the hop
          if (exited) {
            exitJoin.joinWith(cur);
          } else {
            exitJoin = cur;
            exited = true;
          }
        }
      }
      cur.spLo = std::max<std::int64_t>(0, cur.spLo + info.stackDelta);
      cur.spHi = std::max<std::int64_t>(0, cur.spHi + info.stackDelta);
    }

    if (exited) cur.joinWith(exitJoin);
    if (!hopMode && cur == state) break;
    std::swap(state, cur);
  }
}

// The packet-memory words some execution over up to `maxHops` hops may
// overwrite (PUSH slots, LOAD/arith results, CSTORE write-backs).
inline std::vector<bool> mayWriteSet(const Program& program,
                                     std::size_t maxHops) {
  struct Collect : WalkVisitor {
    std::vector<bool> dirty;
    void write(std::int64_t w) { dirty[static_cast<std::size_t>(w)] = true; }
  } collect{{}, std::vector<bool>(program.pmemWords, false)};
  walkHops(program, maxHops, collect);
  return std::move(collect.dirty);
}

}  // namespace tpp::core
