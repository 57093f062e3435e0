// The shared stack-pointer walk (src/core/walk.hpp): differential against
// the summarizer's original private walk, and soundness of the effect
// summaries built on it against what the TCPU actually does.
#include "src/core/walk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/core/assembler.hpp"
#include "src/core/header.hpp"
#include "src/core/interference.hpp"
#include "src/core/verifier.hpp"
#include "src/net/ethernet.hpp"
#include "src/sim/random.hpp"
#include "src/tcpu/tcpu.hpp"
#include "tests/fake_memory.hpp"
#include "tests/may_write_oracle.hpp"
#include "tests/test_util.hpp"

namespace tpp::core {
namespace {

// A value pool that makes CEXEC predicates and CSTORE comparands match
// some of the time instead of almost never.
std::uint32_t randomWord(sim::Rng& rng) {
  switch (rng.uniformInt(0, 3)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 0xffffffffu;
    default: return static_cast<std::uint32_t>(rng.uniformInt(0, 0xffffffff));
  }
}

bool hasOp(const Program& p, Opcode op) {
  return std::any_of(p.instructions.begin(), p.instructions.end(),
                     [op](const Instruction& in) { return in.op == op; });
}

TEST(WalkDifferential, MayWriteMatchesOracle) {
  // The oracle joins each hop's end stack-pointer interval with the hop's
  // start interval; the shared walk joins only CEXEC exits. Without a POP
  // the stack climbs one slot per PUSH, the hull adds no slot a PUSH does
  // not reach anyway, and the two sets are equal. With POPs the stack can
  // fall more than one slot per hop (or start unaligned), the hull then
  // spans slots no execution pushes to, and the shared walk's set is a
  // strict subset. That it still covers every real write is what the
  // soundness test below checks against the TCPU.
  for (const std::uint64_t seed : {0x3a1cu, 0x3a1du, 0x3a1eu}) {
    sim::Rng rng(seed);
    for (int i = 0; i < 2000; ++i) {
      auto program = test::randomCandidateProgram(rng);
      // Odd starting stack pointers and initialized words, which the
      // generator alone never produces.
      if (rng.bernoulli(0.5)) {
        program.initialSp = static_cast<std::uint16_t>(rng.uniformInt(0, 40));
      }
      const auto imms = rng.uniformInt(0, 3);
      for (std::int64_t k = 0; k < imms; ++k) {
        program.initialPmem.push_back(randomWord(rng));
      }
      program.perHopWords = static_cast<std::uint8_t>(rng.uniformInt(0, 4));
      const bool pops = hasOp(program, Opcode::Pop);
      for (const auto mode : {AddressingMode::Stack, AddressingMode::Hop}) {
        program.mode = mode;
        for (std::size_t hops = 1; hops <= 8; ++hops) {
          const auto walk = mayWriteSet(program, hops);
          const auto oracle = test::mayWriteWords(program, hops);
          if (walk == oracle) continue;
          ASSERT_TRUE(pops) << "seed " << seed << " program " << i
                            << " hops " << hops << ":\n"
                            << disassemble(program);
          for (std::size_t w = 0; w < walk.size(); ++w) {
            ASSERT_TRUE(!walk[w] || oracle[w])
                << "seed " << seed << " program " << i << " hops " << hops
                << " word " << w << ":\n" << disassemble(program);
          }
        }
      }
    }
  }
}

TEST(SummarySoundness, CoversEveryTcpuWrite) {
  // Install-time admission trusts the effect summary: every switch word a
  // verified program can write must show up as a Write or Rmw effect, and
  // every packet word it changes must be in the walk's may-write set.
  constexpr std::size_t kHops = 8;
  sim::Rng rng(0x50d0u);
  VerifyOptions vopts;
  vopts.maxHops = kHops;
  // Accepted programs by [has CEXEC][has CSTORE].
  std::size_t accepted[2][2] = {};
  std::size_t switchWrites = 0;
  std::size_t cexecHalts = 0;

  for (int i = 0; i < 20000; ++i) {
    auto program = test::randomCandidateProgram(rng);
    const auto imms = rng.uniformInt(0, 3);
    for (std::int64_t k = 0; k < imms && k < program.pmemWords; ++k) {
      program.initialPmem.push_back(randomWord(rng));
    }
    if (!verify(program, MemoryMap::standard(), vopts).ok()) continue;
    const bool cexec = hasOp(program, Opcode::Cexec);
    const bool cstore = hasOp(program, Opcode::Cstore);
    ++accepted[cexec][cstore];

    const EffectSummary summary = summarize(program, {}, kHops);
    test::FakeMemory mem;
    for (const auto& in : program.instructions) {
      if (!mem.words.contains(in.addr)) mem.words[in.addr] = randomWord(rng);
    }
    auto frame = buildTppFrame(net::MacAddress::fromIndex(1),
                               net::MacAddress::fromIndex(2), program);
    auto view = TppView::at(*frame, net::kEthernetHeaderSize);
    ASSERT_TRUE(view);
    std::vector<std::optional<std::uint32_t>> before(program.pmemWords);
    for (std::size_t w = 0; w < before.size(); ++w) {
      before[w] = view->pmemWord(w);
    }

    tcpu::Tcpu tcpu;
    for (std::size_t hop = 1; hop <= kHops; ++hop) {
      const auto report = tcpu.execute(*view, mem);
      cexecHalts += report.cexecSkipped ? 1 : 0;
      ASSERT_TRUE(report.ok()) << "program " << i << " faulted at hop "
                               << hop << ":\n" << disassemble(program);
      const auto mayWrite = mayWriteSet(program, hop);
      for (std::size_t w = 0; w < before.size(); ++w) {
        if (view->pmemWord(w) == before[w]) continue;
        EXPECT_TRUE(mayWrite[w])
            << "program " << i << " changed packet word " << w
            << " within " << hop << " hops outside the may-write set:\n"
            << disassemble(program);
      }
    }

    switchWrites += mem.writeLog.size();
    for (const std::uint16_t address : mem.writeLog) {
      const bool covered = std::any_of(
          summary.effects.begin(), summary.effects.end(),
          [address](const Effect& e) {
            return e.address == address && (e.kind == EffectKind::Write ||
                                             e.kind == EffectKind::Rmw);
          });
      EXPECT_TRUE(covered) << "program " << i << " wrote switch address "
                           << address << " with no Write/Rmw effect:\n"
                           << disassemble(program);
    }
  }

  // Each CEXEC/CSTORE combination must be represented, or the property
  // says nothing about the guard and compare-and-swap paths.
  for (const bool cexec : {false, true}) {
    for (const bool cstore : {false, true}) {
      EXPECT_GE(accepted[cexec][cstore], 50u)
          << "cexec=" << cexec << " cstore=" << cstore;
    }
  }
  EXPECT_GT(switchWrites, 0u);
  EXPECT_GT(cexecHalts, 0u);
}

}  // namespace
}  // namespace tpp::core
