// Resident-hook machinery: the salted column hash family, per-packet
// materialization, and the differential between the TCPU loop's two
// packet-memory policies (executeResident vs execute in stack mode).
#include "src/core/hook.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "src/core/program.hpp"
#include "src/monitor/sketch.hpp"
#include "src/net/ethernet.hpp"
#include "src/tcpu/tcpu.hpp"
#include "tests/fake_memory.hpp"

namespace tpp::core {
namespace {

// ------------------------------------------------------------ hash family

TEST(HookMix, ColumnsCoverEverySlot) {
  constexpr std::uint32_t kSlots = 64;
  std::vector<std::uint32_t> hits(kSlots, 0);
  for (std::uint64_t f = 0; f < 64 * kSlots; ++f) {
    ++hits[hookColumn(f * 0x9e3779b97f4a7c15ull, 1, kSlots)];
  }
  for (std::uint32_t c = 0; c < kSlots; ++c) {
    EXPECT_GT(hits[c], 0u) << "column " << c << " never selected";
  }
}

// Regression for the low-bit locality failure: raw FNV-1a's `mix % 2^k`
// depends only on the low k bits of its state, and the sketch's row salts
// differ in a single low byte — so two flows that collided in one row's
// column collided in EVERY row's column, and min-over-rows degenerated to
// a single hash. The (eps, delta) accuracy bound rests on the rows being
// independent draws, which is exactly what this asserts: among flows that
// collide with a reference flow in row 0, only ~1/width may also collide
// in row 1.
TEST(HookMix, RowSaltsGiveIndependentColumns) {
  constexpr std::uint32_t kWidth = 64;
  const std::uint64_t salt0 = monitor::CountMinSketch::rowSalt(0);
  const std::uint64_t salt1 = monitor::CountMinSketch::rowSalt(1);
  const std::uint64_t ref = 0x1234'5678'9abc'def0ull;
  const std::uint32_t refCol0 = hookColumn(ref, salt0, kWidth);
  const std::uint32_t refCol1 = hookColumn(ref, salt1, kWidth);

  std::uint32_t row0Collisions = 0;
  std::uint32_t bothCollisions = 0;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1 << 14; ++i) {
    const std::uint64_t f = rng();
    if (hookColumn(f, salt0, kWidth) != refCol0) continue;
    ++row0Collisions;
    if (hookColumn(f, salt1, kWidth) == refCol1) ++bothCollisions;
  }
  // ~256 row-0 collisions expected; of those, ~1/64 should carry into
  // row 1. The buggy hash carried ALL of them (bothCollisions ==
  // row0Collisions).
  ASSERT_GT(row0Collisions, 100u);
  EXPECT_LT(bothCollisions * 8, row0Collisions)
      << bothCollisions << " of " << row0Collisions
      << " row-0 collisions repeated in row 1 — the row hashes are not "
         "independent";
}

TEST(HookFlowSig, IsAlwaysNonZero) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(hookFlowSig(rng(), rng()), 0u);
  }
}

TEST(HookColumn, ZeroSlotsIsSafe) {
  EXPECT_EQ(hookColumn(123, 456, 0), 0u);
}

// -------------------------------------------------------- materialization

TEST(MaterializeHook, PatchesAddressesAndPmemSources) {
  ProgramBuilder b;
  b.task(8);
  b.imm(0);  // pmem[0]: FlowSig target
  b.imm(0);  // pmem[1]: SpinBit target
  b.imm(0);  // pmem[2]: SpinInverse target
  b.load(0x1000, 0);
  b.store(0x1000, 1);
  HookProgram hook;
  hook.program = *b.build();
  HookProgram::AddrPatch patch;
  patch.baseAddress = 0xe000;
  patch.slots = 16;
  patch.slotStride = 4;
  patch.salt = 99;
  patch.targets = {{0, 0}, {1, 3}};
  hook.addrPatches.push_back(patch);
  hook.pmemPatches = {{0, HookProgram::PmemSource::FlowSig, 5},
                      {1, HookProgram::PmemSource::SpinBit, 0},
                      {2, HookProgram::PmemSource::SpinInverse, 0}};

  const std::uint64_t flow = 0xdeadbeefull;
  const std::uint32_t col = 9;
  const Program m = materializeHook(hook, col, flow, /*spin=*/1);
  EXPECT_EQ(m.instructions[0].addr, 0xe000 + col * 4);
  EXPECT_EQ(m.instructions[1].addr, 0xe000 + col * 4 + 3);
  EXPECT_EQ(m.initialPmem[0], hookFlowSig(flow, 5));
  EXPECT_EQ(m.initialPmem[1], 1u);
  EXPECT_EQ(m.initialPmem[2], 0u);

  const Program m0 = materializeHook(hook, col, flow, /*spin=*/0);
  EXPECT_EQ(m0.initialPmem[1], 0u);
  EXPECT_EQ(m0.initialPmem[2], 1u);
}

// ------------------------------------- resident vs wire differential

using test::FakeMemory;

// Random stack-mode programs over a tiny mapped region must behave
// identically under the interpreter's two packet-memory policies: the wire
// path (decode + TppView) and the resident path (pre-decoded instructions +
// caller-owned pmem). Same report, same final packet memory, same final
// switch memory. Packet memory is sized just past the immediates, so the
// fault paths (unmapped switch words, pmem overruns, POP underflow) are
// compared too.
TEST(ExecuteResident, MatchesWireExecutionOnRandomPrograms) {
  std::mt19937_64 rng(42);
  constexpr std::uint16_t kBase = 0xb000;
  constexpr int kMapped = 6;
  std::map<Fault, int> faultsSeen;

  for (int trial = 0; trial < 500; ++trial) {
    Program p;
    p.mode = AddressingMode::Stack;
    p.taskId = 8;
    const std::size_t numImm = rng() % 6;
    p.pmemWords = static_cast<std::uint8_t>(numImm + 1 + rng() % 4);
    for (std::size_t i = 0; i < numImm; ++i) {
      p.initialPmem.push_back(static_cast<std::uint32_t>(rng() % 7));
    }
    p.initialSp = static_cast<std::uint16_t>(numImm * kWordSize);
    const std::size_t numInstr = 1 + rng() % 6;
    for (std::size_t i = 0; i < numInstr; ++i) {
      static constexpr Opcode kOps[] = {
          Opcode::Nop,   Opcode::Push, Opcode::Pop,    Opcode::Load,
          Opcode::Store, Opcode::Add,  Opcode::Sub,    Opcode::Min,
          Opcode::Max,   Opcode::Cstore, Opcode::Cexec};
      Instruction ins;
      ins.op = kOps[rng() % std::size(kOps)];
      // Occasionally unmapped, to diff the fault paths too.
      ins.addr = static_cast<std::uint16_t>(kBase + rng() % (kMapped + 1));
      ins.pmemOff = static_cast<std::uint8_t>(rng() % 8);
      p.instructions.push_back(ins);
    }

    FakeMemory wireMem;
    for (int w = 0; w < kMapped; ++w) {
      wireMem.words[static_cast<std::uint16_t>(kBase + w)] =
          static_cast<std::uint32_t>(rng() % 5);
    }
    FakeMemory residentMem = wireMem;

    // Wire path.
    auto packet = buildTppFrame(net::MacAddress::fromIndex(1),
                                net::MacAddress::fromIndex(2), p);
    auto view = TppView::at(*packet, net::kEthernetHeaderSize);
    ASSERT_TRUE(view);
    tcpu::Tcpu tcpu;
    const auto wireReport = tcpu.execute(*view, wireMem);

    // Resident path: same decoded instructions, caller-owned pmem image.
    std::vector<std::uint32_t> pmem(p.pmemWords, 0);
    std::copy(p.initialPmem.begin(), p.initialPmem.end(), pmem.begin());
    const auto residentReport = tcpu.executeResident(
        p.instructions, pmem, p.taskId, residentMem, p.initialSp);

    EXPECT_EQ(wireReport.executed, residentReport.executed) << "trial "
                                                            << trial;
    EXPECT_EQ(wireReport.skipped, residentReport.skipped);
    EXPECT_EQ(wireReport.fault, residentReport.fault);
    EXPECT_EQ(view->faultCode(), wireReport.fault) << "trial " << trial;
    ++faultsSeen[wireReport.fault];
    EXPECT_EQ(wireReport.cexecSkipped, residentReport.cexecSkipped);
    EXPECT_EQ(wireReport.cycles, residentReport.cycles);
    for (std::size_t w = 0; w < p.pmemWords; ++w) {
      EXPECT_EQ(view->pmemWord(w), pmem[w])
          << "trial " << trial << " pmem word " << w;
    }
    EXPECT_EQ(wireMem.words, residentMem.words) << "trial " << trial;
  }
  EXPECT_GT(faultsSeen[Fault::PmemOutOfBounds], 0);
  EXPECT_GT(faultsSeen[Fault::UnmappedAddress], 0);
}

}  // namespace
}  // namespace tpp::core
