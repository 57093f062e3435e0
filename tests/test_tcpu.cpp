#include "src/tcpu/tcpu.hpp"

#include <gtest/gtest.h>

#include "src/core/program.hpp"
#include "src/net/ethernet.hpp"
#include "tests/fake_memory.hpp"

namespace tpp::tcpu {
namespace {

using core::AddressingMode;
using core::Fault;
using core::Opcode;
using core::Program;
using core::ProgramBuilder;
using core::TppView;
using test::FakeMemory;

struct Harness {
  net::PacketPtr packet;
  std::optional<TppView> view;

  explicit Harness(const Program& program) {
    packet = core::buildTppFrame(net::MacAddress::fromIndex(1),
                                 net::MacAddress::fromIndex(2), program);
    view = TppView::at(*packet, net::kEthernetHeaderSize);
    EXPECT_TRUE(view);
  }
};

TEST(Tcpu, PushCopiesSwitchWordAndAdvancesSp) {
  ProgramBuilder b;
  b.push(0xb000);
  b.reserve(4);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0xb000] = 0xa0;
  Tcpu tcpu;
  const auto report = tcpu.execute(*h.view, mem);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.executed, 1u);
  EXPECT_EQ(h.view->pmemWord(0), 0xa0u);
  EXPECT_EQ(h.view->stackPointer(), 4);
}

TEST(Tcpu, RepeatedExecutionModelsMultiHop) {
  // Fig 1: the same PUSH executes at each hop, stacking snapshots.
  ProgramBuilder b;
  b.push(0xb000);
  b.reserve(3);
  Harness h(*b.build());
  FakeMemory mem;
  Tcpu tcpu;
  for (const std::uint32_t qsize : {0x00u, 0xa0u, 0x0eu}) {
    mem.words[0xb000] = qsize;
    tcpu.execute(*h.view, mem);
  }
  EXPECT_EQ(h.view->pmemWord(0), 0x00u);
  EXPECT_EQ(h.view->pmemWord(1), 0xa0u);
  EXPECT_EQ(h.view->pmemWord(2), 0x0eu);
  EXPECT_EQ(h.view->stackPointer(), 12);
  EXPECT_EQ(h.view->hopNumber(), 3);
}

TEST(Tcpu, PushOverflowFaults) {
  ProgramBuilder b;
  b.push(0xb000);
  b.reserve(1);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0xb000] = 1;
  Tcpu tcpu;
  EXPECT_TRUE(tcpu.execute(*h.view, mem).ok());   // fills the only slot
  const auto report = tcpu.execute(*h.view, mem);  // overflows
  EXPECT_EQ(report.fault, Fault::PmemOutOfBounds);
  EXPECT_EQ(h.view->faultCode(), Fault::PmemOutOfBounds);
  EXPECT_TRUE(h.view->flags() & core::kFlagFaulted);
}

TEST(Tcpu, PopWritesSwitchAndRetreatsSp) {
  ProgramBuilder b;
  b.push(0xb000);
  b.pop(0xe000);
  b.reserve(2);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0xb000] = 77;
  mem.words[0xe000] = 0;
  Tcpu tcpu;
  const auto report = tcpu.execute(*h.view, mem);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(mem.words[0xe000], 77u);
  EXPECT_EQ(h.view->stackPointer(), 0);
}

TEST(Tcpu, PopUnderflowFaults) {
  ProgramBuilder b;
  b.pop(0xe000);
  b.reserve(2);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0xe000] = 0;
  Tcpu tcpu;
  EXPECT_EQ(tcpu.execute(*h.view, mem).fault, Fault::PmemOutOfBounds);
}

TEST(Tcpu, LoadStoreAbsoluteIndices) {
  ProgramBuilder b;
  b.load(0x1000, 1);
  b.store(0xe000, 1);
  b.reserve(2);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 5;
  mem.words[0xe000] = 0;
  Tcpu tcpu;
  EXPECT_TRUE(tcpu.execute(*h.view, mem).ok());
  EXPECT_EQ(h.view->pmemWord(1), 5u);
  EXPECT_EQ(mem.words[0xe000], 5u);
}

TEST(Tcpu, HopModeLoadsIntoHopRecord) {
  ProgramBuilder b;
  b.mode(AddressingMode::Hop).perHop(2).reserve(6);
  b.load(0x1000, 0);
  b.load(0xb000, 1);
  Harness h(*b.build());
  FakeMemory mem;
  Tcpu tcpu;
  for (std::uint32_t hop = 0; hop < 3; ++hop) {
    mem.words[0x1000] = 100 + hop;  // switch id
    mem.words[0xb000] = 200 + hop;  // queue size
    EXPECT_TRUE(tcpu.execute(*h.view, mem).ok());
  }
  // LOAD [..], [Packet:hop[k]] lands at hop*perHop + k (§3.2.2).
  EXPECT_EQ(h.view->pmemWord(0), 100u);
  EXPECT_EQ(h.view->pmemWord(1), 200u);
  EXPECT_EQ(h.view->pmemWord(2), 101u);
  EXPECT_EQ(h.view->pmemWord(3), 201u);
  EXPECT_EQ(h.view->pmemWord(4), 102u);
  EXPECT_EQ(h.view->pmemWord(5), 202u);
}

TEST(Tcpu, HopModeOverflowFaultsAsHopOverflow) {
  ProgramBuilder b;
  b.mode(AddressingMode::Hop).perHop(2).reserve(2);  // room for one hop
  b.load(0x1000, 0);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 1;
  Tcpu tcpu;
  EXPECT_TRUE(tcpu.execute(*h.view, mem).ok());
  EXPECT_EQ(tcpu.execute(*h.view, mem).fault, Fault::HopOverflow);
}

TEST(Tcpu, CstoreSwapsWhenConditionHolds) {
  ProgramBuilder b;
  std::uint8_t off = 0;
  b.cstore(0xe000, /*cond=*/10, /*src=*/99, &off);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0xe000] = 10;
  Tcpu tcpu;
  EXPECT_TRUE(tcpu.execute(*h.view, mem).ok());
  EXPECT_EQ(mem.words[0xe000], 99u);
  // Old value written back; equal to cond ⇒ caller knows it succeeded.
  EXPECT_EQ(h.view->pmemWord(off), 10u);
}

TEST(Tcpu, CstoreRefusesWhenConditionFails) {
  ProgramBuilder b;
  std::uint8_t off = 0;
  b.cstore(0xe000, /*cond=*/10, /*src=*/99, &off);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0xe000] = 11;
  Tcpu tcpu;
  EXPECT_TRUE(tcpu.execute(*h.view, mem).ok());
  EXPECT_EQ(mem.words[0xe000], 11u);   // unchanged
  EXPECT_EQ(h.view->pmemWord(off), 11u);  // observed value reported
}

TEST(Tcpu, CexecPredicatePassExecutesRest) {
  ProgramBuilder b;
  b.cexec(0x1000, 0xffffffff, 7);
  b.storeImm(0xe000, 42);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 7;
  mem.words[0xe000] = 0;
  Tcpu tcpu;
  const auto report = tcpu.execute(*h.view, mem);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.cexecSkipped);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(mem.words[0xe000], 42u);
}

TEST(Tcpu, CexecPredicateFailSkipsRest) {
  ProgramBuilder b;
  b.cexec(0x1000, 0xffffffff, 7);
  b.storeImm(0xe000, 42);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 8;  // wrong switch
  mem.words[0xe000] = 0;
  Tcpu tcpu;
  const auto report = tcpu.execute(*h.view, mem);
  EXPECT_TRUE(report.ok());  // a failed predicate is not a fault
  EXPECT_TRUE(report.cexecSkipped);
  EXPECT_EQ(report.executed, 1u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(mem.words[0xe000], 0u);
  EXPECT_TRUE(h.view->flags() & core::kFlagCexecSkipped);
}

TEST(Tcpu, CexecMaskSelectsBits) {
  ProgramBuilder b;
  // reg = 0x12345678; reg & 0x0000ff00 == 0x00005600.
  b.cexec(0x1000, 0x0000ff00, 0x00005600);
  b.storeImm(0xe000, 1);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 0x12345678;
  mem.words[0xe000] = 0;
  Tcpu tcpu;
  EXPECT_FALSE(tcpu.execute(*h.view, mem).cexecSkipped);
  EXPECT_EQ(mem.words[0xe000], 1u);
}

TEST(Tcpu, ArithmeticOps) {
  ProgramBuilder b;
  const auto accIdx = b.imm(100);
  b.add(0x1000, accIdx);
  b.sub(0x1001, accIdx);
  b.minOp(0x1002, accIdx);
  b.maxOp(0x1003, accIdx);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 20;  // 100 + 20 = 120
  mem.words[0x1001] = 30;  // 120 - 30 = 90
  mem.words[0x1002] = 50;  // min(90, 50) = 50
  mem.words[0x1003] = 70;  // max(50, 70) = 70
  Tcpu tcpu;
  EXPECT_TRUE(tcpu.execute(*h.view, mem).ok());
  EXPECT_EQ(h.view->pmemWord(accIdx), 70u);
}

TEST(Tcpu, SubWrapsLikeHardware) {
  ProgramBuilder b;
  const auto idx = b.imm(1);
  b.sub(0x1000, idx);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 2;
  Tcpu tcpu;
  EXPECT_TRUE(tcpu.execute(*h.view, mem).ok());
  EXPECT_EQ(h.view->pmemWord(idx), 0xffffffffu);  // 1 - 2 mod 2^32
}

TEST(Tcpu, UnmappedReadFaultsAndStops) {
  ProgramBuilder b;
  b.push(0x0123);
  b.push(0x1000);
  b.reserve(4);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 1;
  Tcpu tcpu;
  const auto report = tcpu.execute(*h.view, mem);
  EXPECT_EQ(report.fault, Fault::UnmappedAddress);
  EXPECT_EQ(report.executed, 0u);       // first instruction faulted
  EXPECT_EQ(h.view->stackPointer(), 0);  // nothing pushed
}

TEST(Tcpu, ReadOnlyWriteFaults) {
  ProgramBuilder b;
  b.storeImm(0xf000, 1);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0xf000] = 0;
  mem.readOnlyAbove = 0xf000;
  Tcpu tcpu;
  EXPECT_EQ(tcpu.execute(*h.view, mem).fault, Fault::ReadOnlyViolation);
  EXPECT_EQ(mem.words[0xf000], 0u);
}

TEST(Tcpu, GrantViolationSurfacesInHeader) {
  ProgramBuilder b;
  b.task(13);
  b.push(0x1000);
  b.reserve(2);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 1;
  mem.deniedTask = 13;
  Tcpu tcpu;
  EXPECT_EQ(tcpu.execute(*h.view, mem).fault, Fault::GrantViolation);
  EXPECT_EQ(h.view->faultCode(), Fault::GrantViolation);
}

TEST(Tcpu, BadInstructionFaults) {
  ProgramBuilder b;
  b.push(0x1000);
  b.reserve(2);
  Harness h(*b.build());
  // Corrupt the opcode on the wire.
  h.packet->bytes()[net::kEthernetHeaderSize + core::kTppHeaderSize] = 0x7f;
  FakeMemory mem;
  Tcpu tcpu;
  EXPECT_EQ(tcpu.execute(*h.view, mem).fault, Fault::BadInstruction);
}

TEST(Tcpu, HopCounterAdvancesEvenOnFault) {
  ProgramBuilder b;
  b.push(0x0123);  // unmapped
  b.reserve(1);
  Harness h(*b.build());
  FakeMemory mem;
  Tcpu tcpu;
  tcpu.execute(*h.view, mem);
  EXPECT_EQ(h.view->hopNumber(), 1);
}

TEST(Tcpu, EmptyProgramStillCountsHop) {
  ProgramBuilder b;
  b.reserve(1);
  Harness h(*b.build());
  FakeMemory mem;
  Tcpu tcpu;
  const auto report = tcpu.execute(*h.view, mem);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.executed, 0u);
  EXPECT_EQ(report.cycles, 0u);
  EXPECT_EQ(h.view->hopNumber(), 1);
}

TEST(Tcpu, FaultPersistsAcrossLaterHops) {
  ProgramBuilder b;
  b.push(0x0123);
  b.reserve(1);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x0123] = 1;  // mapped at the SECOND hop only
  Tcpu tcpu;
  FakeMemory unmapped;
  tcpu.execute(*h.view, unmapped);
  tcpu.execute(*h.view, mem);
  // First-fault-wins semantics survive the second, clean execution.
  EXPECT_EQ(h.view->faultCode(), Fault::UnmappedAddress);
}

TEST(Tcpu, ReportKeepsFirstOfTwoFaultsLikeTheHeader) {
  // ADD reads packet and switch memory; both fault here. The report, the
  // header and the fault counter all see the first fault only.
  ProgramBuilder b;
  b.add(0x0123, 3);  // pmem word 3 of 1, and an unmapped address
  b.reserve(1);
  Harness h(*b.build());
  FakeMemory mem;
  Tcpu tcpu;
  EXPECT_EQ(tcpu.execute(*h.view, mem).fault, Fault::PmemOutOfBounds);
  EXPECT_EQ(h.view->faultCode(), Fault::PmemOutOfBounds);
  EXPECT_EQ(tcpu.faults(), 1u);
}

TEST(Tcpu, LifetimeCounters) {
  ProgramBuilder b;
  b.push(0x1000);
  b.push(0x1000);
  b.reserve(4);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 1;
  Tcpu tcpu;
  tcpu.execute(*h.view, mem);
  tcpu.execute(*h.view, mem);
  EXPECT_EQ(tcpu.tppsProcessed(), 2u);
  EXPECT_EQ(tcpu.instructionsExecuted(), 4u);
  EXPECT_EQ(tcpu.faults(), 0u);
}

// --------------------------------------------------------- cycle model

TEST(CycleModel, PipelineFormula) {
  CycleModel m;
  EXPECT_EQ(m.cycles(0), 0u);
  EXPECT_EQ(m.cycles(1), 4u);   // fill the pipeline
  EXPECT_EQ(m.cycles(5), 8u);   // 4 + 5 - 1
  EXPECT_EQ(m.cycles(20), 23u);
}

TEST(CycleModel, FiveInstructionsFitCutThrough) {
  // §3.3: a handful of instructions hides inside the 300 ns budget at 1 GHz.
  CycleModel m;
  EXPECT_TRUE(m.fitsCutThrough(5));
  EXPECT_TRUE(m.fitsCutThrough(100));
  EXPECT_FALSE(m.fitsCutThrough(500));
}

TEST(CycleModel, NanosScaleWithClock) {
  CycleModel slow{4, 0.5};  // 500 MHz
  EXPECT_DOUBLE_EQ(slow.nanos(5), 16.0);
  CycleModel fast{4, 2.0};  // 2 GHz
  EXPECT_DOUBLE_EQ(fast.nanos(5), 4.0);
}

TEST(Tcpu, ReportsCycles) {
  ProgramBuilder b;
  for (int i = 0; i < 5; ++i) b.push(0x1000);
  b.reserve(8);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0x1000] = 1;
  Tcpu tcpu;
  EXPECT_EQ(tcpu.execute(*h.view, mem).cycles, 8u);
}

TEST(Tcpu, DecodeCacheHitsOnRepeatedProgram) {
  // Same program at every hop (the Fig 1 pattern): one decode, then hits.
  ProgramBuilder b;
  b.push(0xb000);
  b.reserve(8);
  Harness h(*b.build());
  FakeMemory mem;
  mem.words[0xb000] = 1;
  Tcpu tcpu;
  for (int hop = 0; hop < 5; ++hop) tcpu.execute(*h.view, mem);
  EXPECT_EQ(tcpu.decodeCacheMisses(), 1u);
  EXPECT_EQ(tcpu.decodeCacheHits(), 4u);
}

TEST(Tcpu, DecodeCacheDistinguishesPrograms) {
  // Two different programs must not alias to each other's decoded form.
  ProgramBuilder b1;
  b1.push(0xb000);
  b1.reserve(4);
  ProgramBuilder b2;
  b2.load(0xc000, 0);
  b2.reserve(4);
  Harness h1(*b1.build());
  Harness h2(*b2.build());
  FakeMemory mem;
  mem.words[0xb000] = 0x11;
  mem.words[0xc000] = 0x22;
  Tcpu tcpu;
  tcpu.execute(*h1.view, mem);
  tcpu.execute(*h2.view, mem);
  tcpu.execute(*h1.view, mem);
  EXPECT_EQ(h1.view->pmemWord(0), 0x11u);  // PUSH result, hop 0
  EXPECT_EQ(h1.view->pmemWord(1), 0x11u);  // PUSH result, hop 2
  EXPECT_EQ(h2.view->pmemWord(0), 0x22u);  // LOAD result
}

TEST(Tcpu, BadInstructionFaultsOnlyWhenReached) {
  // An undecodable word past a failed CEXEC predicate must not fault —
  // caching whole programs may not change lazy-decode semantics.
  ProgramBuilder b;
  b.cexec(0x1000, 0xffffffff, 0x0);  // predicate false: reg is 5
  b.reserve(8);
  auto program = *b.build();
  program.instructions.push_back(
      {static_cast<core::Opcode>(0x7f), 0, 0});  // undecodable
  Harness h(program);
  FakeMemory mem;
  mem.words[0x1000] = 5;
  Tcpu tcpu;
  const auto report = tcpu.execute(*h.view, mem);
  EXPECT_EQ(report.fault, core::Fault::None);
  EXPECT_TRUE(report.cexecSkipped);

  // Rewind the hop counter and make the predicate pass: now execution
  // reaches the bad word and must fault.
  h.view->setHopNumber(0);
  mem.words[0x1000] = 0;
  const auto report2 = tcpu.execute(*h.view, mem);
  EXPECT_EQ(report2.fault, core::Fault::BadInstruction);
}

}  // namespace
}  // namespace tpp::tcpu
