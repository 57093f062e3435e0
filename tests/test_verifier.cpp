// Static-verifier tests: the documented edge cases, check toggling, and
// the differential property the verifier's soundness contract promises —
// any accepted program executes its full hop budget without faulting.
#include "src/core/verifier.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/agent.hpp"
#include "src/core/assembler.hpp"
#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/host/collector.hpp"
#include "src/host/topology.hpp"
#include "src/sim/random.hpp"
#include "tests/test_util.hpp"

namespace tpp::core {
namespace {

using host::Testbed;
using test::randomCandidateProgram;

bool anyMessageContains(const VerifyResult& r, std::string_view needle) {
  for (const auto& d : r.diagnostics) {
    if (d.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ------------------------------------------------------------ edge cases

TEST(Verifier, CexecGuardDoesNotRelaxGrantWindows) {
  // A CEXEC-guarded STORE past the task's grant window must still be an
  // error: the predicate cannot be proven false statically, so some
  // switch along the path may execute the store.
  SramAllocator grants;
  const auto grant = grants.allocate(/*taskId=*/7, /*words=*/4);
  ASSERT_TRUE(grant.has_value());
  ASSERT_TRUE(grants.enforcing());

  ProgramBuilder b;
  b.task(7);
  b.cexec(addr::SwitchId, 0xffffffffu, 1);
  b.store(static_cast<std::uint16_t>(grant->baseAddress() + grant->words), 0);
  const auto program = *b.build();

  VerifyOptions opts;
  opts.grants = &grants;
  const auto result = verify(program, MemoryMap::standard(), opts);
  EXPECT_FALSE(result.ok());
  ASSERT_GE(result.errors, 1u);
  EXPECT_TRUE(anyMessageContains(result, "grant window"));
  EXPECT_TRUE(anyMessageContains(
      result, "CEXEC guard cannot be proven false statically"));

  // The same store inside the window is clean.
  ProgramBuilder ok;
  ok.task(7);
  ok.cexec(addr::SwitchId, 0xffffffffu, 1);
  ok.store(grant->baseAddress(), 0);
  EXPECT_TRUE(verify(*ok.build(), MemoryMap::standard(), opts).ok());
}

TEST(Verifier, PerHopRecordMismatchWarns) {
  // Records touch 3 words but .perhop claims 2: successive hops overlap.
  ProgramBuilder b;
  b.mode(AddressingMode::Hop);
  b.perHop(2);
  b.load(addr::SwitchId, 0);
  b.load(addr::QueueBytes, 1);
  b.load(addr::TimeLo, 2);
  b.reserve(3);
  auto result = verify(*b.build(), MemoryMap::standard(), {.maxHops = 1});
  EXPECT_TRUE(result.ok());  // a layout smell, not a fault
  EXPECT_GE(result.warnings, 1u);
  EXPECT_TRUE(anyMessageContains(result, "hop records overlap"));

  // Touching fewer words than .perhop misaligns end-host parsing.
  ProgramBuilder c;
  c.mode(AddressingMode::Hop);
  c.perHop(4);
  c.load(addr::SwitchId, 0);
  c.reserve(4);
  result = verify(*c.build(), MemoryMap::standard(), {.maxHops = 1});
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(anyMessageContains(result, "misalign"));
}

TEST(Verifier, StackOverflowExactHopBoundary) {
  // One PUSH per hop into 4 reserved words: exactly 4 hops fit, the 5th
  // overflows. The bound must be exact, not approximate.
  ProgramBuilder b;
  b.push(addr::SwitchId);
  b.reserve(4);
  const auto program = *b.build();

  EXPECT_TRUE(verify(program, MemoryMap::standard(), {.maxHops = 4}).ok());

  const auto over = verify(program, MemoryMap::standard(), {.maxHops = 5});
  EXPECT_FALSE(over.ok());
  EXPECT_TRUE(anyMessageContains(over, "at hop 4"));
  EXPECT_TRUE(anyMessageContains(over, "PmemOutOfBounds"));
}

TEST(Verifier, StoreToReadOnlyStatisticIsAnError) {
  ProgramBuilder b;
  b.storeImm(addr::SwitchId, 5);
  const auto program = *b.build();

  const auto result = verify(program);
  EXPECT_FALSE(result.ok());
  ASSERT_GE(result.errors, 1u);
  EXPECT_EQ(result.diagnostics[0].check, Check::WritePermission);
  EXPECT_TRUE(anyMessageContains(result, "read-only statistic"));

  // Toggling the check off accepts the program (the caller opted out).
  VerifyOptions opts;
  opts.checks = kAllChecks & ~checkBit(Check::WritePermission);
  EXPECT_TRUE(verify(program, MemoryMap::standard(), opts).ok());
}

TEST(Verifier, UseBeforeInitOnOneOfTwoPaths) {
  // Word 2 is written only on the path where the CEXEC predicate holds.
  // Hop 1 reads it definitely-uninitialized; from hop 2 on, the join of
  // the two hop-1 exits makes the read path-dependent (Maybe).
  ProgramBuilder b;
  b.store(kSramBase, 2);                    // reads [Packet:2]
  b.cexec(addr::SwitchId, 0xffffffffu, 1);  // imms occupy words 0, 1
  b.load(addr::SwitchId, 2);                // writes [Packet:2] if reached
  b.reserve(1);
  const auto result = verify(*b.build(), MemoryMap::standard(), {.maxHops = 2});

  EXPECT_TRUE(result.ok());  // wire zero-fill: silent zero, not a fault
  EXPECT_EQ(result.warnings, 2u);
  EXPECT_TRUE(anyMessageContains(result, "no path initializes"));
  EXPECT_TRUE(anyMessageContains(result, "CEXEC-skipped"));
}

TEST(Verifier, WerrorUpgradesWarnings) {
  ProgramBuilder b;
  b.store(kSramBase, 1);  // reads uninitialized [Packet:1]
  b.reserve(2);
  const auto program = *b.build();

  EXPECT_TRUE(verify(program).ok());
  EXPECT_FALSE(verify(program, MemoryMap::standard(), {.werror = true}).ok());
}

TEST(Verifier, BudgetWarningIsTunable) {
  ProgramBuilder b;
  for (int i = 0; i < 6; ++i) b.push(addr::SwitchId);
  b.reserve(48);
  const auto program = *b.build();

  const auto result = verify(program);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(anyMessageContains(result, "instruction budget"));

  VerifyOptions relaxed;
  relaxed.budgetInstructions = 10;
  EXPECT_EQ(verify(program, MemoryMap::standard(), relaxed).warnings, 0u);
}

TEST(Verifier, AssembleVerifyHookRejectsWithSourceLine) {
  const std::string_view src =
      "# comment\n"
      ".reserve 1\n"
      "LOAD [Switch:SwitchID], [Packet:0]\n"
      "STORE [Switch:SwitchID], [Packet:0]\n";
  AssembleOptions opts;
  opts.verify = true;
  const auto result = assemble(src, MemoryMap::standard(), opts);
  const auto* err = std::get_if<AssemblyError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->line, 4);  // the STORE, not end-of-file
  EXPECT_NE(err->message.find("verify:"), std::string::npos);
  EXPECT_NE(err->message.find("write-permission"), std::string::npos);
}

TEST(Verifier, DiagnosticsCarryAssemblerLines) {
  const std::string_view src =
      ".reserve 1\n"
      "PUSH [Switch:SwitchID]\n"
      "PUSH [Switch:SwitchID]\n";
  std::vector<int> lines;
  AssembleOptions aopts;
  aopts.outInstructionLines = &lines;
  const auto assembled = assemble(src, MemoryMap::standard(), aopts);
  ASSERT_TRUE(std::holds_alternative<Program>(assembled));
  ASSERT_EQ(lines, (std::vector<int>{2, 3}));

  VerifyOptions vopts;
  vopts.maxHops = 1;
  vopts.instructionLines = lines;
  const auto result =
      verify(std::get<Program>(assembled), MemoryMap::standard(), vopts);
  ASSERT_FALSE(result.ok());  // second PUSH overflows the 1-word reserve
  EXPECT_EQ(result.diagnostics[0].line, 3);
}

// ------------------------------------------- differential property test

TEST(VerifierDifferential, AcceptedProgramsNeverFaultOnTheWire) {
  // Soundness contract: zero errors against the standard map and
  // maxHops = 3 means three TCPU executions cannot raise any core::Fault.
  // Switches in the testbed expose exactly MemoryMap::standard() with open
  // scratch, so every accepted program must echo clean.
  Testbed tb;
  buildChain(tb, 3, host::LinkParams{1'000'000'000, sim::Time::us(1)});
  sim::Rng rng(0xd1ffe7u);

  VerifyOptions vopts;
  vopts.maxHops = 3;

  const int kCandidates = 1500;
  std::vector<Program> accepted;
  for (int i = 0; i < kCandidates; ++i) {
    auto program = randomCandidateProgram(rng);
    if (verify(program, MemoryMap::standard(), vopts).ok()) {
      accepted.push_back(std::move(program));
    }
  }
  // The generator must not degenerate into rejecting (or accepting)
  // everything, or the property loses its teeth.
  ASSERT_GE(accepted.size(), 100u);
  ASSERT_LT(accepted.size(), static_cast<std::size_t>(kCandidates));

  std::size_t echoed = 0;
  tb.host(0).onTppResult([&](const ExecutedTpp& t) {
    ++echoed;
    EXPECT_EQ(t.header.faultCode, Fault::None)
        << "verifier-accepted program faulted with code "
        << static_cast<int>(t.header.faultCode) << " (task "
        << t.header.taskId << ", echo " << echoed << ")";
    EXPECT_EQ(t.header.flags & kFlagFaulted, 0);
  });
  for (const auto& program : accepted) {
    tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
  }
  tb.sim().run();
  EXPECT_EQ(echoed, accepted.size());
}

}  // namespace
}  // namespace tpp::core
