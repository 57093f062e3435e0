#include "src/core/assembler.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "src/core/memory_map.hpp"

namespace tpp::core {
namespace {

Program mustAssemble(std::string_view src) {
  auto result = assemble(src);
  if (auto* err = std::get_if<AssemblyError>(&result)) {
    ADD_FAILURE() << "line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<Program>(result);
}

TEST(Assembler, PaperMicroburstProgram) {
  // §2.1: PUSH [Queue:QueueSize]
  const auto p = mustAssemble("PUSH [Queue:QueueSize]\n");
  ASSERT_EQ(p.instructions.size(), 1u);
  EXPECT_EQ(p.instructions[0].op, Opcode::Push);
  EXPECT_EQ(p.instructions[0].addr, addr::QueueBytes);
  EXPECT_GT(p.pmemWords, 0);  // default reserve for pushes
}

TEST(Assembler, PaperRcpCollectProgram) {
  const auto p = mustAssemble(R"(
    # Phase 1: Collect (§2.2)
    PUSH [Switch:SwitchID]
    PUSH [Link:QueueSize]
    PUSH [Link:RX-Utilization]
    PUSH [Link:RCP-RateRegister]
  )");
  ASSERT_EQ(p.instructions.size(), 4u);
  EXPECT_EQ(p.instructions[3].addr, addr::RcpRateRegister);
}

TEST(Assembler, PaperRcpUpdateProgram) {
  const auto p = mustAssemble(R"(
    .define BottleneckSwitchID 0x2
    CEXEC [Switch:SwitchID], 0xFFFFFFFF, $BottleneckSwitchID
    STORE [Link:RCP-RateRegister], [Packet:2]
  )");
  ASSERT_EQ(p.instructions.size(), 2u);
  EXPECT_EQ(p.instructions[0].op, Opcode::Cexec);
  EXPECT_EQ(p.instructions[0].pmemOff, 0);
  EXPECT_EQ(p.initialPmem[0], 0xffffffffu);
  EXPECT_EQ(p.initialPmem[1], 0x2u);
  EXPECT_EQ(p.instructions[1].op, Opcode::Store);
  EXPECT_EQ(p.instructions[1].pmemOff, 2);
}

TEST(Assembler, PaperNdbProgram) {
  const auto p = mustAssemble(R"(
    PUSH [Switch:ID]
    PUSH [PacketMetadata:MatchedEntryID]
    PUSH [PacketMetadata:InputPort]
  )");
  ASSERT_EQ(p.instructions.size(), 3u);
  EXPECT_EQ(p.instructions[0].addr, addr::SwitchId);
  EXPECT_EQ(p.instructions[1].addr, addr::MatchedEntryId);
  EXPECT_EQ(p.instructions[2].addr, addr::InputPort);
}

TEST(Assembler, HopModeAndDirectives) {
  const auto p = mustAssemble(R"(
    .mode hop
    .perhop 4
    .reserve 20
    .task 9
    LOAD [Switch:SwitchID], [Packet:hop[1]]
  )");
  EXPECT_EQ(p.mode, AddressingMode::Hop);
  EXPECT_EQ(p.perHopWords, 4);
  EXPECT_EQ(p.pmemWords, 20);
  EXPECT_EQ(p.taskId, 9);
  EXPECT_EQ(p.instructions[0].pmemOff, 1);
}

TEST(Assembler, LiteralAddressOperand) {
  const auto p = mustAssemble(".reserve 1\nLOAD [0xB000], [Packet:0]\n");
  EXPECT_EQ(p.instructions[0].addr, 0xb000);
}

TEST(Assembler, StoreImmediateStagesPacketMemory) {
  const auto p = mustAssemble("STORE [Link:RCP-RateRegister], 1234\n");
  EXPECT_EQ(p.initialPmem[p.instructions[0].pmemOff], 1234u);
}

TEST(Assembler, CstoreWithImmediates) {
  const auto p = mustAssemble("CSTORE [Sram:Word0], 0, 7\n");
  EXPECT_EQ(p.instructions[0].op, Opcode::Cstore);
  EXPECT_EQ(p.initialPmem[0], 0u);
  EXPECT_EQ(p.initialPmem[1], 7u);
}

TEST(Assembler, CstoreWithAdjacentPacketOperands) {
  const auto p = mustAssemble(
      ".reserve 4\nCSTORE [Sram:Word0], [Packet:1], [Packet:2]\n");
  EXPECT_EQ(p.instructions[0].pmemOff, 1);
}

TEST(Assembler, ArithmeticMnemonics) {
  const auto p = mustAssemble(R"(
    .reserve 2
    ADD [Link:TxBytes], [Packet:0]
    SUB [Link:TxBytes], [Packet:0]
    MIN [Queue:QueueSize], [Packet:1]
    MAX [Queue:QueueSize], [Packet:1]
    NOP
  )");
  ASSERT_EQ(p.instructions.size(), 5u);
  EXPECT_EQ(p.instructions[0].op, Opcode::Add);
  EXPECT_EQ(p.instructions[4].op, Opcode::Nop);
}

TEST(Assembler, CommentsAndBlankLines) {
  const auto p = mustAssemble(R"(
    # full-line comment
    ; alternative comment

    PUSH [Queue:QueueSize]   # trailing comment
    PUSH [Switch:SwitchID]   ; trailing comment
  )");
  EXPECT_EQ(p.instructions.size(), 2u);
}

TEST(Assembler, PopMnemonic) {
  const auto p = mustAssemble(".reserve 2\nPOP [Sram:Word0]\n");
  EXPECT_EQ(p.instructions[0].op, Opcode::Pop);
}

struct ErrorCase {
  const char* name;
  const char* source;
};

// Names the case; the default printer would dump its pointers' bytes.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class AssemblerErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(AssemblerErrors, Rejects) {
  auto result = assemble(GetParam().source);
  EXPECT_TRUE(std::holds_alternative<AssemblyError>(result))
      << GetParam().source;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AssemblerErrors,
    ::testing::Values(
        ErrorCase{"UnknownMnemonic", "JUMP [Queue:QueueSize]\n"},
        ErrorCase{"UnknownStatistic", "PUSH [Queue:Nope]\n"},
        ErrorCase{"UndefinedConstant", "CEXEC [Switch:ID], 0xff, $missing\n"},
        ErrorCase{"PushTooManyOperands", "PUSH [Switch:ID], [Packet:0]\n"},
        ErrorCase{"LoadTooFewOperands", "LOAD [Switch:ID]\n"},
        ErrorCase{"LoadImmediateTarget", "LOAD [Switch:ID], 5\n"},
        ErrorCase{"CexecTwoOperands", "CEXEC [Switch:ID], 0xff\n"},
        ErrorCase{"CstoreNonAdjacent",
                  ".reserve 4\nCSTORE [Sram:Word0], [Packet:0], [Packet:3]\n"},
        ErrorCase{"BadDirective", ".frobnicate 3\n"},
        ErrorCase{"BadMode", ".mode sideways\n"},
        ErrorCase{"UnterminatedBracket", "PUSH [Queue:QueueSize\n"},
        ErrorCase{"AddressOutOfRange", ".reserve 1\nLOAD [0x10000], [Packet:0]\n"},
        ErrorCase{"PacketIndexTooBig", "LOAD [Switch:ID], [Packet:300]\n"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Assembler, ErrorCarriesLineNumber) {
  auto result = assemble("PUSH [Queue:QueueSize]\nBOGUS\n");
  const auto* err = std::get_if<AssemblyError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->line, 2);
}

TEST(Assembler, EncodingLimitErrorPointsAtLastContentLine) {
  // 256 instructions overflow the 8-bit instrWords field. The error must
  // name the last line that contributed, not one past end-of-file.
  std::string src = "# too many instructions\n";
  for (int i = 0; i < 256; ++i) src += "NOP\n";
  auto result = assemble(src);
  const auto* err = std::get_if<AssemblyError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->message, "program exceeds encoding limits");
  EXPECT_EQ(err->line, 257);  // the 256th NOP
}

TEST(Assembler, InitOverflowErrorPointsAtTheInitDirective) {
  // Index 255 parses, but initializing it needs a 256-word packet memory.
  auto result = assemble(
      "NOP\n"
      ".init 255 1\n"
      "NOP\n");
  const auto* err = std::get_if<AssemblyError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->message, "packet memory exceeds 255 words");
  EXPECT_EQ(err->line, 2);  // the .init, not the last line
}

TEST(Disassembler, RoundTripsThroughAssembler) {
  const auto original = mustAssemble(R"(
    .reserve 8
    PUSH [Queue:QueueSize]
    CEXEC [Switch:SwitchID], 0xFFFFFFFF, 0x2
    STORE [Link:RCP-RateRegister], [Packet:2]
  )");
  const auto text = disassemble(original);
  const auto again = mustAssemble(text);
  EXPECT_EQ(again, original) << text;
}

TEST(Disassembler, RoundTripsHopModePrograms) {
  const auto original = mustAssemble(R"(
    .mode hop
    .perhop 2
    .task 5
    .reserve 16
    LOAD [Switch:SwitchID], [Packet:hop[0]]
    LOAD [Queue:QueueSize], [Packet:hop[1]]
  )");
  const auto again = mustAssemble(disassemble(original));
  EXPECT_EQ(again, original);
}

TEST(Disassembler, NamesKnownAddresses) {
  const auto p = mustAssemble("PUSH [Queue:QueueSize]\n");
  EXPECT_NE(disassemble(p).find("[Queue:QueueSize]"), std::string::npos);
}

}  // namespace
}  // namespace tpp::core
