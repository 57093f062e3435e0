#include "src/core/isa.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tpp::core {
namespace {

constexpr Opcode kAllOpcodes[] = {
    Opcode::Nop, Opcode::Load,   Opcode::Store, Opcode::Push,
    Opcode::Pop, Opcode::Cstore, Opcode::Cexec, Opcode::Add,
    Opcode::Sub, Opcode::Min,    Opcode::Max};

// The opcodes whose ISA-table row satisfies `pred`, in opcode order.
template <class Pred>
std::vector<Opcode> opcodesWhere(Pred pred) {
  std::vector<Opcode> out;
  for (const Opcode op : kAllOpcodes) {
    if (pred(opcodeInfo(op))) out.push_back(op);
  }
  return out;
}

using Ops = std::vector<Opcode>;

TEST(Isa, EncodeLayout) {
  const Instruction i{Opcode::Load, 0xb000, 0x07};
  EXPECT_EQ(i.encode(), 0x01b00007u);
}

TEST(Isa, DecodeLayout) {
  const auto i = Instruction::decode(0x02a00105u);
  ASSERT_TRUE(i);
  EXPECT_EQ(i->op, Opcode::Store);
  EXPECT_EQ(i->addr, 0xa001);
  EXPECT_EQ(i->pmemOff, 0x05);
}

TEST(Isa, DecodeRejectsUnknownOpcode) {
  EXPECT_FALSE(Instruction::decode(0xff000000u));
  EXPECT_FALSE(Instruction::decode(0x0b000000u));  // one past Max
}

TEST(Isa, FourByteEncoding) {
  // §3.3: "we were able to encode an instruction and its operands in a
  // 4-byte integer."
  static_assert(sizeof(Instruction{}.encode()) == 4);
  static_assert(kInstructionSize == 4);
}

TEST(Isa, WritesSwitchMemoryClassification) {
  EXPECT_TRUE(writesSwitchMemory(Opcode::Store));
  EXPECT_TRUE(writesSwitchMemory(Opcode::Pop));
  EXPECT_TRUE(writesSwitchMemory(Opcode::Cstore));
  EXPECT_FALSE(writesSwitchMemory(Opcode::Load));
  EXPECT_FALSE(writesSwitchMemory(Opcode::Push));
  EXPECT_FALSE(writesSwitchMemory(Opcode::Cexec));
  EXPECT_FALSE(writesSwitchMemory(Opcode::Add));
  EXPECT_FALSE(writesSwitchMemory(Opcode::Nop));

  const auto access = [](SwitchAccess a) {
    return opcodesWhere(
        [a](const OpcodeInfo& info) { return info.switchAccess == a; });
  };
  EXPECT_EQ(access(SwitchAccess::None), (Ops{Opcode::Nop}));
  EXPECT_EQ(access(SwitchAccess::Read),
            (Ops{Opcode::Load, Opcode::Push, Opcode::Cexec, Opcode::Add,
                 Opcode::Sub, Opcode::Min, Opcode::Max}));
  EXPECT_EQ(access(SwitchAccess::Write), (Ops{Opcode::Store, Opcode::Pop}));
  EXPECT_EQ(access(SwitchAccess::ReadModifyWrite), (Ops{Opcode::Cstore}));
  for (const Opcode op : kAllOpcodes) {
    const auto a = opcodeInfo(op).switchAccess;
    EXPECT_EQ(writesSwitchMemory(op), a == SwitchAccess::Write ||
                                          a == SwitchAccess::ReadModifyWrite)
        << opcodeName(op);
  }
}

TEST(Isa, TwoWordOperandClassification) {
  EXPECT_TRUE(takesTwoPmemWords(Opcode::Cstore));
  EXPECT_TRUE(takesTwoPmemWords(Opcode::Cexec));
  EXPECT_FALSE(takesTwoPmemWords(Opcode::Load));
  EXPECT_FALSE(takesTwoPmemWords(Opcode::Push));

  const auto shape = [](Operands o) {
    return opcodesWhere([o](const OpcodeInfo& i) { return i.operands == o; });
  };
  EXPECT_EQ(shape(Operands::None), (Ops{Opcode::Nop}));
  EXPECT_EQ(shape(Operands::Addr), (Ops{Opcode::Push, Opcode::Pop}));
  EXPECT_EQ(shape(Operands::AddrPmem),
            (Ops{Opcode::Load, Opcode::Store, Opcode::Add, Opcode::Sub,
                 Opcode::Min, Opcode::Max}));
  EXPECT_EQ(shape(Operands::AddrTwoPmem), (Ops{Opcode::Cstore, Opcode::Cexec}));
  for (const Opcode op : kAllOpcodes) {
    EXPECT_EQ(takesTwoPmemWords(op),
              opcodeInfo(op).operands == Operands::AddrTwoPmem)
        << opcodeName(op);
  }

  EXPECT_EQ(opcodesWhere([](const OpcodeInfo& i) { return i.modeAddressed; }),
            (Ops{Opcode::Load, Opcode::Store, Opcode::Add, Opcode::Sub,
                 Opcode::Min, Opcode::Max}));
  EXPECT_EQ(
      opcodesWhere([](const OpcodeInfo& i) { return i.readsPacketOperand; }),
      (Ops{Opcode::Store, Opcode::Cstore, Opcode::Cexec, Opcode::Add,
           Opcode::Sub, Opcode::Min, Opcode::Max}));
  EXPECT_EQ(
      opcodesWhere([](const OpcodeInfo& i) { return i.writesPacketOperand; }),
      (Ops{Opcode::Load, Opcode::Cstore, Opcode::Add, Opcode::Sub,
           Opcode::Min, Opcode::Max}));
  EXPECT_EQ(opcodesWhere([](const OpcodeInfo& i) { return i.stackDelta > 0; }),
            (Ops{Opcode::Push}));
  EXPECT_EQ(opcodesWhere([](const OpcodeInfo& i) { return i.stackDelta < 0; }),
            (Ops{Opcode::Pop}));
  EXPECT_EQ(opcodeInfo(Opcode::Push).stackDelta, 4);
  EXPECT_EQ(opcodeInfo(Opcode::Pop).stackDelta, -4);
}

TEST(Isa, DecodeAcceptsExactlyTheTableBytes) {
  // Bytes 0x00..0x0a are the eleven opcodes; every other byte is unassigned
  // and must fail to decode (the TCPU faults BadInstruction on it).
  for (unsigned b = 0; b < 256; ++b) {
    const auto op = static_cast<Opcode>(b);
    const bool assigned = b <= 0x0a;
    EXPECT_EQ(Instruction::decode(b << 24).has_value(), assigned) << b;
    EXPECT_EQ(!opcodeInfo(op).name.empty(), assigned) << b;
    if (assigned) {
      EXPECT_EQ(opcodeFromName(opcodeName(op)), op) << b;
    } else {
      EXPECT_EQ(opcodeName(op), "INVALID") << b;
    }
  }
  EXPECT_FALSE(opcodeFromName("").has_value());
  EXPECT_FALSE(opcodeFromName("INVALID").has_value());
}

TEST(Isa, NameRoundTrip) {
  EXPECT_EQ(opcodeName(Opcode::Cstore), "CSTORE");
  EXPECT_EQ(opcodeFromName("CSTORE"), Opcode::Cstore);
  EXPECT_EQ(opcodeFromName("PUSH"), Opcode::Push);
  EXPECT_FALSE(opcodeFromName("JUMP").has_value());  // no control flow (§3.2)
  EXPECT_FALSE(opcodeFromName("push").has_value());  // case-sensitive
}

class IsaRoundTrip : public ::testing::TestWithParam<Opcode> {};

TEST_P(IsaRoundTrip, EncodeDecodeIdentity) {
  for (const std::uint16_t addr : {0x0000, 0x1000, 0xa001, 0xb000, 0xffff}) {
    for (const std::uint8_t off : {0, 1, 127, 255}) {
      const Instruction in{GetParam(), addr, off};
      const auto out = Instruction::decode(in.encode());
      ASSERT_TRUE(out);
      EXPECT_EQ(*out, in);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, IsaRoundTrip,
    ::testing::ValuesIn(kAllOpcodes),
    [](const auto& info) {
      return std::string(opcodeName(info.param));
    });

}  // namespace
}  // namespace tpp::core
