#include "src/core/isa.hpp"

#include <array>

namespace tpp::core {
namespace {

constexpr std::array<OpcodeInfo, 256> kIsa = [] {
  using O = Operands;
  using A = SwitchAccess;
  std::array<OpcodeInfo, 256> t{};
  const auto row = [&t](Opcode op, OpcodeInfo info) {
    t[static_cast<std::uint8_t>(op)] = info;
  };
  // clang-format off
  //                  name      operands        mode   reads  writes switch                sp
  row(Opcode::Nop,    {"NOP",    O::None,        false, false, false, A::None,            0});
  row(Opcode::Load,   {"LOAD",   O::AddrPmem,    true,  false, true,  A::Read,            0});
  row(Opcode::Store,  {"STORE",  O::AddrPmem,    true,  true,  false, A::Write,           0});
  row(Opcode::Push,   {"PUSH",   O::Addr,        false, false, false, A::Read,            4});
  row(Opcode::Pop,    {"POP",    O::Addr,        false, false, false, A::Write,          -4});
  row(Opcode::Cstore, {"CSTORE", O::AddrTwoPmem, false, true,  true,  A::ReadModifyWrite, 0});
  row(Opcode::Cexec,  {"CEXEC",  O::AddrTwoPmem, false, true,  false, A::Read,            0});
  row(Opcode::Add,    {"ADD",    O::AddrPmem,    true,  true,  true,  A::Read,            0});
  row(Opcode::Sub,    {"SUB",    O::AddrPmem,    true,  true,  true,  A::Read,            0});
  row(Opcode::Min,    {"MIN",    O::AddrPmem,    true,  true,  true,  A::Read,            0});
  row(Opcode::Max,    {"MAX",    O::AddrPmem,    true,  true,  true,  A::Read,            0});
  // clang-format on
  return t;
}();

}  // namespace

const OpcodeInfo& opcodeInfo(Opcode op) {
  return kIsa[static_cast<std::uint8_t>(op)];
}

std::uint32_t Instruction::encode() const {
  return (static_cast<std::uint32_t>(op) << 24) |
         (static_cast<std::uint32_t>(addr) << 8) |
         static_cast<std::uint32_t>(pmemOff);
}

std::optional<Instruction> Instruction::decode(std::uint32_t word) {
  const auto raw = static_cast<std::uint8_t>(word >> 24);
  if (kIsa[raw].name.empty()) return std::nullopt;
  Instruction i;
  i.op = static_cast<Opcode>(raw);
  i.addr = static_cast<std::uint16_t>(word >> 8);
  i.pmemOff = static_cast<std::uint8_t>(word);
  return i;
}

bool writesSwitchMemory(Opcode op) {
  const auto access = opcodeInfo(op).switchAccess;
  return access == SwitchAccess::Write ||
         access == SwitchAccess::ReadModifyWrite;
}

bool takesTwoPmemWords(Opcode op) {
  return opcodeInfo(op).operands == Operands::AddrTwoPmem;
}

std::string_view opcodeName(Opcode op) {
  const auto name = opcodeInfo(op).name;
  return name.empty() ? "INVALID" : name;
}

std::optional<Opcode> opcodeFromName(std::string_view name) {
  if (name.empty()) return std::nullopt;  // the unassigned rows' name
  for (std::size_t b = 0; b < kIsa.size(); ++b) {
    if (kIsa[b].name == name) return static_cast<Opcode>(b);
  }
  return std::nullopt;
}

}  // namespace tpp::core
