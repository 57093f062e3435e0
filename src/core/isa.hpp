// The TPP instruction set (paper Table 1, plus the "simple arithmetic" the
// paper's §1 mentions) and its 4-byte wire encoding (§3.3: "we were able to
// encode an instruction and its operands in a 4-byte integer").
//
// Encoding, big-endian:
//
//   byte 0  opcode
//   byte 1  addr high  \  16-bit virtual address into the switch's unified
//   byte 2  addr low   /  statistics/SRAM address space (MemoryMap)
//   byte 3  pmemOff       packet-memory WORD index operand
//
// Multi-operand instructions take their extra operands from *initialized
// packet memory*: CSTORE reads cond at pmem[off] and src at pmem[off+1]
// (and writes the old switch value back to pmem[off], so end-hosts can
// detect whether the compare-and-swap took effect); CEXEC reads mask at
// pmem[off] and value at pmem[off+1]. This is how the assembler fits
// `CEXEC reg, mask, value` into four bytes — the immediates are compiled
// into the packet-memory image by the end-host.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tpp::core {

// One packet-memory word; also the unit of switch-memory access.
inline constexpr std::size_t kWordSize = 4;
inline constexpr std::size_t kInstructionSize = 4;

enum class Opcode : std::uint8_t {
  Nop = 0x00,
  Load = 0x01,    // pmem[off]        = switch[addr]
  Store = 0x02,   // switch[addr]     = pmem[off]
  Push = 0x03,    // pmem[sp/4], sp+=4; value = switch[addr]
  Pop = 0x04,     // sp-=4; switch[addr] = pmem[sp/4]
  Cstore = 0x05,  // atomically: old=switch[addr]; if old==pmem[off]
                  //   switch[addr]=pmem[off+1]; pmem[off]=old
  Cexec = 0x06,   // if (switch[addr] & pmem[off]) != pmem[off+1]: halt
  Add = 0x07,     // pmem[off] = pmem[off] + switch[addr]
  Sub = 0x08,     // pmem[off] = pmem[off] - switch[addr]
  Min = 0x09,     // pmem[off] = min(pmem[off], switch[addr])
  Max = 0x0a,     // pmem[off] = max(pmem[off], switch[addr])
};

struct Instruction {
  Opcode op = Opcode::Nop;
  std::uint16_t addr = 0;   // switch virtual address (unused by Nop)
  std::uint8_t pmemOff = 0; // packet-memory word index (unused by Push/Pop)

  std::uint32_t encode() const;
  static std::optional<Instruction> decode(std::uint32_t word);

  bool operator==(const Instruction&) const = default;
};

// Paper Table 1 as data: every per-opcode fact the assembler, verifier and
// interference analyzer need, in one row per opcode byte.
enum class Operands : std::uint8_t {
  None,         // NOP
  Addr,         // PUSH/POP [addr]
  AddrPmem,     // LOAD/STORE/arith [addr], [Packet:off]
  AddrTwoPmem,  // CSTORE/CEXEC [addr], [Packet:off], [Packet:off+1]
};

enum class SwitchAccess : std::uint8_t { None, Read, Write, ReadModifyWrite };

struct OpcodeInfo {
  std::string_view name;  // empty for bytes no opcode is assigned to
  Operands operands = Operands::None;
  // The packet-memory operand resolves through the addressing mode (hop
  // base + offset in hop mode); CSTORE/CEXEC pairs are always absolute.
  bool modeAddressed = false;
  bool readsPacketOperand = false;   // all of its [Packet:N] words
  bool writesPacketOperand = false;  // its first [Packet:N] word
  SwitchAccess switchAccess = SwitchAccess::None;
  std::int8_t stackDelta = 0;  // bytes the stack pointer moves
};

// The row for `op`'s byte; unassigned bytes get an empty row.
const OpcodeInfo& opcodeInfo(Opcode op);

// True for opcodes that write to switch memory (used by the security layer
// to enforce read-only TPP policies at untrusted edges).
bool writesSwitchMemory(Opcode op);
// True for opcodes whose extra operands occupy pmem[off] and pmem[off+1].
bool takesTwoPmemWords(Opcode op);

// "INVALID" for unassigned bytes.
std::string_view opcodeName(Opcode op);
std::optional<Opcode> opcodeFromName(std::string_view name);

}  // namespace tpp::core
