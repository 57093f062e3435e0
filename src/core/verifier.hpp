// Static verifier for assembled TPPs (extended-paper §4 "Security and
// Resource Management": TPPs are simple enough to be statically checked at
// end-hosts before injection, so multi-tenant safety does not depend on
// catching runtime faults at hop 3).
//
// verify() checks a Program against a MemoryMap (and, optionally, the
// control-plane agent's SRAM grants): a per-instruction pass over operands
// and addresses, then the abstract walk of walk.hpp — a stack-pointer
// interval and a three-valued initialization state per packet-memory word,
// simulated for every hop up to a configurable hop count.
//
// Checks (individually toggleable via VerifyOptions::checks):
//   Budget          §3.3 instruction budget: warns past 5 instructions,
//                   errors when the TPP no longer fits the MTU.
//   StackGrowth     proves PUSH/POP cannot overflow or underflow packet
//                   memory within maxHops hops, and that hop-mode records
//                   ( .perhop ) match the words actually touched per hop.
//   WritePermission STORE/POP/CSTORE destinations must be writable per the
//                   MemoryMap; with grants installed, every scratch access
//                   must fall inside the task's grant windows. A CEXEC
//                   guard does not relax this — the predicate cannot be
//                   proven false at verification time.
//   AddressRange    every touched switch address must be mapped; absolute
//                   [Packet:N] operands must lie inside packet memory;
//                   every instruction must survive an encode/decode round
//                   trip (no BadInstruction in flight).
//   UseBeforeInit   warns when an instruction reads a packet-memory word
//                   that no path has written (wire zero-fill makes this a
//                   silent zero read, not a fault — hence a warning).
//
// Soundness contract (relied on by the differential property test): a
// program verify() accepts with zero errors executes for maxHops hops on a
// switch exposing exactly the given MemoryMap — with open scratch access,
// or the given grants — without raising any core::Fault. Warnings are
// heuristic and carry no such guarantee.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/agent.hpp"
#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"

namespace tpp::core {

enum class Severity : std::uint8_t { Warning, Error };

enum class Check : std::uint8_t {
  Budget = 0,
  StackGrowth,
  WritePermission,
  AddressRange,
  UseBeforeInit,
};

inline constexpr std::uint32_t checkBit(Check c) {
  return 1u << static_cast<std::uint32_t>(c);
}
inline constexpr std::uint32_t kAllChecks =
    checkBit(Check::Budget) | checkBit(Check::StackGrowth) |
    checkBit(Check::WritePermission) | checkBit(Check::AddressRange) |
    checkBit(Check::UseBeforeInit);

struct Diagnostic {
  Severity severity = Severity::Error;
  Check check = Check::AddressRange;
  // Index into Program::instructions, or -1 for program-level findings.
  int instructionIndex = -1;
  // Source line when the caller supplied VerifyOptions::instructionLines
  // (e.g. the assembler); 0 when unknown.
  int line = 0;
  std::string message;
};

struct VerifyOptions {
  // Number of TCPU-enabled hops the packet may traverse; stack growth and
  // hop-record bounds are proven for exactly this many executions.
  std::size_t maxHops = 8;
  // Whole-TPP wire budget (header + instructions + packet memory).
  std::size_t mtuBytes = 1500;
  // Paper §3.3 instruction budget; exceeding it is a warning.
  std::size_t budgetInstructions = 5;
  // Bitmask of checkBit(Check) values to run.
  std::uint32_t checks = kAllChecks;
  // When set and enforcing(), every scratch access of Program::taskId must
  // fall inside one of the task's grant windows.
  const SramAllocator* grants = nullptr;
  // Upgrades every warning to an error.
  bool werror = false;
  // Optional per-instruction source lines, parallel to
  // Program::instructions (from the assembler); copied into diagnostics.
  std::span<const int> instructionLines = {};
};

struct VerifyResult {
  std::vector<Diagnostic> diagnostics;
  std::size_t errors = 0;
  std::size_t warnings = 0;

  bool ok() const { return errors == 0; }
};

VerifyResult verify(const Program& program,
                    const MemoryMap& map = MemoryMap::standard(),
                    const VerifyOptions& opts = {});

// "file:line: error: [check] message" — `file` may be empty.
std::string formatDiagnostic(const Diagnostic& d, std::string_view file = {});

std::string_view checkName(Check c);
std::string_view severityName(Severity s);

// Fail-fast wrapper for programs constructed in code (the bundled apps):
// returns `program` unchanged if it verifies clean against the standard
// map, otherwise prints every diagnostic to stderr and aborts — a rejected
// program at construction beats a fault at hop 3.
Program verified(Program program, const VerifyOptions& opts = {});

}  // namespace tpp::core
