// Deployment-level interference analysis (extended-paper §4: many end-hosts
// share switch SRAM, coordinated only by CSTORE and epoch checks).
//
// The per-program verifier (verifier.hpp) proves a single TPP fault-free;
// it says nothing about what happens when six tasks' programs interleave on
// the same scratch words. This layer closes that gap in two steps:
//
//   1. summarize() compresses a Program into an *effect summary*: for every
//      switch-visible address it touches, the access kind (read, plain
//      write, or CSTORE read-modify-write) together with the CEXEC guard
//      conditions under which the access fires. Guard immediates are
//      resolved against the initialized packet-memory image. The verifier's
//      own abstract walk (walk.hpp, mayWriteSet) proves the operand words
//      are never overwritten in flight; otherwise the guard is recorded as
//      unknown, which is conservative. The access kinds come from the ISA
//      table's switch-memory column (isa.hpp).
//
//   2. analyzeInterference() takes the summaries of every concurrently
//      deployed task and builds a pairwise conflict matrix over the
//      writable (scratch) addresses. Cross-task overlaps are classified:
//
//        write-write    two tasks plain-write the same word — last writer
//                       wins, silently (error)
//        lost-update    one task plain-writes a word another task CSTOREs;
//                       the plain write destroys the compare-and-swap
//                       invariant (error). The classic shape — read, then
//                       plain write-back — is called out explicitly.
//        read-write     one task plain-writes a word another only reads;
//                       the reader sees arbitrary interleavings (warning)
//        shared-rmw     both sides use CSTORE — the coordination the paper
//                       intends; recorded in the matrix, not flagged
//        guard-disjoint both accesses are CEXEC-pinned to provably
//                       different [Switch:SwitchID] values, so they can
//                       never fire on the same physical word; recorded in
//                       the matrix, not flagged
//
//      Lock discipline (InterferenceOptions::locks declares lock words and
//      the regions they protect, e.g. Link:RCP-Lock → Link:RCP-RateRegister):
//
//        lock-plain-write     mutating a lock word with STORE/POP instead
//                             of CSTORE (error)
//        lock-no-epoch-check  a program CSTOREs a lock word but never reads
//                             Switch:BootEpoch — a reboot-wiped lock would
//                             be stolen or deadlock undetectably (error)
//        lock-no-acquire      plain-writing a lock-protected word without
//                             any CSTORE on the owning lock — mutating the
//                             region without holding the (id, epoch) proof
//                             (error)
//
// The dynamic counterpart — asic::SramRaceOracle — logs actual per-word
// SRAM accesses at run time and cross-checks them against these verdicts;
// a "static says safe" deployment must produce zero observed conflicts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/core/verifier.hpp"

namespace tpp::core {

enum class EffectKind : std::uint8_t { Read, Write, Rmw };

std::string_view effectKindName(EffectKind k);

// One CEXEC predicate guarding an effect: switch[addr] & mask == value.
// `known` is true only when both immediate words provably hold their
// initial packet-memory values at every execution.
struct EffectGuard {
  std::uint16_t addr = 0;
  bool known = false;
  std::uint32_t mask = 0;
  std::uint32_t value = 0;
};

struct Effect {
  std::uint16_t address = 0;
  EffectKind kind = EffectKind::Read;
  int instructionIndex = -1;
  // Which of the task's programs this effect came from (summaries span all
  // the programs a logical task injects).
  std::size_t programIndex = 0;
  std::vector<EffectGuard> guards;
  // CSTORE protocol operands from the initial packet-memory image (the
  // first-execution comparand and store value). `condKnown`/`srcKnown` are
  // false when the word lies past the initialized image.
  bool condKnown = false;
  bool srcKnown = false;
  std::uint32_t cond = 0;
  std::uint32_t src = 0;
};

// Everything a logical task can do to switch memory, across all the
// programs it injects.
struct EffectSummary {
  std::uint16_t taskId = 0;
  std::string name;
  std::vector<Effect> effects;
  std::size_t programCount = 0;
  // Per program: does it read Switch:BootEpoch (the reboot/epoch proof)?
  std::vector<bool> programReadsEpoch;
};

// Appends `program`'s effects to `summary` (bumping programCount). The
// first summarized program also sets the summary's taskId.
void summarizeProgram(const Program& program, EffectSummary& summary,
                      std::size_t maxHops = 8);
EffectSummary summarize(const Program& program, std::string name = {},
                        std::size_t maxHops = 8);

// A CSTORE-based lock word and the scratch region it protects.
struct LockSpec {
  std::uint16_t lockAddress = 0;
  std::vector<std::uint16_t> protectedAddresses;
  std::string name;
};

struct InterferenceOptions {
  std::vector<LockSpec> locks;
};

enum class ConflictKind : std::uint8_t {
  WriteWrite,
  LostUpdate,
  ReadWrite,
  SharedRmw,       // benign: both sides coordinate through CSTORE
  GuardDisjoint,   // benign: CEXEC-pinned to different switches
  LockPlainWrite,
  LockNoEpochCheck,
  LockNoAcquire,
};

std::string_view conflictKindName(ConflictKind k);

struct Conflict {
  ConflictKind kind = ConflictKind::WriteWrite;
  Severity severity = Severity::Error;
  std::uint16_t address = 0;
  // Indices into the analyzed summaries span. Per-task lock findings set
  // taskB == taskA.
  std::size_t taskA = 0;
  std::size_t taskB = 0;
  std::string message;
};

struct InterferenceReport {
  // Flagged findings (errors + warnings), in task-pair order.
  std::vector<Conflict> findings;
  // Proven-safe overlaps — the rest of the conflict matrix. A deployment
  // with shared words and an empty findings list is certified by these.
  std::vector<Conflict> benign;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  // Distinct writable addresses touched by more than one task.
  std::size_t sharedWords = 0;

  bool ok() const { return errors == 0; }
};

InterferenceReport analyzeInterference(std::span<const EffectSummary> tasks,
                                       const InterferenceOptions& opts = {});

// "error: [write-write] tasks 'a' (task 1) and 'b' (task 2) ...". The
// message is fully resolved (task names, address mnemonics) at analysis
// time, so this is a pure prefix-and-join.
std::string formatConflict(const Conflict& c);

}  // namespace tpp::core
