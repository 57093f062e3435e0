// The TCPU: executes a TPP's instructions against a switch's unified
// address space, mutating the packet in place (paper §3.2, §3.3).
//
// The switch pipeline hands the TCPU two things: a TppView over the packet
// it is processing, and an AddressSpace that resolves 16-bit virtual
// addresses to the ASIC's statistics, per-packet metadata registers, and
// scratch SRAM, honoring the control-plane agent's task grants.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/header.hpp"
#include "src/core/isa.hpp"
#include "src/sim/simulator.hpp"
#include "src/tcpu/cycle_model.hpp"

namespace tpp::tcpu {

// Switch-memory access interface. The fault code distinguishes "address not
// mapped", "statistic is read-only", and "outside this task's SRAM grant" —
// end-hosts see the code in the returned TPP header.
class AddressSpace {
 public:
  virtual ~AddressSpace() = default;

  struct ReadResult {
    std::uint32_t value = 0;
    core::Fault fault = core::Fault::None;
    static ReadResult ok(std::uint32_t v) { return {v, core::Fault::None}; }
    static ReadResult fail(core::Fault f) { return {0, f}; }
  };
  virtual ReadResult read(std::uint16_t address, std::uint16_t taskId) = 0;

  // Returns Fault::None on success.
  virtual core::Fault write(std::uint16_t address, std::uint32_t value,
                            std::uint16_t taskId) = 0;
};

struct ExecReport {
  std::size_t executed = 0;  // instructions that ran to completion
  std::size_t skipped = 0;   // instructions after a failed CEXEC predicate
  core::Fault fault = core::Fault::None;
  bool cexecSkipped = false;
  std::uint64_t cycles = 0;  // modelled TCPU cycles for this packet

  bool ok() const { return fault == core::Fault::None; }
};

class Tcpu {
 public:
  explicit Tcpu(CycleModel model = CycleModel{}) : model_(model) {}

  // Runs every instruction (or stops at the first fault / failed CEXEC),
  // updating packet memory, the stack pointer, fault flags, and the hop
  // counter in place. The hop counter advances even on fault or skip: it
  // counts TCPU-enabled switches traversed, which path-tracing tasks rely
  // on (§2.3).
  ExecReport execute(core::TppView& view, AddressSpace& memory);

  // Runs a resident hook program (DESIGN.md §14): already-decoded
  // instructions against a caller-owned packet-memory image, with stack-
  // mode addressing. No wire bytes exist, so nothing touches the decode
  // cache (per-packet address patching would otherwise thrash it), no
  // header flags or hop counter advance, and faults are only reported in
  // the ExecReport. It runs the same interpreter loop as execute(), fed by
  // the resident packet-memory policy instead of the wire one; a
  // differential test in test_hook.cpp compares the two policies.
  ExecReport executeResident(std::span<const core::Instruction> instructions,
                             std::span<std::uint32_t> pmem,
                             std::uint16_t taskId, AddressSpace& memory,
                             std::uint16_t initialSp = 0);

  // Arms per-instruction retire tracing (one record per retired
  // instruction — the most verbose trace kind, but the one that shows
  // exactly what a probe did at each hop). `clock` timestamps records;
  // disarm with (nullptr, 0, nullptr).
  void setTracer(sim::Tracer* tracer, std::uint32_t actor,
                 const sim::Simulator* clock) {
    tracer_ = tracer;
    actor_ = actor;
    clock_ = clock;
  }

  const CycleModel& cycleModel() const { return model_; }

  // Lifetime counters (per-switch instrumentation).
  std::uint64_t tppsProcessed() const { return tpps_; }
  std::uint64_t instructionsExecuted() const { return instructions_; }
  std::uint64_t faults() const { return faults_; }
  std::uint64_t decodeCacheHits() const { return decodeHits_; }
  std::uint64_t decodeCacheMisses() const { return decodeMisses_; }

 private:
  // The one interpreter loop (paper Fig 5) behind execute() and
  // executeResident(). Words from decoded.size() up to `n` failed to decode
  // and fault when reached. `Pmem` is the packet-memory policy (WirePmem or
  // ResidentPmem in tcpu.cpp), fixed at compile time.
  template <class Pmem>
  ExecReport run(std::span<const core::Instruction> decoded, std::size_t n,
                 std::uint16_t taskId, Pmem&& pmem, AddressSpace& memory);

  // Decoded-program cache. A TPP's instruction words are immutable in
  // flight (only its header and packet memory mutate per hop), and a
  // monitoring task sends the same program every probe — so each switch
  // decodes a program once and replays the decoded form on later packets.
  // Direct-mapped by a hash of the raw words; a hit is verified by full
  // word comparison, so collisions cost a re-decode, never wrong code.
  struct CachedProgram {
    std::vector<std::uint32_t> words;
    std::vector<core::Instruction> decoded;  // valid prefix of the program
  };
  static constexpr std::size_t kDecodeCacheSlots = 64;  // power of two
  const CachedProgram& decodeProgram(const core::TppView& view,
                                     std::size_t instrWords);

  CycleModel model_;
  sim::Tracer* tracer_ = nullptr;
  std::uint32_t actor_ = 0;
  const sim::Simulator* clock_ = nullptr;
  std::vector<CachedProgram> decodeCache_;
  std::vector<std::uint32_t> fetchScratch_;
  std::uint64_t tpps_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t decodeHits_ = 0;
  std::uint64_t decodeMisses_ = 0;
};

}  // namespace tpp::tcpu
