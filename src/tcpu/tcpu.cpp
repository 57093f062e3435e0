#include "src/tcpu/tcpu.hpp"

#include <algorithm>
#include <optional>

namespace tpp::tcpu {

using core::AddressingMode;
using core::Fault;
using core::Instruction;
using core::kWordSize;
using core::Opcode;
using core::TppView;

namespace {

// Packet memory of a wire TPP. The words, the stack pointer and the fault
// byte all live in the packet. Hop mode places mode-addressed operands at
// hopNumber * perHopWords + offset (§3.2.2) and reports any overrun as
// HopOverflow; the mode and the hop base are read once per packet.
class WirePmem {
 public:
  explicit WirePmem(TppView& view)
      : view_(view),
        hopMode_(view.mode() == AddressingMode::Hop),
        hopBase_(hopMode_ ? static_cast<std::size_t>(view.hopNumber()) *
                                view.perHopWords()
                          : 0) {}

  std::size_t index(std::uint8_t pmemOff) const { return hopBase_ + pmemOff; }
  std::optional<std::uint32_t> get(std::size_t i) const {
    return view_.pmemWord(i);
  }
  bool set(std::size_t i, std::uint32_t v) { return view_.setPmemWord(i, v); }
  Fault overrun() const {
    return hopMode_ ? Fault::HopOverflow : Fault::PmemOutOfBounds;
  }
  std::uint16_t sp() const { return view_.stackPointer(); }
  void setSp(std::uint16_t sp) { view_.setStackPointer(sp); }
  void fault(Fault f) { view_.setFault(f); }
  void cexecSkipped() { view_.setFlag(core::kFlagCexecSkipped); }

 private:
  TppView& view_;
  bool hopMode_;
  std::size_t hopBase_;
};

// Packet memory of a resident hook: a caller-owned image and a local stack
// pointer, stack-mode addressing only. There is no header, so faults and a
// failed CEXEC are reported only in the ExecReport.
class ResidentPmem {
 public:
  ResidentPmem(std::span<std::uint32_t> words, std::uint16_t sp)
      : words_(words), sp_(sp) {}

  std::size_t index(std::uint8_t pmemOff) const { return pmemOff; }
  std::optional<std::uint32_t> get(std::size_t i) const {
    if (i >= words_.size()) return std::nullopt;
    return words_[i];
  }
  bool set(std::size_t i, std::uint32_t v) {
    if (i >= words_.size()) return false;
    words_[i] = v;
    return true;
  }
  Fault overrun() const { return Fault::PmemOutOfBounds; }
  std::uint16_t sp() const { return sp_; }
  void setSp(std::uint16_t sp) { sp_ = sp; }
  void fault(Fault) {}
  void cexecSkipped() {}

 private:
  std::span<std::uint32_t> words_;
  std::uint16_t sp_;
};

}  // namespace

const Tcpu::CachedProgram& Tcpu::decodeProgram(const TppView& view,
                                               std::size_t instrWords) {
  fetchScratch_.resize(instrWords);
  for (std::size_t i = 0; i < instrWords; ++i) {
    fetchScratch_[i] = view.instructionWord(i);
  }
  // FNV-1a over the instruction words picks the direct-mapped slot.
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint32_t w : fetchScratch_) {
    h = (h ^ w) * 1099511628211ULL;
  }
  if (decodeCache_.empty()) decodeCache_.resize(kDecodeCacheSlots);
  auto& entry = decodeCache_[h & (kDecodeCacheSlots - 1)];
  if (entry.words == fetchScratch_) {
    ++decodeHits_;
    return entry;
  }
  ++decodeMisses_;
  entry.words = fetchScratch_;
  entry.decoded.clear();
  for (const std::uint32_t w : entry.words) {
    const auto ins = Instruction::decode(w);
    if (!ins) break;
    entry.decoded.push_back(*ins);
  }
  return entry;
}

template <class Pmem>
ExecReport Tcpu::run(std::span<const Instruction> decoded, std::size_t n,
                     std::uint16_t taskId, Pmem&& pmem, AddressSpace& memory) {
  ExecReport report;
  ++tpps_;

  // The first fault is the root cause: an opcode that reads both packet
  // and switch memory may fault twice, and the header keeps the first.
  auto fault = [&](Fault f) {
    if (report.fault != Fault::None) return;
    pmem.fault(f);
    report.fault = f;
    ++faults_;
  };
  // Reads a pmem word, faulting on overrun.
  auto pmemAt = [&](std::size_t idx) -> std::optional<std::uint32_t> {
    const auto v = pmem.get(idx);
    if (!v) fault(pmem.overrun());
    return v;
  };
  auto pmemSet = [&](std::size_t idx, std::uint32_t v) -> bool {
    if (!pmem.set(idx, v)) {
      fault(pmem.overrun());
      return false;
    }
    return true;
  };
  auto readSwitch = [&](std::uint16_t a) -> std::optional<std::uint32_t> {
    const auto r = memory.read(a, taskId);
    if (r.fault != Fault::None) {
      fault(r.fault);
      return std::nullopt;
    }
    return r.value;
  };
  auto writeSwitch = [&](std::uint16_t a, std::uint32_t v) -> bool {
    const auto f = memory.write(a, v, taskId);
    if (f != Fault::None) {
      fault(f);
      return false;
    }
    return true;
  };

  for (std::size_t i = 0; i < n; ++i) {
    // An undecodable word faults only when execution reaches it, exactly
    // as lazy per-word decoding behaved.
    if (i >= decoded.size()) {
      fault(Fault::BadInstruction);
      break;
    }
    const auto& ins = decoded[i];

    bool done = false;
    switch (ins.op) {
      case Opcode::Nop:
        break;
      case Opcode::Push: {
        const std::uint16_t sp = pmem.sp();
        const auto v = readSwitch(ins.addr);
        if (!v || !pmemSet(sp / kWordSize, *v)) {
          done = true;
          break;
        }
        pmem.setSp(static_cast<std::uint16_t>(sp + kWordSize));
        break;
      }
      case Opcode::Pop: {
        const std::uint16_t sp = pmem.sp();
        if (sp < kWordSize) {
          fault(Fault::PmemOutOfBounds);
          done = true;
          break;
        }
        const auto v = pmemAt(sp / kWordSize - 1);
        if (!v || !writeSwitch(ins.addr, *v)) {
          done = true;
          break;
        }
        pmem.setSp(static_cast<std::uint16_t>(sp - kWordSize));
        break;
      }
      case Opcode::Load: {
        const auto v = readSwitch(ins.addr);
        if (!v || !pmemSet(pmem.index(ins.pmemOff), *v)) done = true;
        break;
      }
      case Opcode::Store: {
        const auto v = pmemAt(pmem.index(ins.pmemOff));
        if (!v || !writeSwitch(ins.addr, *v)) done = true;
        break;
      }
      case Opcode::Cstore: {
        // CSTORE dst,cond,src: linearizable compare-and-swap (§2.2).
        // Operand words are ALWAYS absolute indices — they live in the
        // immediate region the end-host initialized, independent of hop.
        const auto cond = pmemAt(ins.pmemOff);
        const auto src = cond ? pmemAt(ins.pmemOff + 1u) : std::nullopt;
        if (!src) {
          done = true;
          break;
        }
        const auto old = readSwitch(ins.addr);
        if (!old) {
          done = true;
          break;
        }
        if (*old == *cond && !writeSwitch(ins.addr, *src)) {
          done = true;
          break;
        }
        // Report the observed value so the end-host can tell whether the
        // swap took effect (pmem[off] == cond ⇒ success).
        if (!pmemSet(ins.pmemOff, *old)) done = true;
        break;
      }
      case Opcode::Cexec: {
        // Execute the REST of the program only if (reg & mask) == value.
        const auto mask = pmemAt(ins.pmemOff);
        const auto value = mask ? pmemAt(ins.pmemOff + 1u) : std::nullopt;
        if (!value) {
          done = true;
          break;
        }
        const auto reg = readSwitch(ins.addr);
        if (!reg) {
          done = true;
          break;
        }
        if ((*reg & *mask) != *value) {
          pmem.cexecSkipped();
          report.cexecSkipped = true;
          report.skipped = n - i - 1;
          done = true;  // all subsequent instructions are not executed
        }
        break;
      }
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Min:
      case Opcode::Max: {
        const std::size_t idx = pmem.index(ins.pmemOff);
        // Stop at the first fault: no switch read for a faulted operand.
        const auto cur = pmemAt(idx);
        const auto v = cur ? readSwitch(ins.addr) : std::nullopt;
        if (!v) {
          done = true;
          break;
        }
        std::uint32_t result = 0;
        switch (ins.op) {
          case Opcode::Add: result = *cur + *v; break;
          case Opcode::Sub: result = *cur - *v; break;
          case Opcode::Min: result = std::min(*cur, *v); break;
          case Opcode::Max: result = std::max(*cur, *v); break;
          default: break;
        }
        if (!pmemSet(idx, result)) done = true;
        break;
      }
    }

    if (report.fault != Fault::None) break;
    ++report.executed;
    ++instructions_;
    if (tracer_ != nullptr) {
      tracer_->record(clock_->now(), sim::TraceKind::TcpuRetire, actor_,
                      taskId, static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(ins.op), ins.addr,
                      ins.pmemOff);
    }
    if (done) break;  // failed CEXEC predicate
  }

  report.cycles = model_.cycles(report.executed);
  return report;
}

ExecReport Tcpu::execute(TppView& view, AddressSpace& memory) {
  const std::size_t n = view.instrWords();
  const CachedProgram& program = decodeProgram(view, n);
  const ExecReport report =
      run(program.decoded, n, view.taskId(), WirePmem(view), memory);
  // Hop counter advances on every TCPU-enabled switch traversed.
  view.setHopNumber(static_cast<std::uint8_t>(view.hopNumber() + 1));
  return report;
}

ExecReport Tcpu::executeResident(
    std::span<const Instruction> instructions, std::span<std::uint32_t> pmem,
    std::uint16_t taskId, AddressSpace& memory, std::uint16_t initialSp) {
  return run(instructions, instructions.size(), taskId,
             ResidentPmem(pmem, initialSp), memory);
}

}  // namespace tpp::tcpu
