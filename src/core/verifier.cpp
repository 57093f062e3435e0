#include "src/core/verifier.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "src/core/walk.hpp"

namespace tpp::core {
namespace {

// Distinguishes multiple findings anchored at the same instruction so each
// is reported once (at the earliest hop that trips it).
enum Tag : int {
  kTagDefault = 0,
  kTagOverflow,
  kTagUnderflow,
  kTagReadUninit,
  kTagReadMaybeUninit,
  kTagGrant,
};

class Emitter {
 public:
  Emitter(const VerifyOptions& opts, VerifyResult& result)
      : opts_(opts), result_(result) {}

  bool enabled(Check c) const { return (opts_.checks & checkBit(c)) != 0; }

  void emit(Severity sev, Check check, int instr, int tag,
            std::string message) {
    if (!enabled(check)) return;
    const auto key = std::make_tuple(static_cast<int>(check), instr, tag);
    if (std::find(seen_.begin(), seen_.end(), key) != seen_.end()) return;
    seen_.push_back(key);
    if (sev == Severity::Warning && opts_.werror) sev = Severity::Error;
    Diagnostic d;
    d.severity = sev;
    d.check = check;
    d.instructionIndex = instr;
    if (instr >= 0 &&
        static_cast<std::size_t>(instr) < opts_.instructionLines.size()) {
      d.line = opts_.instructionLines[instr];
    }
    d.message = std::move(message);
    (sev == Severity::Error ? result_.errors : result_.warnings) += 1;
    result_.diagnostics.push_back(std::move(d));
  }

 private:
  const VerifyOptions& opts_;
  VerifyResult& result_;
  std::vector<std::tuple<int, int, int>> seen_;
};

}  // namespace

std::string_view checkName(Check c) {
  switch (c) {
    case Check::Budget: return "budget";
    case Check::StackGrowth: return "stack-growth";
    case Check::WritePermission: return "write-permission";
    case Check::AddressRange: return "address-range";
    case Check::UseBeforeInit: return "use-before-init";
  }
  return "?";
}

std::string_view severityName(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

std::string formatDiagnostic(const Diagnostic& d, std::string_view file) {
  std::string out;
  if (!file.empty()) {
    out += file;
    out += ':';
    if (d.line > 0) out += std::to_string(d.line) + ":";
    out += ' ';
  } else if (d.line > 0) {
    out += "line " + std::to_string(d.line) + ": ";
  }
  out += severityName(d.severity);
  out += ": [";
  out += checkName(d.check);
  out += "] ";
  out += d.message;
  if (d.line == 0 && d.instructionIndex >= 0) {
    out += " (instruction " + std::to_string(d.instructionIndex) + ")";
  }
  return out;
}

VerifyResult verify(const Program& program, const MemoryMap& map,
                    const VerifyOptions& opts) {
  VerifyResult result;
  Emitter emit(opts, result);
  const std::size_t pmemWords = program.pmemWords;
  const auto& ins = program.instructions;

  // ---------------------------------------------------------- budget (1)
  if (ins.size() > 255) {
    emit.emit(Severity::Error, Check::Budget, -1, kTagDefault,
              "program has " + std::to_string(ins.size()) +
                  " instructions; the instrWords header field is 8 bits");
  }
  if (program.initialPmem.size() > pmemWords) {
    emit.emit(Severity::Error, Check::Budget, -1, kTagDefault + 1,
              "initialized packet memory (" +
                  std::to_string(program.initialPmem.size()) +
                  " words) exceeds the declared " +
                  std::to_string(pmemWords) +
                  "-word packet memory; trailing immediates are lost on "
                  "the wire");
  }
  if (ins.size() > opts.budgetInstructions) {
    emit.emit(Severity::Warning, Check::Budget, -1, kTagDefault + 2,
              "program has " + std::to_string(ins.size()) +
                  " instructions, past the paper's ~" +
                  std::to_string(opts.budgetInstructions) +
                  "-instruction budget (§3.3)");
  }
  if (program.wireBytes() > opts.mtuBytes) {
    emit.emit(Severity::Error, Check::Budget, -1, kTagDefault + 3,
              "TPP occupies " + std::to_string(program.wireBytes()) +
                  " wire bytes, past the " + std::to_string(opts.mtuBytes) +
                  "-byte MTU budget");
  }

  // --------------------------- hop-independent per-instruction pre-pass
  const bool enforcing = opts.grants != nullptr && opts.grants->enforcing();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const auto& in = ins[i];
    const int idx = static_cast<int>(i);

    // Every instruction must survive the 4-byte wire round trip, or the
    // TCPU raises BadInstruction when execution reaches it.
    const auto decoded = Instruction::decode(in.encode());
    if (!decoded || *decoded != in) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "0x%02x",
                    static_cast<unsigned>(in.op));
      emit.emit(Severity::Error, Check::AddressRange, idx, kTagDefault,
                std::string("instruction does not survive the 4-byte wire "
                            "encoding (opcode ") +
                    buf + ")");
      continue;  // operand fields are meaningless
    }

    if (opcodeInfo(in.op).switchAccess != SwitchAccess::None) {
      const auto ns = MemoryMap::namespaceOf(in.addr);
      if (ns == StatNamespace::Unmapped) {
        emit.emit(Severity::Error, Check::AddressRange, idx, kTagDefault + 1,
                  "switch address " + map.describeAddress(in.addr) +
                      " falls outside every namespace (faults "
                      "UnmappedAddress)");
      } else if (!MemoryMap::writable(in.addr) &&
                 map.lookup(in.addr) == nullptr) {
        // Statistics need a map entry; scratch words are valid end to end.
        emit.emit(Severity::Error, Check::AddressRange, idx, kTagDefault + 1,
                  "switch address " + map.describeAddress(in.addr) +
                      " names no statistic in the memory map (faults "
                      "UnmappedAddress)");
      } else if (enforcing && MemoryMap::writable(in.addr) &&
                 !opts.grants->allows(program.taskId, in.addr)) {
        const bool writes = writesSwitchMemory(in.op);
        std::string msg = std::string(writes ? "writes" : "reads") +
                          " scratch " + map.describeAddress(in.addr) +
                          " outside task " + std::to_string(program.taskId) +
                          "'s SRAM grant windows (faults GrantViolation)";
        if (std::any_of(ins.begin(), ins.begin() + idx,
                        [](const Instruction& p) {
                          return p.op == Opcode::Cexec;
                        })) {
          msg += "; the preceding CEXEC guard cannot be proven false "
                 "statically";
        }
        emit.emit(Severity::Error, Check::WritePermission, idx, kTagGrant,
                  std::move(msg));
      }
      if (writesSwitchMemory(in.op) && !MemoryMap::writable(in.addr)) {
        emit.emit(Severity::Error, Check::WritePermission, idx, kTagDefault,
                  std::string(opcodeName(in.op)) + " destination " +
                      map.describeAddress(in.addr) +
                      " is a read-only statistic (faults "
                      "ReadOnlyViolation)");
      }
    }

    // Absolute [Packet:N] operands. CSTORE/CEXEC consume two adjacent
    // words regardless of addressing mode; LOAD/STORE/arith offsets are
    // absolute in stack mode (hop mode is proven per hop below).
    if (takesTwoPmemWords(in.op)) {
      if (in.pmemOff + 1u >= pmemWords) {
        emit.emit(Severity::Error, Check::AddressRange, idx, kTagDefault + 2,
                  std::string(opcodeName(in.op)) + " operands [Packet:" +
                      std::to_string(in.pmemOff) + "] and [Packet:" +
                      std::to_string(in.pmemOff + 1) +
                      "] overrun the " + std::to_string(pmemWords) +
                      "-word packet memory");
      }
    } else if (opcodeInfo(in.op).modeAddressed &&
               program.mode == AddressingMode::Stack &&
               in.pmemOff >= pmemWords) {
      emit.emit(Severity::Error, Check::AddressRange, idx, kTagDefault + 2,
                std::string(opcodeName(in.op)) + " operand [Packet:" +
                    std::to_string(in.pmemOff) + "] is outside the " +
                    std::to_string(pmemWords) + "-word packet memory");
    }
  }

  // ------------------------------- hop-mode record shape (part of 2)
  if (program.mode == AddressingMode::Hop) {
    std::size_t touched = 0;  // words per hop actually addressed
    bool any = false;
    for (const auto& in : ins) {
      if (opcodeInfo(in.op).modeAddressed) {
        any = true;
        touched = std::max<std::size_t>(touched, in.pmemOff + 1u);
      }
    }
    if (any && program.perHopWords == 0) {
      emit.emit(Severity::Warning, Check::StackGrowth, -1, kTagDefault,
                ".perhop is 0: every hop overwrites the same packet-memory "
                "words instead of appending a record");
    } else if (any && touched > program.perHopWords) {
      emit.emit(Severity::Warning, Check::StackGrowth, -1, kTagDefault + 1,
                "per-hop records touch " + std::to_string(touched) +
                    " words but .perhop is " +
                    std::to_string(program.perHopWords) +
                    "; successive hop records overlap");
    } else if (any && touched < program.perHopWords) {
      emit.emit(Severity::Warning, Check::StackGrowth, -1, kTagDefault + 2,
                "per-hop records touch only " + std::to_string(touched) +
                    " of the .perhop " + std::to_string(program.perHopWords) +
                    " words; end-host record parsing may misalign");
    }
  }

  // --------------- abstract interpretation over maxHops executions (2, 5)
  if (!emit.enabled(Check::StackGrowth) && !emit.enabled(Check::UseBeforeInit)) {
    return result;
  }

  // Diagnostics for what the shared stack-pointer walk (walk.hpp) finds.
  struct Diagnose : WalkVisitor {
    Emitter& emit;
    const Program& program;

    void read(int idx, std::int64_t w, Init st) {
      if (st == Init::No) {
        emit.emit(Severity::Warning, Check::UseBeforeInit, idx, kTagReadUninit,
                  "reads packet-memory word " + std::to_string(w) +
                      ", which no path initializes (reads wire zero-fill)");
      } else if (st == Init::Maybe) {
        emit.emit(Severity::Warning, Check::UseBeforeInit, idx,
                  kTagReadMaybeUninit,
                  "may read packet-memory word " + std::to_string(w) +
                      " before it is initialized (a CEXEC-skipped pass "
                      "leaves it unwritten)");
      }
    }
    void overflow(int idx, std::int64_t w, std::size_t hop) {
      const Opcode op = program.instructions[idx].op;
      const auto delta = opcodeInfo(op).stackDelta;
      const std::string what =
          delta == 0 ? "hop-mode operand resolves to"
                     : std::string(opcodeName(op)) +
                           (delta > 0 ? " may write" : " may read");
      emit.emit(Severity::Error, Check::StackGrowth, idx, kTagOverflow,
                what + " packet-memory word " + std::to_string(w) +
                    " at hop " + std::to_string(hop) + ", beyond the " +
                    std::to_string(program.pmemWords) +
                    "-word packet memory (faults " +
                    (delta == 0 ? "HopOverflow" : "PmemOutOfBounds") + ")");
    }
    void underflow(int idx, std::int64_t sp, std::size_t hop) {
      emit.emit(Severity::Error, Check::StackGrowth, idx, kTagUnderflow,
                "POP may underflow the stack at hop " + std::to_string(hop) +
                    " (stack pointer can reach " + std::to_string(sp) +
                    " bytes; faults PmemOutOfBounds)");
    }
  } diagnose{{}, emit, program};
  walkHops(program, opts.maxHops, diagnose);

  return result;
}

Program verified(Program program, const VerifyOptions& opts) {
  const auto result = verify(program, MemoryMap::standard(), opts);
  if (!result.ok()) {
    for (const auto& d : result.diagnostics) {
      std::fprintf(stderr, "tpp-verify: %s\n", formatDiagnostic(d).c_str());
    }
    std::fprintf(stderr,
                 "tpp-verify: program rejected by static verification "
                 "(%zu error%s)\n",
                 result.errors, result.errors == 1 ? "" : "s");
    std::abort();
  }
  return program;
}

}  // namespace tpp::core
