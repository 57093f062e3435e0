#include "src/core/assembler.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace tpp::core {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::optional<std::uint64_t> parseNumber(std::string_view t) {
  t = trim(t);
  if (t.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const char* first = t.data();
  const char* last = t.data() + t.size();
  std::from_chars_result r{};
  if (t.size() > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
    r = std::from_chars(first + 2, last, v, 16);
  } else {
    r = std::from_chars(first, last, v, 10);
  }
  if (r.ec != std::errc{} || r.ptr != last) return std::nullopt;
  return v;
}

// One parsed operand.
struct Operand {
  enum class Kind { SwitchAddr, PmemIndex, HopOffset, Immediate } kind;
  std::uint32_t value = 0;
};

struct Parser {
  const MemoryMap& map;
  std::unordered_map<std::string, std::uint32_t> defines;

  std::optional<Operand> parseOperand(std::string_view t, std::string& err) {
    t = trim(t);
    if (t.empty()) {
      err = "empty operand";
      return std::nullopt;
    }
    if (t.front() == '$') {
      const auto it = defines.find(std::string(t.substr(1)));
      if (it == defines.end()) {
        err = "undefined constant " + std::string(t);
        return std::nullopt;
      }
      return Operand{Operand::Kind::Immediate, it->second};
    }
    if (t.front() == '[') {
      if (t.back() != ']') {
        err = "unterminated bracket in " + std::string(t);
        return std::nullopt;
      }
      const std::string_view inner = trim(t.substr(1, t.size() - 2));
      // [Packet:N] / [Packet:hop[N]] / [PacketMemory:N]
      for (const std::string_view prefix : {"Packet:", "PacketMemory:"}) {
        if (inner.starts_with(prefix)) {
          std::string_view rest = inner.substr(prefix.size());
          if (rest.starts_with("hop[") && rest.ends_with("]")) {
            const auto n = parseNumber(rest.substr(4, rest.size() - 5));
            if (!n || *n > 255) {
              err = "bad hop offset in " + std::string(t);
              return std::nullopt;
            }
            return Operand{Operand::Kind::HopOffset,
                           static_cast<std::uint32_t>(*n)};
          }
          const auto n = parseNumber(rest);
          if (!n || *n > 255) {
            err = "bad packet-memory index in " + std::string(t);
            return std::nullopt;
          }
          return Operand{Operand::Kind::PmemIndex,
                         static_cast<std::uint32_t>(*n)};
        }
      }
      // [0xB000] literal switch address
      if (const auto n = parseNumber(inner)) {
        if (*n > 0xffff) {
          err = "address out of range in " + std::string(t);
          return std::nullopt;
        }
        return Operand{Operand::Kind::SwitchAddr,
                       static_cast<std::uint32_t>(*n)};
      }
      // [Namespace:Statistic]
      if (const auto a = map.resolve(inner)) {
        return Operand{Operand::Kind::SwitchAddr, *a};
      }
      err = "unknown statistic " + std::string(inner);
      return std::nullopt;
    }
    if (const auto n = parseNumber(t)) {
      return Operand{Operand::Kind::Immediate, static_cast<std::uint32_t>(*n)};
    }
    err = "cannot parse operand " + std::string(t);
    return std::nullopt;
  }
};

std::vector<std::string_view> splitOperands(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '[') ++depth;
    if (s[i] == ']' && depth > 0) --depth;
    if (s[i] == ',' && depth == 0) {
      out.push_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  const auto last = trim(s.substr(start));
  if (!last.empty()) out.push_back(last);
  return out;
}

}  // namespace

std::variant<Program, AssemblyError> assemble(std::string_view source,
                                              const MemoryMap& map,
                                              const AssembleOptions& options) {
  ProgramBuilder builder;
  Parser parser{map, {}};
  bool sawReserve = false;
  std::size_t pushCount = 0;
  struct InitDirective {
    std::size_t index;
    std::uint32_t value;
    int line;
  };
  std::vector<InitDirective> inits;
  std::optional<std::uint16_t> explicitSp;
  std::optional<std::size_t> explicitPmem;
  std::vector<int> instructionLines;

  int lineNo = 0;
  // Line of the last non-blank source line: post-pass failures (budget
  // overflows detected only once the whole program is known) anchor here
  // instead of pointing one past the end of the file.
  int lastContentLine = 0;
  std::size_t pos = 0;
  auto fail = [&](std::string msg) {
    return AssemblyError{lineNo, std::move(msg)};
  };

  while (pos <= source.size()) {
    const std::size_t eol = source.find('\n', pos);
    std::string_view line = source.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? source.size() + 1 : eol + 1;
    ++lineNo;

    // Strip comments.
    for (const char c : {'#', ';'}) {
      if (const auto cut = line.find(c); cut != std::string_view::npos) {
        line = line.substr(0, cut);
      }
    }
    line = trim(line);
    if (line.empty()) continue;
    lastContentLine = lineNo;

    if (line.front() == '.') {  // directive
      const std::size_t sp = line.find(' ');
      const std::string_view name = line.substr(0, sp);
      const std::string_view rest =
          sp == std::string_view::npos ? "" : trim(line.substr(sp + 1));
      if (name == ".mode") {
        if (rest == "stack") {
          builder.mode(AddressingMode::Stack);
        } else if (rest == "hop") {
          builder.mode(AddressingMode::Hop);
        } else {
          return fail("bad .mode (want stack|hop)");
        }
      } else if (name == ".perhop") {
        const auto n = parseNumber(rest);
        if (!n || *n > 255) return fail("bad .perhop");
        builder.perHop(static_cast<std::uint8_t>(*n));
      } else if (name == ".reserve") {
        const auto n = parseNumber(rest);
        if (!n || *n > 255) return fail("bad .reserve");
        builder.reserve(static_cast<std::uint8_t>(*n));
        sawReserve = true;
      } else if (name == ".task") {
        const auto n = parseNumber(rest);
        if (!n || *n > 0xffff) return fail("bad .task");
        builder.task(static_cast<std::uint16_t>(*n));
      } else if (name == ".pmem") {
        const auto n = parseNumber(rest);
        if (!n || *n > 255) return fail("bad .pmem");
        explicitPmem = static_cast<std::size_t>(*n);
      } else if (name == ".sp") {
        const auto n = parseNumber(rest);
        if (!n || *n > 0xffff) return fail("bad .sp");
        explicitSp = static_cast<std::uint16_t>(*n);
      } else if (name == ".init") {
        const std::size_t sp2 = rest.find(' ');
        if (sp2 == std::string_view::npos) return fail("bad .init");
        const auto idx = parseNumber(rest.substr(0, sp2));
        const auto v = parseNumber(rest.substr(sp2 + 1));
        if (!idx || *idx > 255 || !v || *v > 0xffffffffULL) {
          return fail("bad .init");
        }
        inits.push_back(InitDirective{static_cast<std::size_t>(*idx),
                                      static_cast<std::uint32_t>(*v),
                                      lineNo});
      } else if (name == ".define") {
        const std::size_t sp2 = rest.find(' ');
        if (sp2 == std::string_view::npos) return fail("bad .define");
        const auto v = parseNumber(rest.substr(sp2 + 1));
        if (!v || *v > 0xffffffffULL) return fail("bad .define value");
        parser.defines[std::string(trim(rest.substr(0, sp2)))] =
            static_cast<std::uint32_t>(*v);
      } else {
        return fail("unknown directive " + std::string(name));
      }
      continue;
    }

    // Instruction: MNEMONIC [operand[, operand[, operand]]]
    const std::size_t sp = line.find_first_of(" \t");
    const std::string_view mnemonic = line.substr(0, sp);
    const auto op = opcodeFromName(mnemonic);
    if (!op) return fail("unknown mnemonic " + std::string(mnemonic));
    const std::string_view rest =
        sp == std::string_view::npos ? "" : line.substr(sp + 1);
    const auto operands = splitOperands(rest);
    std::string err;

    auto switchAddr = [&](std::size_t i) -> std::optional<std::uint16_t> {
      const auto o = parser.parseOperand(operands[i], err);
      if (!o || o->kind != Operand::Kind::SwitchAddr) return std::nullopt;
      return static_cast<std::uint16_t>(o->value);
    };

    const auto& info = opcodeInfo(*op);
    switch (info.operands) {
      case Operands::None:
        builder.raw({*op, 0, 0});
        break;
      case Operands::Addr: {
        if (operands.size() != 1) return fail("PUSH/POP take one operand");
        const auto a = switchAddr(0);
        if (!a) return fail(err.empty() ? "operand must be a switch address"
                                        : err);
        builder.raw({*op, *a, 0});
        if (info.stackDelta > 0) ++pushCount;
        break;
      }
      case Operands::AddrPmem: {
        if (operands.size() != 2) return fail("expected two operands");
        const auto a = switchAddr(0);
        if (!a) return fail(err.empty() ? "first operand must be an address"
                                        : err);
        const auto o2 = parser.parseOperand(operands[1], err);
        if (!o2) return fail(err);
        switch (o2->kind) {
          case Operand::Kind::PmemIndex:
          case Operand::Kind::HopOffset:
            builder.raw({*op, *a, static_cast<std::uint8_t>(o2->value)});
            break;
          case Operand::Kind::Immediate:
            // Only a read-only operand can be staged as an immediate.
            if (info.writesPacketOperand) {
              return fail("immediate operand only valid for STORE");
            }
            builder.raw({*op, *a, builder.imm(o2->value)});
            break;
          default:
            return fail("second operand must be packet memory or immediate");
        }
        break;
      }
      case Operands::AddrTwoPmem: {
        if (operands.size() != 3) return fail("expected three operands");
        const auto a = switchAddr(0);
        if (!a) return fail(err.empty() ? "first operand must be an address"
                                        : err);
        const auto o2 = parser.parseOperand(operands[1], err);
        if (!o2) return fail(err);
        const auto o3 = parser.parseOperand(operands[2], err);
        if (!o3) return fail(err);
        if (o2->kind == Operand::Kind::Immediate &&
            o3->kind == Operand::Kind::Immediate) {
          const std::uint8_t off = builder.imm(o2->value);
          builder.imm(o3->value);
          builder.raw({*op, *a, off});
        } else if (o2->kind == Operand::Kind::PmemIndex &&
                   o3->kind == Operand::Kind::PmemIndex &&
                   o3->value == o2->value + 1) {
          builder.raw({*op, *a, static_cast<std::uint8_t>(o2->value)});
        } else {
          return fail(
              "operands must both be immediates or adjacent [Packet:N]");
        }
        break;
      }
    }
    // Every branch above appended exactly one instruction for this line.
    instructionLines.push_back(lineNo);
  }

  // Default reserve: enough stack room for every PUSH to land on a distinct
  // word across a generous 8-hop path. Suppressed when the author sized
  // packet memory explicitly (.reserve or .pmem).
  if (!sawReserve && !explicitPmem && pushCount > 0) {
    const std::size_t words = pushCount * 8;
    builder.reserve(static_cast<std::uint8_t>(std::min<std::size_t>(words,
                                                                    200)));
  }
  auto program = builder.build();
  if (!program) {
    return AssemblyError{lastContentLine, "program exceeds encoding limits"};
  }
  // Apply explicit memory-image directives.
  std::size_t total = program->pmemWords;
  if (explicitPmem) total = std::max(total, *explicitPmem);
  for (const auto& init : inits) {
    if (program->initialPmem.size() <= init.index) {
      program->initialPmem.resize(init.index + 1, 0);
    }
    program->initialPmem[init.index] = init.value;
    total = std::max(total, init.index + 1);
    if (total > 255) {
      return AssemblyError{init.line, "packet memory exceeds 255 words"};
    }
  }
  if (total > 255) {
    return AssemblyError{lastContentLine, "packet memory exceeds 255 words"};
  }
  program->pmemWords = static_cast<std::uint8_t>(total);
  if (explicitSp) program->initialSp = *explicitSp;

  if (options.verify) {
    VerifyOptions vopts = options.verifyOptions;
    vopts.instructionLines = instructionLines;
    const auto vr = verify(*program, map, vopts);
    if (!vr.ok()) {
      for (const auto& d : vr.diagnostics) {
        if (d.severity != Severity::Error) continue;
        return AssemblyError{
            d.line > 0 ? d.line : lastContentLine,
            "verify: [" + std::string(checkName(d.check)) + "] " + d.message};
      }
    }
  }
  if (options.outInstructionLines) {
    *options.outInstructionLines = std::move(instructionLines);
  }
  return *program;
}

std::string disassemble(const Program& program, const MemoryMap& map) {
  std::ostringstream os;
  if (program.mode == AddressingMode::Hop) {
    os << ".mode hop\n.perhop " << int{program.perHopWords} << "\n";
  }
  if (program.taskId != 0) os << ".task " << program.taskId << "\n";
  os << ".pmem " << int{program.pmemWords} << "\n";
  os << ".sp " << program.initialSp << "\n";
  for (std::size_t i = 0; i < program.initialPmem.size(); ++i) {
    os << ".init " << i << " " << program.initialPmem[i] << "\n";
  }
  auto fmt = [&](std::uint16_t a) {
    if (const auto* s = map.lookup(a)) return "[" + s->name + "]";
    char buf[12];
    std::snprintf(buf, sizeof buf, "[0x%04x]", a);
    return std::string(buf);
  };
  for (const auto& ins : program.instructions) {
    os << opcodeName(ins.op);
    switch (opcodeInfo(ins.op).operands) {
      case Operands::None:
        break;
      case Operands::Addr:
        os << " " << fmt(ins.addr);
        break;
      case Operands::AddrPmem:
        os << " " << fmt(ins.addr) << ", [Packet:" << int{ins.pmemOff} << "]";
        break;
      case Operands::AddrTwoPmem:
        os << " " << fmt(ins.addr) << ", [Packet:" << int{ins.pmemOff}
           << "], [Packet:" << int{ins.pmemOff} + 1 << "]";
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace tpp::core
