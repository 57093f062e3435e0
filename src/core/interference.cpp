#include "src/core/interference.hpp"

#include <algorithm>
#include <map>

#include "src/core/walk.hpp"

namespace tpp::core {
namespace {

std::string taskRef(const EffectSummary& s) {
  const std::string name = s.name.empty() ? "<unnamed>" : s.name;
  return "'" + name + "' (task " + std::to_string(s.taskId) + ")";
}

std::string instrRef(const Effect& e) {
  return " (instruction " + std::to_string(e.instructionIndex) +
         " of program " + std::to_string(e.programIndex) + ")";
}

// Only CEXEC pins on the immutable per-switch identity register prove two
// effects land on *different switches*. Pins on mutable state (queue depth,
// epoch, ...) can be satisfied by the same switch at different times and
// excuse nothing.
bool guardsDisjoint(const Effect& a, const Effect& b) {
  for (const auto& ga : a.guards) {
    if (!ga.known || ga.addr != addr::SwitchId) continue;
    for (const auto& gb : b.guards) {
      if (!gb.known || gb.addr != addr::SwitchId) continue;
      if (ga.mask == gb.mask && (ga.value & ga.mask) != (gb.value & gb.mask)) {
        return true;
      }
    }
  }
  return false;
}

struct Accessor {
  std::size_t task = 0;    // index into the summaries span
  std::size_t effect = 0;  // index into that summary's effects
};

void addFinding(InterferenceReport& report, Conflict c) {
  if (c.severity == Severity::Error) {
    report.errors += 1;
  } else {
    report.warnings += 1;
  }
  report.findings.push_back(std::move(c));
}

}  // namespace

std::string_view effectKindName(EffectKind k) {
  switch (k) {
    case EffectKind::Read: return "read";
    case EffectKind::Write: return "write";
    case EffectKind::Rmw: return "cstore";
  }
  return "?";
}

std::string_view conflictKindName(ConflictKind k) {
  switch (k) {
    case ConflictKind::WriteWrite: return "write-write";
    case ConflictKind::LostUpdate: return "lost-update";
    case ConflictKind::ReadWrite: return "read-write";
    case ConflictKind::SharedRmw: return "shared-rmw";
    case ConflictKind::GuardDisjoint: return "guard-disjoint";
    case ConflictKind::LockPlainWrite: return "lock-plain-write";
    case ConflictKind::LockNoEpochCheck: return "lock-no-epoch-check";
    case ConflictKind::LockNoAcquire: return "lock-no-acquire";
  }
  return "?";
}

void summarizeProgram(const Program& program, EffectSummary& summary,
                      std::size_t maxHops) {
  if (summary.programCount == 0) summary.taskId = program.taskId;
  const std::size_t programIndex = summary.programCount;
  summary.programCount += 1;

  const std::vector<bool> dirty = mayWriteSet(program, maxHops);
  const std::size_t initialized =
      std::min<std::size_t>(program.initialPmem.size(), program.pmemWords);
  // First-execution value: the initial image, regardless of later
  // overwrites (used for the CSTORE comparand, whose word is always
  // dirtied by the old-value write-back).
  const auto initialWord = [&](std::size_t w, std::uint32_t& out) {
    if (w >= initialized) return false;
    out = program.initialPmem[w];
    return true;
  };
  // A word provably holds its initial-image value at *every* execution iff
  // it is initialized and no path ever overwrites it.
  const auto stableWord = [&](std::size_t w, std::uint32_t& out) {
    return w < initialized && !dirty[w] && initialWord(w, out);
  };

  bool readsEpoch = false;
  std::vector<EffectGuard> guards;
  for (std::size_t i = 0; i < program.instructions.size(); ++i) {
    const auto& in = program.instructions[i];
    const auto access = opcodeInfo(in.op).switchAccess;
    if (access == SwitchAccess::None) continue;
    if (in.addr == addr::SwitchBootEpoch) readsEpoch = true;

    Effect e;
    e.address = in.addr;
    e.instructionIndex = static_cast<int>(i);
    e.programIndex = programIndex;
    e.guards = guards;
    if (access == SwitchAccess::Write) {
      e.kind = EffectKind::Write;
    } else if (access == SwitchAccess::ReadModifyWrite) {
      e.kind = EffectKind::Rmw;
      e.condKnown = initialWord(in.pmemOff, e.cond);
      e.srcKnown = stableWord(in.pmemOff + 1u, e.src);
    } else {
      e.kind = EffectKind::Read;
    }
    summary.effects.push_back(std::move(e));

    if (in.op == Opcode::Cexec) {
      EffectGuard g;
      g.addr = in.addr;
      g.known = stableWord(in.pmemOff, g.mask) &&
                stableWord(in.pmemOff + 1u, g.value);
      guards.push_back(g);
    }
  }
  summary.programReadsEpoch.push_back(readsEpoch);
}

EffectSummary summarize(const Program& program, std::string name,
                        std::size_t maxHops) {
  EffectSummary s;
  s.name = std::move(name);
  summarizeProgram(program, s, maxHops);
  return s;
}

InterferenceReport analyzeInterference(std::span<const EffectSummary> tasks,
                                       const InterferenceOptions& opts) {
  InterferenceReport report;
  const MemoryMap& map = MemoryMap::standard();

  // ------------------------------------------ pairwise conflict matrix
  // Only scratch words can be written by TPPs, so only they can race.
  std::map<std::uint16_t, std::vector<Accessor>> byAddr;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (std::size_t e = 0; e < tasks[t].effects.size(); ++e) {
      const auto& eff = tasks[t].effects[e];
      if (!MemoryMap::writable(eff.address)) continue;
      byAddr[eff.address].push_back({t, e});
    }
  }

  for (const auto& [address, accessors] : byAddr) {
    // Distinct task *ids* sharing the word (different summaries with the
    // same id are the same logical task coordinating with itself).
    std::vector<std::size_t> taskIdxs;
    for (const auto& a : accessors) {
      if (std::none_of(taskIdxs.begin(), taskIdxs.end(), [&](std::size_t t) {
            return tasks[t].taskId == tasks[a.task].taskId;
          })) {
        taskIdxs.push_back(a.task);
      }
    }
    if (taskIdxs.size() > 1) report.sharedWords += 1;

    for (std::size_t ii = 0; ii < taskIdxs.size(); ++ii) {
      for (std::size_t jj = ii + 1; jj < taskIdxs.size(); ++jj) {
        const std::size_t ia = taskIdxs[ii];
        const std::size_t ib = taskIdxs[jj];
        const auto& sa = tasks[ia];
        const auto& sb = tasks[ib];

        // Live (non-guard-disjoint) effect pairs between the two task ids,
        // aggregated over every summary carrying each id.
        bool sawPair = false;
        // [kindA][kindB] — true when some live pair has these kinds.
        bool live[3][3] = {};
        const Effect* witness[3][3][2] = {};
        for (const auto& aa : accessors) {
          if (tasks[aa.task].taskId != sa.taskId) continue;
          const auto& ea = tasks[aa.task].effects[aa.effect];
          for (const auto& bb : accessors) {
            if (tasks[bb.task].taskId != sb.taskId) continue;
            const auto& eb = tasks[bb.task].effects[bb.effect];
            sawPair = true;
            if (guardsDisjoint(ea, eb)) continue;
            const auto ka = static_cast<int>(ea.kind);
            const auto kb = static_cast<int>(eb.kind);
            if (!live[ka][kb]) {
              live[ka][kb] = true;
              witness[ka][kb][0] = &ea;
              witness[ka][kb][1] = &eb;
            }
          }
        }

        constexpr int kRead = static_cast<int>(EffectKind::Read);
        constexpr int kWrite = static_cast<int>(EffectKind::Write);
        constexpr int kRmw = static_cast<int>(EffectKind::Rmw);

        const std::string where = map.describeAddress(address);
        const auto conflict = [&](ConflictKind kind, Severity severity,
                                  std::string message) {
          return Conflict{kind, severity, address, ia, ib, std::move(message)};
        };
        // The witnesses of a live plain write against an `other`-kind
        // access, and their tasks, oriented so the plain writer comes first.
        struct Oriented {
          const Effect& w;
          const Effect& r;
          const EffectSummary& sw;
          const EffectSummary& sr;
        };
        const auto orient = [&](int other) {
          const bool aWrites = live[kWrite][other];
          return aWrites ? Oriented{*witness[kWrite][other][0],
                                    *witness[kWrite][other][1], sa, sb}
                         : Oriented{*witness[other][kWrite][1],
                                    *witness[other][kWrite][0], sb, sa};
        };

        if (live[kWrite][kRmw] || live[kRmw][kWrite]) {
          const auto [w, r, sw, sr] = orient(kRmw);
          addFinding(report,
                     conflict(ConflictKind::LostUpdate, Severity::Error,
                              "task " + taskRef(sw) + " plain-writes " +
                                  where + instrRef(w) + " while task " +
                                  taskRef(sr) + " updates it with CSTORE" +
                                  instrRef(r) +
                                  "; the plain write defeats the "
                                  "compare-and-swap (lost update)"));
        } else if (live[kWrite][kWrite]) {
          addFinding(report,
                     conflict(ConflictKind::WriteWrite, Severity::Error,
                              "tasks " + taskRef(sa) +
                                  instrRef(*witness[kWrite][kWrite][0]) +
                                  " and " + taskRef(sb) +
                                  instrRef(*witness[kWrite][kWrite][1]) +
                                  " both plain-write " + where +
                                  "; the last writer silently wins"));
        } else if (live[kWrite][kRead] || live[kRead][kWrite]) {
          const auto [w, r, sw, sr] = orient(kRead);
          addFinding(report,
                     conflict(ConflictKind::ReadWrite, Severity::Warning,
                              "task " + taskRef(sw) + " plain-writes " +
                                  where + instrRef(w) + " while task " +
                                  taskRef(sr) + " reads it" + instrRef(r) +
                                  " without coordination; the reader "
                                  "observes arbitrary interleavings"));
        } else if (live[kRmw][kRmw] || live[kRmw][kRead] ||
                   live[kRead][kRmw]) {
          // Benign findings keep Warning severity but are never counted.
          report.benign.push_back(conflict(
              ConflictKind::SharedRmw, Severity::Warning,
              "tasks " + taskRef(sa) + " and " + taskRef(sb) + " share " +
                  where + " through atomic CSTORE updates (coordinated)"));
        } else if (sawPair) {
          report.benign.push_back(conflict(
              ConflictKind::GuardDisjoint, Severity::Warning,
              "tasks " + taskRef(sa) + " and " + taskRef(sb) + " touch " +
                  where +
                  " but are CEXEC-pinned to different [Switch:SwitchID] "
                  "values; they never execute on the same switch"));
        }
      }
    }
  }

  // ------------------------------------------------- lock discipline
  // Applied per summary, including single-task deployments: the rules are
  // about *how* a lock word is used, not about who else is present.
  for (const auto& lock : opts.locks) {
    const std::string lockName =
        lock.name.empty() ? map.describeAddress(lock.lockAddress)
                          : "'" + lock.name + "' " +
                                map.describeAddress(lock.lockAddress);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto& s = tasks[t];
      bool anyLockRmw = false;
      for (const auto& e : s.effects) {
        if (e.address == lock.lockAddress && e.kind == EffectKind::Rmw) {
          anyLockRmw = true;
        }
      }
      for (const auto& e : s.effects) {
        const auto lockError = [&](ConflictKind kind, std::string message) {
          addFinding(report, Conflict{kind, Severity::Error, e.address, t, t,
                                      std::move(message)});
        };
        if (e.address == lock.lockAddress) {
          if (e.kind == EffectKind::Write) {
            lockError(ConflictKind::LockPlainWrite,
                      "task " + taskRef(s) + " plain-writes lock word " +
                          lockName + instrRef(e) +
                          "; lock words may only be mutated with CSTORE");
          } else if (e.kind == EffectKind::Rmw &&
                     (e.programIndex >= s.programReadsEpoch.size() ||
                      !s.programReadsEpoch[e.programIndex])) {
            lockError(ConflictKind::LockNoEpochCheck,
                      "task " + taskRef(s) + " CSTOREs lock word " +
                          lockName + instrRef(e) +
                          " without reading [Switch:BootEpoch] in the same "
                          "program; a reboot-wiped lock cannot be told apart "
                          "from a held one");
          }
          continue;
        }
        const bool isProtected =
            std::find(lock.protectedAddresses.begin(),
                      lock.protectedAddresses.end(),
                      e.address) != lock.protectedAddresses.end();
        if (isProtected && e.kind == EffectKind::Write && !anyLockRmw) {
          lockError(ConflictKind::LockNoAcquire,
                    "task " + taskRef(s) + " plain-writes " +
                        map.describeAddress(e.address) +
                        ", protected by lock " + lockName + instrRef(e) +
                        ", but never CSTOREs the lock — mutation without "
                        "holding the (id, epoch) proof");
        }
      }
    }
  }

  return report;
}

std::string formatConflict(const Conflict& c) {
  std::string out(severityName(c.severity));
  out += ": [";
  out += conflictKindName(c.kind);
  out += "] ";
  out += c.message;
  return out;
}

}  // namespace tpp::core
