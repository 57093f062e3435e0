// Dynamic SRAM race oracle: the runtime counterpart of the static
// interference analyzer (src/core/interference.hpp).
//
// When armed on a switch, every scratch-SRAM access a TPP makes is logged
// as (task, kind, word). Accesses are folded per TPP *execution* — one TCPU
// run is atomic in the dataplane (the paper's §3.3 serialization point), so
// a read and a write of the same word inside one execution is a
// read-modify-write (CSTORE), not a race. What can race is the protocol
// *across* executions: task A's plain STORE landing between task B's CSTORE
// attempts is a lost update no single execution can see.
//
// After a run, conflicts() reduces the log to the set of cross-task
// overlaps in which some task plain-writes a word another task touches —
// exactly the shapes analyzeInterference() flags statically. divergences()
// then cross-checks: every observed conflict must be covered by a static
// finding on the same (address, task-pair); anything uncovered is a static
// false negative and fails the chaos/determinism suites.
//
// Cost discipline: the instrumentation points in Switch are a single
// `oracle_ != nullptr` test when disarmed (same pattern as the flight
// recorder; enforced by bench_core's oracle_check_off self-gate). Each
// oracle instance belongs to one switch; it needs no locks.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/core/interference.hpp"
#include "src/core/memory_map.hpp"

namespace tpp::asic {

class SramRaceOracle {
 public:
  enum class Access : std::uint8_t { Read, Write };

  // Folded access kinds per (word, task), bitmask values.
  static constexpr std::uint8_t kReadBit = 1;   // execution only read
  static constexpr std::uint8_t kWriteBit = 2;  // execution only wrote
  static constexpr std::uint8_t kRmwBit = 4;    // read + wrote (CSTORE took)

  // Called by the switch immediately before each TCPU execution; folds the
  // previous execution's accesses into the per-word history.
  void beginExecution(std::uint16_t taskId);

  // Hot path (armed only): one scratch-word access by the current
  // execution. `port` is meaningful only for PortScratch.
  void record(core::StatNamespace region, std::size_t port, std::size_t word,
              Access access);

  // Folds the trailing execution; call once the run is over (conflicts()
  // and divergences() do it implicitly).
  void flush();

  // One cross-task overlap with a plain writer involved. `taskA` is a
  // plain-writing task; kinds are kReadBit/kWriteBit/kRmwBit masks of every
  // execution shape each task exhibited on the word.
  struct ObservedConflict {
    std::uint16_t address = 0;  // virtual address (region base + word)
    bool perPort = false;
    std::uint32_t port = 0;
    std::uint16_t taskA = 0;
    std::uint16_t taskB = 0;
    std::uint8_t kindsA = 0;
    std::uint8_t kindsB = 0;

    bool lostUpdate() const { return (kindsB & kRmwBit) != 0; }
    std::string describe() const;
  };

  std::vector<ObservedConflict> conflicts();

  // Observed conflicts NOT covered by a static finding on the same address
  // and task-id pair — static false negatives, described one per line.
  // Benign matrix entries do not excuse an observed conflict: "proven
  // disjoint" words must never actually collide.
  std::vector<std::string> divergences(
      const core::InterferenceReport& report,
      std::span<const core::EffectSummary> tasks);

  std::uint64_t accesses() const { return accesses_; }
  void clear();

 private:
  struct WordKey {
    bool perPort = false;
    std::uint32_t port = 0;
    std::uint32_t word = 0;
    auto operator<=>(const WordKey&) const = default;
  };
  struct Pending {
    WordKey key;
    std::uint8_t flags = 0;  // 1 = read, 2 = write (within this execution)
  };

  bool inExecution_ = false;
  std::uint16_t currentTask_ = 0;
  std::vector<Pending> pending_;
  // Word history: which folded kinds each task has exhibited on the word.
  std::map<WordKey, std::vector<std::pair<std::uint16_t, std::uint8_t>>>
      words_;
  std::uint64_t accesses_ = 0;
};

}  // namespace tpp::asic
