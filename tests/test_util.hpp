// Shared test helpers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/sim/random.hpp"

namespace tpp::test {

// The chaos/golden suites derive all randomness from TPP_CHAOS_SEED so a
// failing seed reproduces bit-for-bit:
//     TPP_CHAOS_SEED=<seed> ctest -L chaos
// A malformed value is a hard error, not a silent fallback to some default
// seed — "reproducing" under the wrong seed is worse than failing loudly.
inline std::uint64_t chaosSeed(std::uint64_t defaultSeed = 1) {
  const char* s = std::getenv("TPP_CHAOS_SEED");
  if (s == nullptr || *s == '\0') return defaultSeed;
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "TPP_CHAOS_SEED=\"%s\" is not a number\n", s);
    std::abort();
  }
  return seed;
}

// Random programs biased toward plausible switch addresses so a useful
// fraction passes verification; the rest exercises the rejection paths.
inline core::Program randomCandidateProgram(sim::Rng& rng) {
  using core::Opcode;
  namespace addr = core::addr;
  static constexpr std::uint16_t kPool[] = {
      addr::SwitchId,       addr::QueueBytes,  addr::TimeLo,
      addr::LinkCapacityMbps, addr::MatchedEntryId, addr::InputPort,
      addr::TxUtilization,  addr::PortQueueBytes, addr::RcpRateRegister,
      core::kSramBase,      core::kSramBase + 9, core::kPortScratchBase + 3,
  };
  core::ProgramBuilder b;
  const auto instrs = rng.uniformInt(0, 8);
  for (std::int64_t i = 0; i < instrs; ++i) {
    const auto op = static_cast<Opcode>(rng.uniformInt(0, 10));
    auto addr16 = rng.bernoulli(0.85)
                      ? kPool[rng.uniformInt(0, std::size(kPool) - 1)]
                      : static_cast<std::uint16_t>(rng.uniformInt(0, 0xffff));
    auto off = static_cast<std::uint8_t>(rng.uniformInt(0, 12));
    if (op == Opcode::Nop) {
      addr16 = 0;
      off = 0;
    }
    if (op == Opcode::Push || op == Opcode::Pop) off = 0;
    b.raw({op, addr16, off});
  }
  b.task(static_cast<std::uint16_t>(rng.uniformInt(0, 3)));
  if (rng.bernoulli(0.3)) {
    b.mode(core::AddressingMode::Hop);
    b.perHop(static_cast<std::uint8_t>(rng.uniformInt(1, 4)));
  }
  b.reserve(static_cast<std::uint8_t>(rng.uniformInt(0, 32)));
  return *b.build();
}

}  // namespace tpp::test
