// Golden-trace scenarios: small, fully deterministic app runs whose
// serialized flight-recorder output is checked in under tests/golden/ and
// compared byte-for-byte by test_golden.cpp. regen_golden.cpp rewrites the
// files from the same definitions, so test and regenerator cannot drift.
//
// Determinism contract: everything below is driven by the simulator clock
// and fixed seeds — no wall clock, no unordered iteration, no environment.
// Goldens are pinned to the gcc CI leg; clang may fuse floating-point math
// differently in the rate/time conversions, so the clang leg excludes the
// `golden` label rather than chasing last-ulp differences.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tpp::test {

// Scenario names, in regeneration order: "microburst", "rcpstar", "ndb".
const std::vector<std::string>& goldenScenarioNames();

// Runs one scenario and returns the serialized trace (tpptrace format).
// Aborts on an unknown name.
std::vector<std::uint8_t> runGoldenScenario(const std::string& name);

// "<name>.tpptrace" — the filename a scenario's golden is stored under.
std::string goldenFileName(const std::string& name);

}  // namespace tpp::test
