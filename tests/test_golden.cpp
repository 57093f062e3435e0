// Golden-trace regression suite (`ctest -L golden`): each scenario in
// golden_scenarios.cpp must reproduce its checked-in trace byte-for-byte.
// Any intentional change to trace content (new record sites, new kinds,
// event-ordering changes) shows up here first; refresh the files with
//     cmake --build build -t regen-golden
// and review the diff like any other source change.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/sim/trace.hpp"
#include "tests/golden_scenarios.hpp"

namespace tpp::test {
namespace {

std::vector<std::uint8_t> readFile(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = static_cast<bool>(in);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class GoldenTrace : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenTrace, MatchesCheckedInBytes) {
  if (!sim::kTraceCompiledIn) GTEST_SKIP() << "built with TPP_TRACE=OFF";
  const std::string name = GetParam();
  const auto produced = runGoldenScenario(name);

  // Whatever else, the scenario's own output must be a clean trace image.
  const auto decodedProduced = sim::decodeTrace(produced);
  ASSERT_TRUE(decodedProduced.ok) << decodedProduced.error;
  ASSERT_FALSE(decodedProduced.records.empty());
  EXPECT_EQ(decodedProduced.overwritten, 0u)
      << "scenario outgrew the golden ring; shorten it or enlarge "
         "kGoldenRing (and regen)";

  bool ok = false;
  const std::string path =
      std::string(TPP_GOLDEN_DIR) + "/" + goldenFileName(name);
  const auto golden = readFile(path, ok);
  ASSERT_TRUE(ok) << "missing golden file " << path
                  << " — run: cmake --build build -t regen-golden";

  if (produced != golden) {
    const auto decodedGolden = sim::decodeTrace(golden);
    FAIL() << "trace for \"" << name << "\" diverged from " << path << "\n"
           << "  produced: " << produced.size() << " bytes, "
           << decodedProduced.records.size() << " records\n"
           << "  golden:   " << golden.size() << " bytes, "
           << decodedGolden.records.size() << " records\n"
           << "If the change is intentional: cmake --build build -t "
              "regen-golden, then review the diff.";
  }
}

// Same scenario, run twice in one process: guards against hidden global
// state (statics, leaked registrations) making goldens order-dependent.
TEST_P(GoldenTrace, RerunIsBitStable) {
  if (!sim::kTraceCompiledIn) GTEST_SKIP() << "built with TPP_TRACE=OFF";
  const std::string name = GetParam();
  EXPECT_EQ(runGoldenScenario(name), runGoldenScenario(name));
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenTrace,
                         ::testing::ValuesIn(goldenScenarioNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace tpp::test
