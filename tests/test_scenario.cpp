// Scenario library tests: flow-size sampler statistics, the config
// parser's round-trip/rejection/fuzz contracts, and the schedule
// compiler's determinism (ISSUE 9 satellites 2 and 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/random.hpp"
#include "src/workload/flow_size.hpp"
#include "src/workload/scenario.hpp"

namespace tpp::workload {
namespace {

// ------------------------------------------------------ flow-size sampler

// 100k draws' empirical mean must sit within 5% of the analytic mean of
// the piecewise CDF (both production mixes are bounded, so the sample
// mean converges fast despite the heavy tail).
TEST(FlowSizeSampler, EmpiricalMeanMatchesAnalytic) {
  for (const FlowSizeDist dist :
       {FlowSizeDist::WebSearch, FlowSizeDist::DataMining,
        FlowSizeDist::Pareto}) {
    const FlowSizeSampler sampler(dist);
    sim::Rng rng(12345);
    constexpr int kDraws = 100'000;
    double sum = 0;
    for (int i = 0; i < kDraws; ++i) {
      sum += static_cast<double>(sampler.draw(rng));
    }
    const double empirical = sum / kDraws;
    const double analytic = sampler.meanBytes();
    EXPECT_NEAR(empirical / analytic, 1.0, 0.05)
        << flowSizeDistName(dist) << ": empirical " << empirical
        << " vs analytic " << analytic;
  }
}

// Empirical CDF quantiles of the draws must match the configured CDF's
// inverse within a tolerance that accounts for interpolation granularity.
TEST(FlowSizeSampler, EmpiricalQuantilesMatchConfiguredCdf) {
  const FlowSizeSampler sampler(FlowSizeDist::WebSearch);
  sim::Rng rng(777);
  constexpr int kDraws = 100'000;
  std::vector<double> draws;
  draws.reserve(kDraws);
  for (int i = 0; i < kDraws; ++i) {
    draws.push_back(static_cast<double>(sampler.draw(rng)));
  }
  std::sort(draws.begin(), draws.end());
  for (const double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double empirical = draws[static_cast<std::size_t>(q * (kDraws - 1))];
    const double expected = sampler.quantileBytes(q);
    EXPECT_NEAR(empirical / expected, 1.0, 0.10)
        << "q=" << q << ": empirical " << empirical << " vs inverse-CDF "
        << expected;
  }
}

// The data-mining mix's signature: half of all flows are exactly one
// 1460-byte packet (the point mass two equal-size CDF knots encode).
TEST(FlowSizeSampler, DataMiningPointMassAtOnePacket) {
  const FlowSizeSampler sampler(FlowSizeDist::DataMining);
  sim::Rng rng(31337);
  constexpr int kDraws = 100'000;
  int onePacket = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (sampler.draw(rng) == 1460) ++onePacket;
  }
  const double frac = static_cast<double>(onePacket) / kDraws;
  EXPECT_NEAR(frac, 0.5, 0.02);
}

// Fixed seed => byte-identical draw sequence on a rerun, and exactly one
// uniform consumed per draw regardless of distribution (swapping the dist
// must not desynchronize later draws from the same stream).
TEST(FlowSizeSampler, DeterministicAcrossRerunsAndOneDrawPerSample) {
  const FlowSizeSampler ws(FlowSizeDist::WebSearch);
  std::vector<std::uint64_t> first;
  for (int run = 0; run < 2; ++run) {
    sim::Rng rng(4242);
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 1000; ++i) draws.push_back(ws.draw(rng));
    if (run == 0) first = draws;
    else EXPECT_EQ(first, draws);
  }

  // One uniform per draw: interleaving a websearch draw with a fixed draw
  // leaves the stream exactly where two websearch draws would.
  const FlowSizeSampler fixed(FlowSizeDist::Fixed, 1.0, 1024);
  sim::Rng a(99), b(99);
  (void)ws.draw(a);
  (void)ws.draw(a);
  (void)ws.draw(b);
  (void)fixed.draw(b);
  EXPECT_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(FlowSizeSampler, ScaleMultipliesSizesAndMean) {
  const FlowSizeSampler full(FlowSizeDist::WebSearch, 1.0);
  const FlowSizeSampler scaled(FlowSizeDist::WebSearch, 0.02);
  EXPECT_NEAR(scaled.meanBytes(), full.meanBytes() * 0.02, 1e-6);
  EXPECT_NEAR(scaled.quantileBytes(0.9), full.quantileBytes(0.9) * 0.02,
              1e-6);
}

TEST(FlowSizeSampler, NameRoundTrip) {
  for (const FlowSizeDist dist :
       {FlowSizeDist::WebSearch, FlowSizeDist::DataMining,
        FlowSizeDist::Pareto, FlowSizeDist::Fixed}) {
    FlowSizeDist back{};
    ASSERT_TRUE(flowSizeDistFromName(flowSizeDistName(dist), back));
    EXPECT_EQ(back, dist);
  }
  FlowSizeDist out{};
  EXPECT_FALSE(flowSizeDistFromName("weibull", out));
  EXPECT_FALSE(flowSizeDistFromName("", out));
}

// -------------------------------------------------------- parser contract

ScenarioConfig nonDefaultConfig() {
  ScenarioConfig c;
  c.name = "rt-test_1.x";
  c.seed = 987654321;
  c.horizonMs = 2.5;
  c.topology = TopologyType::FatTree;
  c.k = 16;
  c.nodes = 7;
  c.linkGbps = 40.0;
  c.linkDelayUs = 1.25;
  c.bufferKb = 64;
  c.ecnThresholdKb = 32;
  c.pattern = TrafficPattern::Incast;
  c.sizeDist = FlowSizeDist::DataMining;
  c.sizeScale = 0.031;
  c.fixedKb = 48;
  c.load = 0.35;
  c.flowsPerSec = 12345.5;
  c.maxFlows = 999;
  c.participants = 120;
  c.mss = 1400;
  c.fanin = 17;
  c.periodUs = 333.25;
  c.rounds = 9;
  c.staggerUs = 7.75;
  c.tppController = true;
  c.queueThresholdKb = 48;
  c.maxControllers = 21;
  c.dropRate = 0.001;
  c.corruptRate = 0.0005;
  c.queueSampleUs = 77.5;
  return c;
}

TEST(ScenarioParser, RoundTripIsExact) {
  const ScenarioConfig original = nonDefaultConfig();
  const std::string text = serializeScenario(original);
  const ParsedScenario once = parseScenario(text);
  ASSERT_TRUE(once.ok) << once.error;
  EXPECT_EQ(once.config, original);
  // And the canonical form is a fixed point: serialize(parse(s)) == s.
  EXPECT_EQ(serializeScenario(once.config), text);
}

TEST(ScenarioParser, DefaultsRoundTrip) {
  const ParsedScenario parsed = parseScenario(serializeScenario({}));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.config, ScenarioConfig{});
}

TEST(ScenarioParser, AcceptsCommentsAndWhitespace) {
  const ParsedScenario p = parseScenario(
      "# leading comment\n"
      "\n"
      "[scenario]\n"
      "  name = spaced   # trailing comment\n"
      "\tseed\t=\t5\n"
      "[topology]\n"
      "type = star\n"
      "nodes = 4\n");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.config.name, "spaced");
  EXPECT_EQ(p.config.seed, 5u);
  EXPECT_EQ(p.config.topology, TopologyType::Star);
}

// Every rejection must carry the offending line number.
struct RejectCase {
  const char* label;
  const char* text;
  const char* wantError;  // substring, including the "line N:" prefix
};

// Names the case; the default printer would dump its pointers' bytes.
void PrintTo(const RejectCase& rc, std::ostream* os) { *os << rc.label; }

class ScenarioParserReject : public ::testing::TestWithParam<RejectCase> {};

TEST_P(ScenarioParserReject, RejectsWithLineNumber) {
  const RejectCase& rc = GetParam();
  const ParsedScenario p = parseScenario(rc.text);
  EXPECT_FALSE(p.ok) << rc.label;
  EXPECT_NE(p.error.find(rc.wantError), std::string::npos)
      << rc.label << ": got '" << p.error << "', want substring '"
      << rc.wantError << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Rejections, ScenarioParserReject,
    ::testing::Values(
        RejectCase{"unknown_section", "[scenario]\nseed = 1\n[bogus]\n",
                   "line 3: unknown section"},
        RejectCase{"unknown_key", "[scenario]\nname = x\nfrobnicate = 7\n",
                   "line 3: unknown key 'frobnicate'"},
        RejectCase{"key_before_section", "seed = 1\n",
                   "line 1: 'seed' before any [section]"},
        RejectCase{"malformed_line", "[scenario]\nthis is not a kv pair\n",
                   "line 2: expected 'key = value'"},
        RejectCase{"non_numeric", "[scenario]\nseed = banana\n",
                   "line 2: seed: not an integer"},
        RejectCase{"odd_k", "[topology]\nk = 7\n",
                   "line 2: k: fat-tree arity must be even"},
        RejectCase{"k_out_of_range", "[topology]\nk = 64\n",
                   "line 2: k: 64 out of range"},
        RejectCase{"bad_float", "[topology]\nlink_gbps = fast\n",
                   "line 2: link_gbps: not a number"},
        RejectCase{"negative_load", "[workload]\nload = -0.5\n",
                   "line 2: load: value out of range"},
        RejectCase{"bad_pattern", "[workload]\npattern = blizzard\n",
                   "line 2: pattern: expected poisson|incast|shuffle"},
        RejectCase{"bad_dist", "[workload]\nsize_dist = weibull\n",
                   "line 2: size_dist: expected"},
        RejectCase{"bad_bool", "[tpp]\ncontroller = maybe\n",
                   "line 2: controller: expected on|off"},
        RejectCase{"drop_rate_too_high", "[faults]\ndrop_rate = 0.9\n",
                   "line 2: drop_rate: value out of range"},
        RejectCase{"max_flows_cap", "[workload]\nmax_flows = 100000\n",
                   "line 2: max_flows: 100000 out of range"},
        RejectCase{"bad_name_chars", "[scenario]\nname = a b\n",
                   "line 2: name: only"},
        RejectCase{"unterminated_section", "[scenario\n",
                   "line 1: unterminated section header"},
        RejectCase{"shards_must_be_one", "[scenario]\nshards = 2\n",
                   "line 2: shards must be 1"},
        RejectCase{"participants_exceed_hosts",
                   "[topology]\ntype = fattree\nk = 4\n[workload]\n"
                   "participants = 999\n",
                   "line 5: participants: 999 exceeds"},
        RejectCase{"fanin_exceeds_senders",
                   "[topology]\ntype = star\nnodes = 4\n[workload]\n"
                   "pattern = incast\nfanin = 10\n",
                   "line 6: fanin: 10 exceeds"},
        RejectCase{"shuffle_exceeds_max_flows",
                   "[topology]\ntype = fattree\nk = 8\n[workload]\n"
                   "pattern = shuffle\nmax_flows = 50\nparticipants = 16\n",
                   "line 6: shuffle needs"}),
    [](const ::testing::TestParamInfo<RejectCase>& info) {
      return info.param.label;
    });

// Garbage input must never crash or hang — only ok=false with an error
// (run under the asan/ubsan legs, this is the memory-safety fuzz of
// satellite 3). Deterministic LCG so failures reproduce.
TEST(ScenarioParserFuzz, GarbageInputsNeverCrash) {
  std::uint64_t state = 0x243F6A8885A308D3ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const char alphabet[] =
      "[]=#\n\t .-_abcdefghijklmnopqrstuvwxyz0123456789\xff\x00\x80";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text;
    const std::size_t len = next() % 200;
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[next() % (sizeof alphabet - 1)]);
    }
    const ParsedScenario p = parseScenario(text);
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty());
      EXPECT_EQ(p.error.rfind("line ", 0), 0u) << "error: " << p.error;
    }
  }
  // Mutations of a valid config: flip bytes of the canonical serialization.
  const std::string base = serializeScenario({});
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text = base;
    const int flips = 1 + static_cast<int>(next() % 8);
    for (int i = 0; i < flips; ++i) {
      text[next() % text.size()] =
          alphabet[next() % (sizeof alphabet - 1)];
    }
    (void)parseScenario(text);  // must not crash; ok either way
  }
}

// ----------------------------------------------------- schedule compiler

TEST(CompileSchedule, DeterministicAndInsideHorizon) {
  ScenarioConfig c;
  c.topology = TopologyType::FatTree;
  c.k = 4;
  c.seed = 5;
  c.horizonMs = 2.0;
  c.flowsPerSec = 50000;
  c.maxFlows = 200;
  const std::vector<FlowPlan> a = compileSchedule(c);
  const std::vector<FlowPlan> b = compileSchedule(c);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  const sim::Time horizon = sim::Time::seconds(c.horizonMs * 1e-3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_NE(a[i].src, a[i].dst);
    EXPECT_LT(a[i].arrival, horizon);
    EXPECT_GE(a[i].bytes, 1u);
  }
}

TEST(CompileSchedule, IncastTargetsOneReceiver) {
  ScenarioConfig c;
  c.topology = TopologyType::FatTree;
  c.k = 4;
  c.pattern = TrafficPattern::Incast;
  c.sizeDist = FlowSizeDist::Fixed;
  c.fixedKb = 16;
  c.fanin = 8;
  c.rounds = 3;
  const std::vector<FlowPlan> plans = compileSchedule(c);
  ASSERT_EQ(plans.size(), 24u);
  const std::size_t receiver = plans[0].dst;
  for (const FlowPlan& p : plans) {
    EXPECT_EQ(p.dst, receiver);
    EXPECT_NE(p.src, receiver);
    EXPECT_EQ(p.bytes, 16u * 1024);
  }
}

TEST(CompileSchedule, ShuffleCoversAllOrderedPairs) {
  ScenarioConfig c;
  c.topology = TopologyType::FatTree;
  c.k = 4;
  c.pattern = TrafficPattern::Shuffle;
  c.participants = 6;
  c.maxFlows = 64;
  const std::vector<FlowPlan> plans = compileSchedule(c);
  EXPECT_EQ(plans.size(), 6u * 5u);
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (const FlowPlan& p : plans) pairs.insert({p.src, p.dst});
  EXPECT_EQ(pairs.size(), plans.size()) << "duplicate (src,dst) pair";
}

// Participant selection spreads across the topology (it is pure index
// arithmetic).
TEST(CompileSchedule, ParticipantsSpreadAcrossPods) {
  ScenarioConfig c;
  c.topology = TopologyType::FatTree;
  c.k = 8;  // 128 hosts, 32 per... 16 pods? (k=8: 16 hosts/pod)
  c.participants = 16;
  const std::vector<std::size_t> hosts = c.participantHosts();
  ASSERT_EQ(hosts.size(), 16u);
  // k=8: 16 hosts per pod; stride 8 puts two participants in each pod.
  std::set<std::size_t> pods;
  for (const std::size_t h : hosts) pods.insert(h / 16);
  EXPECT_EQ(pods.size(), 8u);
}

}  // namespace
}  // namespace tpp::workload
