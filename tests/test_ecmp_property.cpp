// ECMP property suite (ISSUE 9 satellite 1): on k∈{8,16} fat trees, every
// flow's hash-selected path must be one of the analytic equal-cost
// shortest paths, selection must be deterministic across rebuilds, all
// uplinks must be hit given enough flows, and actual
// forwarded traffic must agree with the PathOracle's prediction.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/asic/tables.hpp"
#include "src/host/topology.hpp"
#include "src/sim/time.hpp"

namespace tpp::host {
namespace {

LinkParams testLink() { return {10'000'000'000ull, sim::Time::us(2)}; }

struct BuiltTree {
  std::unique_ptr<Testbed> tb;
  FatTreeIndex ix;
};

BuiltTree makeTree(std::size_t k) {
  BuiltTree t;
  t.tb = std::make_unique<Testbed>();
  t.ix = buildFatTree(*t.tb, k, testLink());
  return t;
}

// The analytic equal-cost path set between two hosts, as ordered switch
// index sequences derived purely from FatTreeIndex arithmetic:
//   same edge:   {edge}                                   (1 path)
//   same pod:    edge -> any agg -> edge'                 (r paths)
//   cross pod:   edge -> agg a -> core a*r+i -> agg' a -> edge'
//                                                         (r*r paths)
std::set<std::vector<std::size_t>> analyticPaths(const FatTreeIndex& ix,
                                                 std::size_t srcHost,
                                                 std::size_t dstHost) {
  const std::size_t r = ix.radix();
  const auto podOf = [&](std::size_t h) { return h / (r * r); };
  const auto edgeOf = [&](std::size_t h) { return (h / r) % r; };
  const std::size_t sp = podOf(srcHost), se = edgeOf(srcHost);
  const std::size_t dp = podOf(dstHost), de = edgeOf(dstHost);

  std::set<std::vector<std::size_t>> paths;
  if (sp == dp && se == de) {
    paths.insert({ix.edgeSw(sp, se)});
    return paths;
  }
  if (sp == dp) {
    for (std::size_t a = 0; a < r; ++a) {
      paths.insert({ix.edgeSw(sp, se), ix.aggSw(sp, a), ix.edgeSw(sp, de)});
    }
    return paths;
  }
  for (std::size_t a = 0; a < r; ++a) {
    for (std::size_t i = 0; i < r; ++i) {
      const std::size_t c = a * r + i;
      paths.insert({ix.edgeSw(sp, se), ix.aggSw(sp, a), ix.coreSw(c),
                    ix.aggSw(dp, a), ix.edgeSw(dp, de)});
    }
  }
  return paths;
}

std::vector<std::size_t> switchIndices(const Testbed& tb,
                                       const std::vector<PathOracle::Hop>& hops) {
  std::vector<std::size_t> out;
  out.reserve(hops.size());
  for (const auto& h : hops) {
    for (std::size_t s = 0; s < tb.switchCount(); ++s) {
      if (&const_cast<Testbed&>(tb).sw(s) == h.sw) {
        out.push_back(s);
        break;
      }
    }
  }
  return out;
}

class EcmpProperty : public ::testing::TestWithParam<std::size_t> {};

// Every predicted path is a member of the analytic equal-cost set — for a
// spread of host pairs covering same-edge, same-pod and cross-pod cases
// and many flow 5-tuples.
TEST_P(EcmpProperty, PredictedPathIsAnEqualCostShortestPath) {
  const std::size_t k = GetParam();
  const BuiltTree t = makeTree(k);
  const PathOracle oracle(*t.tb);
  const std::size_t hosts = t.ix.hostCount();
  const std::size_t pairStride = hosts / 7 + 1;

  std::size_t checked = 0;
  for (std::size_t src = 0; src < hosts; src += pairStride) {
    for (std::size_t dst = 0; dst < hosts; dst += pairStride / 2 + 1) {
      if (src == dst) continue;
      const auto expected = analyticPaths(t.ix, src, dst);
      for (std::uint16_t port = 24000; port < 24008; ++port) {
        const auto hops =
            oracle.path(t.tb->host(src), t.tb->host(dst), port, 23000);
        ASSERT_FALSE(hops.empty())
            << "no path " << src << "->" << dst << " port " << port;
        EXPECT_TRUE(expected.count(switchIndices(*t.tb, hops)) == 1)
            << "predicted path not in the equal-cost set (" << src << "->"
            << dst << ", srcPort " << port << ")";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100u);
}

// The same 5-tuple maps to the same path on a rebuilt tree — path
// selection is pure (topology, flow hash).
TEST_P(EcmpProperty, SelectionDeterministicAcrossRebuilds) {
  const std::size_t k = GetParam();
  const BuiltTree a = makeTree(k);
  const BuiltTree b = makeTree(k);  // fresh build, same topology
  const PathOracle oa(*a.tb), ob(*b.tb);

  const std::size_t hosts = a.ix.hostCount();
  for (std::size_t f = 0; f < 64; ++f) {
    const std::size_t src = (f * 37) % hosts;
    std::size_t dst = (f * 53 + hosts / 2) % hosts;
    if (dst == src) dst = (dst + 1) % hosts;
    const auto port = static_cast<std::uint16_t>(24000 + f);
    const auto pa = switchIndices(
        *a.tb, oa.path(a.tb->host(src), a.tb->host(dst), port, 23000));
    const auto pb = switchIndices(
        *b.tb, ob.path(b.tb->host(src), b.tb->host(dst), port, 23000));
    ASSERT_FALSE(pa.empty());
    EXPECT_EQ(pa, pb) << "rebuild changed the path for flow " << f;
  }
}

// Given enough distinct flows between one cross-pod host pair, every edge
// uplink and every agg uplink of the source pod must be selected at least
// once — the hash actually spreads.
TEST_P(EcmpProperty, AllUplinksHitGivenEnoughFlows) {
  const std::size_t k = GetParam();
  const BuiltTree t = makeTree(k);
  const PathOracle oracle(*t.tb);
  const std::size_t r = t.ix.radix();

  const std::size_t src = t.ix.host(0, 0, 0);
  const std::size_t dst = t.ix.host(k - 1, r - 1, r - 1);
  std::set<std::size_t> aggsSeen;   // agg index chosen at the edge hop
  std::set<std::size_t> coresSeen;  // core chosen at the agg hop
  const std::size_t flows = 64 * r * r;  // coupon-collector headroom
  for (std::size_t f = 0; f < flows; ++f) {
    const auto hops = oracle.path(t.tb->host(src), t.tb->host(dst),
                                  static_cast<std::uint16_t>(20000 + f),
                                  static_cast<std::uint16_t>(23000 + (f & 7)));
    ASSERT_EQ(hops.size(), 5u);
    aggsSeen.insert(hops[0].outPort);   // edge uplink == agg choice
    coresSeen.insert(hops[1].outPort);  // agg uplink == core choice
  }
  EXPECT_EQ(aggsSeen.size(), r) << "some edge uplink never selected";
  EXPECT_EQ(coresSeen.size(), r) << "some agg uplink never selected";
}

INSTANTIATE_TEST_SUITE_P(FatTrees, EcmpProperty, ::testing::Values(8, 16),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "k" + std::to_string(i.param);
                         });

// Prediction equals reality: send one UDP datagram per flow across a k=8
// tree and check the packet transited exactly the predicted core (via
// per-switch rx counters — only the predicted core's counters move).
TEST(EcmpTraffic, ActualPacketsFollowPredictedPaths) {
  const std::size_t k = 8;
  BuiltTree t = makeTree(k);
  const PathOracle oracle(*t.tb);
  const std::size_t r = t.ix.radix();

  const std::size_t src = t.ix.host(0, 0, 0);
  const std::size_t dst = t.ix.host(k - 1, 0, 0);

  for (std::uint16_t f = 0; f < 16; ++f) {
    const std::uint16_t srcPort = 25000 + f;
    const auto hops =
        oracle.path(t.tb->host(src), t.tb->host(dst), srcPort, 26000);
    ASSERT_EQ(hops.size(), 5u);
    const std::size_t predictedCore = switchIndices(*t.tb, hops)[2];
    ASSERT_LT(predictedCore, t.ix.coreCount());

    std::vector<std::uint64_t> before(t.ix.coreCount());
    for (std::size_t c = 0; c < t.ix.coreCount(); ++c) {
      before[c] = t.tb->sw(t.ix.coreSw(c)).stats().totalRxPackets;
    }
    const std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    t.tb->host(src).sendUdp(t.tb->host(dst).mac(), t.tb->host(dst).ip(),
                            srcPort, 26000, payload);
    t.tb->run(t.tb->sim().now() + sim::Time::ms(1));

    for (std::size_t c = 0; c < t.ix.coreCount(); ++c) {
      const std::uint64_t delta =
          t.tb->sw(t.ix.coreSw(c)).stats().totalRxPackets - before[c];
      if (c == predictedCore) {
        EXPECT_EQ(delta, 1u) << "flow " << f << " missed predicted core";
      } else {
        EXPECT_EQ(delta, 0u)
            << "flow " << f << " transited unpredicted core " << c;
      }
    }
  }
  (void)r;
}

}  // namespace
}  // namespace tpp::host
