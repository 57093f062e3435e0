// Differential test: asic::L3LpmTable (hashed) against the linear sorted
// table it replaced (tests/linear_lpm.hpp). Random add / addMultipath /
// re-add / remove / match sequences must give identical results after
// every step — ports, entry ids, version stamps, altRoutes, sizes and the
// return values of remove.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "src/asic/tables.hpp"
#include "tests/linear_lpm.hpp"

namespace tpp::asic {
namespace {

using net::Ipv4Address;
using test::LinearLpmTable;

::testing::AssertionResult sameMatch(const L3LpmTable& table,
                                     const LinearLpmTable& oracle,
                                     Ipv4Address dst, std::uint64_t hash) {
  const auto got = table.match(dst, hash);
  const auto want = oracle.match(dst, hash);
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << "dst " << dst.value() << ": hit " << got.has_value()
           << " vs oracle " << want.has_value();
  }
  if (got && (got->outPort != want->outPort ||
              got->entryId != want->entryId ||
              got->altRoutes != want->altRoutes)) {
    return ::testing::AssertionFailure()
           << "dst " << dst.value() << " hash " << hash << ": port "
           << got->outPort << "/" << want->outPort << " entry "
           << got->entryId << "/" << want->entryId << " alt "
           << got->altRoutes << "/" << want->altRoutes;
  }
  if (table.size() != oracle.size() || table.version() != oracle.version()) {
    return ::testing::AssertionFailure()
           << "size " << table.size() << "/" << oracle.size() << " version "
           << table.version() << "/" << oracle.version();
  }
  return ::testing::AssertionSuccess();
}

// Draws addresses near a small set of bases, so random prefixes overlap,
// cover one another and collide on re-add, and lengths weighted to the
// /0 defaults and /32 host routes a fat tree installs.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 24; ++i) {
      bases_.push_back(static_cast<std::uint32_t>(rng_()));
    }
  }
  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  std::uint64_t hash() { return rng_(); }
  Ipv4Address address() {
    if (below(8) == 0) return Ipv4Address{static_cast<std::uint32_t>(rng_())};
    const std::uint32_t base = bases_[below(bases_.size())];
    // Flip a few low bits: neighbours share every prefix down to ~/27.
    return Ipv4Address{base ^ static_cast<std::uint32_t>(below(32))};
  }
  std::uint8_t length() {
    const auto r = below(10);
    if (r < 3) return 32;
    if (r < 5) return 0;
    return static_cast<std::uint8_t>(below(33));
  }
  std::vector<std::size_t> ports(std::size_t maxCount) {
    std::vector<std::size_t> p(below(maxCount + 1));
    for (auto& v : p) v = below(64);
    return p;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::uint32_t> bases_;
};

TEST(L3LpmDifferential, MatchesLinearOracleOnRandomOps) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 17u, 101u, 4242u}) {
    Draw d(seed);
    L3LpmTable table;
    LinearLpmTable oracle;
    std::vector<std::pair<Ipv4Address, std::uint8_t>> added;
    for (int step = 0; step < 4000; ++step) {
      const auto op = d.below(20);
      if (op < 5) {  // add
        const auto pfx = d.address();
        const auto len = d.length();
        const auto port = d.below(64);
        table.add(pfx, len, port);
        oracle.add(pfx, len, port);
        added.emplace_back(pfx, len);
      } else if (op < 8) {  // addMultipath, empty port lists included
        const auto pfx = d.address();
        const auto len = d.length();
        const auto ports = d.ports(6);
        table.addMultipath(pfx, len, ports);
        oracle.addMultipath(pfx, len, ports);
        if (!ports.empty()) added.emplace_back(pfx, len);
      } else if (op < 10 && !added.empty()) {  // re-add, new port count
        const auto [pfx, len] = added[d.below(added.size())];
        const auto ports = d.ports(8);
        table.addMultipath(pfx, len, ports);
        oracle.addMultipath(pfx, len, ports);
      } else if (op < 12 && !added.empty()) {  // remove, maybe present
        const auto [pfx, len] = added[d.below(added.size())];
        ASSERT_EQ(table.remove(pfx, len), oracle.remove(pfx, len))
            << "seed " << seed << " step " << step;
      } else if (op < 13) {  // remove, almost surely absent
        const auto pfx = d.address();
        const auto len = d.length();
        ASSERT_EQ(table.remove(pfx, len), oracle.remove(pfx, len))
            << "seed " << seed << " step " << step;
      }
      // Every step ends in matches (op >= 13 is a match-only step).
      for (int m = 0; m < 2; ++m) {
        const auto dst = d.address();
        const auto hash = d.hash();
        ASSERT_TRUE(sameMatch(table, oracle, dst, hash))
            << "seed " << seed << " step " << step;
      }
    }
  }
}

// Grows through many resizes, then deletes most entries in random order,
// so long probe runs are broken up by backward-shift deletion.
TEST(L3LpmDifferential, GrowsThenDeletesMostEntries) {
  Draw d(77);
  L3LpmTable table;
  LinearLpmTable oracle;
  std::vector<std::pair<Ipv4Address, std::uint8_t>> keys;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    // Mostly host routes on consecutive addresses, some shorter prefixes
    // and defaults; every 7th is ECMP.
    const Ipv4Address pfx{0x0a000000u + i};
    const auto len = static_cast<std::uint8_t>(
        i % 5 == 0 ? d.length() : 32);
    if (i % 7 == 0) {
      const auto ports = d.ports(4);
      table.addMultipath(pfx, len, ports);
      oracle.addMultipath(pfx, len, ports);
    } else {
      table.add(pfx, len, i % 64);
      oracle.add(pfx, len, i % 64);
    }
    keys.emplace_back(pfx, len);
    const auto hash = d.hash();
    ASSERT_TRUE(sameMatch(table, oracle, pfx, hash)) << "insert " << i;
  }
  ASSERT_GT(table.size(), 2000u);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(5));
  for (std::size_t i = 0; i < keys.size() * 9 / 10; ++i) {
    const auto [pfx, len] = keys[i];
    ASSERT_EQ(table.remove(pfx, len), oracle.remove(pfx, len))
        << "delete " << i;
    const auto& probe = keys[d.below(keys.size())];
    ASSERT_TRUE(sameMatch(table, oracle, probe.first, d.hash()))
        << "delete " << i;
  }
  for (const auto& [pfx, len] : keys) {
    ASSERT_TRUE(sameMatch(table, oracle, pfx, d.hash()));
    ASSERT_TRUE(sameMatch(table, oracle,
                          Ipv4Address{pfx.value() ^ 1u}, d.hash()));
  }
}

}  // namespace
}  // namespace tpp::asic
