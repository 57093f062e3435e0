// The original L3 longest-prefix-match table — a vector kept sorted by
// descending prefix length and scanned in full on every match — kept as
// the differential oracle for asic::L3LpmTable (test_lpm_differential.cpp).
// Its behaviour is the specification: ports, entry ids, version stamps and
// altRoutes of the hashed table must agree with it after every operation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/asic/tables.hpp"

namespace tpp::test {

class LinearLpmTable {
 public:
  void add(net::Ipv4Address prefix, std::uint8_t prefixLen,
           std::size_t port) {
    addMultipath(prefix, prefixLen, {port});
  }

  void addMultipath(net::Ipv4Address prefix, std::uint8_t prefixLen,
                    std::vector<std::size_t> ports) {
    if (ports.empty()) return;
    ++version_;
    const std::uint32_t masked = prefix.value() & maskOf(prefixLen);
    for (auto& e : entries_) {
      if (e.prefix == masked && e.len == prefixLen) {
        e.ports = std::move(ports);
        ++e.version;
        return;
      }
    }
    entries_.push_back(
        Entry{masked, prefixLen, std::move(ports), nextId_++, 1});
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.len > b.len;
                     });
  }

  bool remove(net::Ipv4Address prefix, std::uint8_t prefixLen) {
    const std::uint32_t masked = prefix.value() & maskOf(prefixLen);
    const auto n = std::erase_if(entries_, [&](const Entry& e) {
      return e.prefix == masked && e.len == prefixLen;
    });
    if (n == 0) return false;
    ++version_;
    return true;
  }

  std::optional<asic::MatchResult> match(net::Ipv4Address dst,
                                         std::uint64_t flowHash = 0) const {
    const Entry* best = nullptr;
    std::uint32_t alternates = 0;
    for (const auto& e : entries_) {  // sorted by descending length
      if ((dst.value() & maskOf(e.len)) == e.prefix) {
        if (best == nullptr) {
          best = &e;
        } else {
          ++alternates;  // shorter prefixes that also cover dst
        }
      }
    }
    if (best == nullptr) return std::nullopt;
    asic::MatchResult r;
    r.outPort = best->ports[flowHash % best->ports.size()];
    r.entryId = asic::packEntryId(best->id, best->version);
    r.altRoutes =
        alternates + static_cast<std::uint32_t>(best->ports.size() - 1);
    return r;
  }

  std::uint16_t version() const { return version_; }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint32_t prefix;  // already masked
    std::uint8_t len;
    std::vector<std::size_t> ports;  // >= 1 equal-cost next hops
    std::uint16_t id;
    std::uint16_t version;
  };
  static std::uint32_t maskOf(std::uint8_t len) {
    return len == 0 ? 0 : ~std::uint32_t{0} << (32 - len);
  }
  std::vector<Entry> entries_;  // kept sorted by descending prefix length
  std::uint16_t nextId_ = 1;
  std::uint16_t version_ = 0;
};

}  // namespace tpp::test
