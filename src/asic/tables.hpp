// Forwarding tables (paper Fig 3: "L2, L3, TCAM").
//
// Every entry carries a stable id and a version stamp; the id the pipeline
// exposes to TPPs via PacketMetadata:MatchedEntryID packs both —
// (version << 16) | id — which is exactly the stamp ndb needs to detect
// control-plane/dataplane divergence (§2.3).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/net/ipv4.hpp"
#include "src/net/mac_address.hpp"

namespace tpp::asic {

inline std::uint32_t packEntryId(std::uint16_t id, std::uint16_t version) {
  return (static_cast<std::uint32_t>(version) << 16) | id;
}

// The pipeline's ECMP flow hash (FNV-1a 64 over header fields, one
// little-endian u64 per field). Public so path predictors — the ECMP
// property tests and host::PathOracle — compute the exact hash the
// dataplane will use, rather than re-guessing its mixing order.
class FlowHasher {
 public:
  FlowHasher& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// The hash of a full UDP/IPv4 5-tuple — what every TCP-over-UDP segment
// and TPP probe of a given flow hashes to on every switch.
inline std::uint64_t ecmpFlowHash(net::Ipv4Address src, net::Ipv4Address dst,
                                  std::uint8_t protocol,
                                  std::uint16_t srcPort,
                                  std::uint16_t dstPort) {
  return FlowHasher()
      .mix(src.value())
      .mix(dst.value())
      .mix(protocol)
      .mix(srcPort)
      .mix(dstPort)
      .value();
}

struct MatchResult {
  std::size_t outPort = 0;
  std::uint32_t entryId = 0;     // packed (version << 16) | id
  std::uint32_t altRoutes = 0;   // other entries that also match
  std::optional<std::uint8_t> queueId;  // TCAM action may pick a queue
  bool drop = false;             // TCAM action may drop
  std::uint32_t table = 0;       // filled by the pipeline: 1=L2 2=L3 3=TCAM
};

// Exact-match MAC table.
class L2Table {
 public:
  // Adds or updates; updating bumps the entry's version and the table's.
  void add(const net::MacAddress& mac, std::size_t port);
  bool remove(const net::MacAddress& mac);
  std::optional<MatchResult> match(const net::MacAddress& dst) const;
  std::uint16_t version() const { return version_; }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::size_t port;
    std::uint16_t id;
    std::uint16_t version;
  };
  std::unordered_map<net::MacAddress, Entry> entries_;
  std::uint16_t nextId_ = 1;
  std::uint16_t version_ = 0;
};

// Longest-prefix-match IPv4 table with ECMP multipath: an entry may carry
// several equal-cost next-hop ports; the pipeline picks one by flow hash so
// a flow's packets stay on one path while flows spread across paths.
//
// One flat open-addressing hash table keyed by (masked prefix, length):
// linear probing, power-of-two capacity, load at most 1/2, backward-shift
// deletion (no tombstones). A 33-bit mask records which lengths are in use,
// so `match` costs one probe per occupied length — not one compare per
// entry — and an insert costs amortized O(1).
class L3LpmTable {
 public:
  // prefixLen in [0,32]. Re-adding a prefix updates it and bumps versions.
  void add(net::Ipv4Address prefix, std::uint8_t prefixLen, std::size_t port);
  // ECMP variant: all of `ports` are equal-cost next hops.
  void addMultipath(net::Ipv4Address prefix, std::uint8_t prefixLen,
                    std::vector<std::size_t> ports);
  bool remove(net::Ipv4Address prefix, std::uint8_t prefixLen);
  // `flowHash` selects among equal-cost ports (ignored for single-path
  // entries). altRoutes counts both unused ECMP siblings and shorter
  // covering prefixes.
  std::optional<MatchResult> match(net::Ipv4Address dst,
                                   std::uint64_t flowHash = 0) const;
  std::uint16_t version() const { return version_; }
  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint8_t kFree = 0xff;  // Slot::len of an empty slot
  struct Slot {
    std::uint32_t prefix = 0;  // already masked
    std::uint32_t portOff = 0;  // run of `portCount` ports in ports_
    std::uint32_t portCount = 0;  // >= 1 equal-cost next hops
    std::uint16_t id = 0;
    std::uint16_t version = 0;
    std::uint8_t len = kFree;
  };
  static std::uint32_t maskOf(std::uint8_t len) {
    return len == 0 ? 0 : ~std::uint32_t{0} << (32 - len);
  }
  std::size_t home(std::uint32_t prefix, std::uint8_t len) const;
  // Index of the slot holding (prefix, len), or of the free slot that ends
  // its probe run.
  std::size_t find(std::uint32_t prefix, std::uint8_t len) const;
  void insert(std::uint32_t prefix, std::uint8_t len,
              const std::size_t* ports, std::size_t count);
  void grow();
  void compactPorts();

  std::vector<Slot> slots_;  // capacity is zero or a power of two
  std::vector<std::size_t> ports_;  // every entry's ECMP run, back to back
  std::size_t deadPorts_ = 0;  // ports_ words no entry refers to any more
  std::size_t size_ = 0;
  std::uint64_t lengths_ = 0;  // bit L set <=> some entry has length L
  std::uint32_t perLength_[33] = {};  // entries per prefix length
  std::uint16_t nextId_ = 1;
  std::uint16_t version_ = 0;
};

// Ternary match over (dstMac, etherType, ipSrc, ipDst, ipProto), highest
// priority wins. This is where SDN-style flow rules live in the ndb
// experiments.
struct TcamKey {
  std::optional<net::MacAddress> dstMac;
  std::optional<std::uint16_t> etherType;
  std::optional<std::pair<net::Ipv4Address, std::uint8_t>> ipSrc;  // pfx,len
  std::optional<std::pair<net::Ipv4Address, std::uint8_t>> ipDst;
  std::optional<std::uint8_t> ipProto;
};

struct TcamAction {
  std::size_t outPort = 0;
  std::optional<std::uint8_t> queueId;
  bool drop = false;
};

class Tcam {
 public:
  struct PacketFields {
    net::MacAddress dstMac;
    std::uint16_t etherType = 0;
    std::optional<net::Ipv4Address> ipSrc;
    std::optional<net::Ipv4Address> ipDst;
    std::optional<std::uint8_t> ipProto;
  };

  // Returns the entry's stable id. Higher priority wins ties.
  std::uint16_t add(TcamKey key, TcamAction action, std::int32_t priority);
  bool remove(std::uint16_t id);
  // Rewrites an entry in place (bumps its version) — the "forwarding rules
  // change constantly" scenario of §2.3.
  bool update(std::uint16_t id, TcamAction action);
  std::optional<MatchResult> match(const PacketFields& fields) const;
  std::uint16_t version() const { return version_; }
  std::size_t size() const { return entries_.size(); }
  // The packed (version<<16)|id this entry currently exposes; nullopt if
  // the id is unknown. The control plane records this as its intent.
  std::optional<std::uint32_t> packedId(std::uint16_t id) const;

 private:
  struct Entry {
    TcamKey key;
    TcamAction action;
    std::int32_t priority;
    std::uint16_t id;
    std::uint16_t version;
  };
  static bool matches(const TcamKey& key, const PacketFields& fields);
  std::vector<Entry> entries_;  // sorted by descending priority
  std::uint16_t nextId_ = 1;
  std::uint16_t version_ = 0;
};

}  // namespace tpp::asic
