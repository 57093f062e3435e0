#include "src/asic/tables.hpp"

#include <algorithm>
#include <bit>

namespace tpp::asic {

// ---------------------------------------------------------------- L2Table

void L2Table::add(const net::MacAddress& mac, std::size_t port) {
  ++version_;
  auto it = entries_.find(mac);
  if (it != entries_.end()) {
    it->second.port = port;
    ++it->second.version;
    return;
  }
  entries_.emplace(mac, Entry{port, nextId_++, 1});
}

bool L2Table::remove(const net::MacAddress& mac) {
  if (entries_.erase(mac) == 0) return false;
  ++version_;
  return true;
}

std::optional<MatchResult> L2Table::match(const net::MacAddress& dst) const {
  const auto it = entries_.find(dst);
  if (it == entries_.end()) return std::nullopt;
  MatchResult r;
  r.outPort = it->second.port;
  r.entryId = packEntryId(it->second.id, it->second.version);
  r.altRoutes = 0;  // exact match: one way out
  return r;
}

// ------------------------------------------------------------- L3LpmTable

namespace {
constexpr std::size_t kMinSlots = 16;
}  // namespace

void L3LpmTable::add(net::Ipv4Address prefix, std::uint8_t prefixLen,
                     std::size_t port) {
  insert(prefix.value() & maskOf(prefixLen), prefixLen, &port, 1);
}

void L3LpmTable::addMultipath(net::Ipv4Address prefix,
                              std::uint8_t prefixLen,
                              std::vector<std::size_t> ports) {
  insert(prefix.value() & maskOf(prefixLen), prefixLen, ports.data(),
         ports.size());
}

std::size_t L3LpmTable::home(std::uint32_t prefix, std::uint8_t len) const {
  // Fibonacci hashing: the top bits of the product spread consecutive
  // host addresses evenly over the slots.
  const std::uint64_t key = (std::uint64_t{prefix} << 6) | len;
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                  (64 - std::countr_zero(slots_.size())));
}

std::size_t L3LpmTable::find(std::uint32_t prefix, std::uint8_t len) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(prefix, len);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.len == kFree || (s.prefix == prefix && s.len == len)) return i;
  }
}

void L3LpmTable::insert(std::uint32_t prefix, std::uint8_t len,
                        const std::size_t* ports, std::size_t count) {
  if (count == 0) return;
  ++version_;
  if ((size_ + 1) * 2 > slots_.size()) grow();
  Slot& s = slots_[find(prefix, len)];
  if (s.len != kFree) {  // re-add: same id, new port run, new version
    deadPorts_ += s.portCount;
    ++s.version;
  } else {
    s.prefix = prefix;
    s.id = nextId_++;
    s.version = 1;
    s.len = len;
    ++size_;
    ++perLength_[len];
    lengths_ |= std::uint64_t{1} << len;
  }
  s.portOff = static_cast<std::uint32_t>(ports_.size());
  s.portCount = static_cast<std::uint32_t>(count);
  ports_.insert(ports_.end(), ports, ports + count);
  if (deadPorts_ * 2 > ports_.size()) compactPorts();
}

void L3LpmTable::grow() {
  std::vector<Slot> old(std::max(kMinSlots, slots_.size() * 2));
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.len != kFree) slots_[find(s.prefix, s.len)] = s;
  }
}

void L3LpmTable::compactPorts() {
  std::vector<std::size_t> live;
  live.reserve(ports_.size() - deadPorts_);
  for (Slot& s : slots_) {
    if (s.len == kFree) continue;
    const auto off = static_cast<std::uint32_t>(live.size());
    live.insert(live.end(), ports_.begin() + s.portOff,
                ports_.begin() + s.portOff + s.portCount);
    s.portOff = off;
  }
  ports_ = std::move(live);
  deadPorts_ = 0;
}

bool L3LpmTable::remove(net::Ipv4Address prefix, std::uint8_t prefixLen) {
  if (size_ == 0) return false;
  std::size_t i = find(prefix.value() & maskOf(prefixLen), prefixLen);
  if (slots_[i].len == kFree) return false;
  ++version_;
  deadPorts_ += slots_[i].portCount;
  --size_;
  if (--perLength_[prefixLen] == 0) {
    lengths_ &= ~(std::uint64_t{1} << prefixLen);
  }
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless that would move it in front of its home slot.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].len != kFree;
       j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j].prefix, slots_[j].len);
    if (((j - h) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
  if (deadPorts_ * 2 > ports_.size()) compactPorts();
  return true;
}

std::optional<MatchResult> L3LpmTable::match(net::Ipv4Address dst,
                                             std::uint64_t flowHash) const {
  // Lengths in use, longest first: a key identifies at most one entry per
  // length, so the first hit is the longest match and every later hit is
  // exactly one shorter covering prefix.
  const Slot* best = nullptr;
  std::uint32_t alternates = 0;
  for (std::uint64_t left = lengths_; left != 0;) {
    const auto len = static_cast<std::uint8_t>(std::bit_width(left) - 1);
    left &= ~(std::uint64_t{1} << len);
    const Slot& s = slots_[find(dst.value() & maskOf(len), len)];
    if (s.len == kFree) continue;
    if (best == nullptr) {
      best = &s;
    } else {
      ++alternates;
    }
  }
  if (best == nullptr) return std::nullopt;
  MatchResult r;
  r.outPort = ports_[best->portOff + flowHash % best->portCount];
  r.entryId = packEntryId(best->id, best->version);
  r.altRoutes = alternates + best->portCount - 1;
  return r;
}

// ------------------------------------------------------------------- Tcam

std::uint16_t Tcam::add(TcamKey key, TcamAction action,
                        std::int32_t priority) {
  ++version_;
  const std::uint16_t id = nextId_++;
  entries_.push_back(Entry{std::move(key), action, priority, id, 1});
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.priority > b.priority;
                   });
  return id;
}

bool Tcam::remove(std::uint16_t id) {
  const auto n =
      std::erase_if(entries_, [&](const Entry& e) { return e.id == id; });
  if (n == 0) return false;
  ++version_;
  return true;
}

bool Tcam::update(std::uint16_t id, TcamAction action) {
  for (auto& e : entries_) {
    if (e.id == id) {
      e.action = action;
      ++e.version;
      ++version_;
      return true;
    }
  }
  return false;
}

std::optional<std::uint32_t> Tcam::packedId(std::uint16_t id) const {
  for (const auto& e : entries_) {
    if (e.id == id) return packEntryId(e.id, e.version);
  }
  return std::nullopt;
}

bool Tcam::matches(const TcamKey& key, const PacketFields& f) {
  if (key.dstMac && *key.dstMac != f.dstMac) return false;
  if (key.etherType && *key.etherType != f.etherType) return false;
  auto prefixMatch = [](const std::pair<net::Ipv4Address, std::uint8_t>& p,
                        const std::optional<net::Ipv4Address>& a) {
    if (!a) return false;
    const std::uint32_t mask =
        p.second == 0 ? 0 : ~std::uint32_t{0} << (32 - p.second);
    return (a->value() & mask) == (p.first.value() & mask);
  };
  if (key.ipSrc && !prefixMatch(*key.ipSrc, f.ipSrc)) return false;
  if (key.ipDst && !prefixMatch(*key.ipDst, f.ipDst)) return false;
  if (key.ipProto && (!f.ipProto || *key.ipProto != *f.ipProto)) return false;
  return true;
}

std::optional<MatchResult> Tcam::match(const PacketFields& fields) const {
  const Entry* best = nullptr;
  std::uint32_t alternates = 0;
  for (const auto& e : entries_) {  // sorted by descending priority
    if (matches(e.key, fields)) {
      if (best == nullptr) {
        best = &e;
      } else {
        ++alternates;
      }
    }
  }
  if (best == nullptr) return std::nullopt;
  MatchResult r;
  r.outPort = best->action.outPort;
  r.entryId = packEntryId(best->id, best->version);
  r.altRoutes = alternates;
  r.queueId = best->action.queueId;
  r.drop = best->action.drop;
  return r;
}

}  // namespace tpp::asic
