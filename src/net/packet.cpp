#include "src/net/packet.hpp"

#include <cstdio>

namespace tpp::net {
namespace {

// Freelist of dead packets awaiting reuse. Function-local static so the
// pool outlives every translation-unit-scoped PacketPtr; bounded so a
// transient burst cannot pin memory forever. thread_local because a
// Simulator is confined to its thread but a program may run independent
// testbeds on several threads at once: each thread then recycles into a
// private freelist and never takes a lock.
constexpr std::size_t kMaxPooled = 4096;

struct Pool {
  std::vector<Packet*> free;
  Packet::PoolStats stats;
  ~Pool() {
    for (Packet* p : free) delete p;
  }
};

Pool& pool() {
  thread_local Pool p;
  return p;
}

}  // namespace

std::uint64_t& Packet::nextId() {
  // Per-thread, like the pool: ids only need to be unique-enough for
  // debugging output (nothing branches on them), and a shared counter
  // would be a data race between testbeds on different threads.
  thread_local std::uint64_t id = 1;
  return id;
}

void Packet::reinitForReuse() {
  meta_ = PacketMeta{};
  id_ = nextId()++;
  createdAt = sim::Time::zero();
  flowId = 0;
}

Packet* Packet::acquirePooled() {
  auto& p = pool();
  if (p.free.empty()) {
    ++p.stats.allocated;
    return nullptr;
  }
  ++p.stats.reused;
  Packet* packet = p.free.back();
  p.free.pop_back();
  packet->reinitForReuse();
  return packet;
}

void PacketDeleter::operator()(Packet* packet) const noexcept {
  if (packet == nullptr) return;
  auto& p = pool();
  if (p.free.size() < kMaxPooled) {
    ++p.stats.recycled;
    p.free.push_back(packet);
  } else {
    ++p.stats.freed;
    delete packet;
  }
}

PacketPtr Packet::make(std::vector<std::uint8_t> bytes) {
  if (Packet* p = acquirePooled()) {
    p->bytes_ = std::move(bytes);
    return PacketPtr{p};
  }
  return PacketPtr{new Packet(std::move(bytes))};
}

PacketPtr Packet::make(std::size_t size, std::uint8_t fill) {
  if (Packet* p = acquirePooled()) {
    p->bytes_.assign(size, fill);  // reuses the recycled buffer's capacity
    return PacketPtr{p};
  }
  return PacketPtr{new Packet(std::vector<std::uint8_t>(size, fill))};
}

Packet::PoolStats Packet::poolStats() { return pool().stats; }

void Packet::drainPool() {
  auto& p = pool();
  for (Packet* packet : p.free) delete packet;
  p.free.clear();
}

PacketPtr Packet::clone() const {
  PacketPtr p;
  if (Packet* reused = acquirePooled()) {
    reused->bytes_ = bytes_;  // copy-assign reuses capacity
    p = PacketPtr{reused};
  } else {
    p = PacketPtr{new Packet(bytes_)};
  }
  p->meta_ = meta_;
  p->createdAt = createdAt;
  p->flowId = flowId;
  return p;
}

std::string Packet::hexdump(std::size_t maxBytes) const {
  std::string out;
  const std::size_t n = std::min(maxBytes, bytes_.size());
  char line[24];
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 16 == 0) {
      std::snprintf(line, sizeof line, "%04zx  ", i);
      out += line;
    }
    std::snprintf(line, sizeof line, "%02x ", bytes_[i]);
    out += line;
    if (i % 16 == 15 || i + 1 == n) out += '\n';
  }
  if (n < bytes_.size()) out += "...\n";
  return out;
}

}  // namespace tpp::net
