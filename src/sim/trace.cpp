#include "src/sim/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace tpp::sim {
namespace {

// Binary layout, all little-endian (the simulator only targets LE hosts;
// the static_asserts in decodeTrace's callers keep us honest):
//   8B  magic "TPPTRACE"
//   u32 version (1)
//   u32 record size (32)
//   u64 record count
//   u64 overwritten count
//   u32 actor count
//   per actor: u16 name length + raw bytes
//   records: count * 32 raw bytes
constexpr char kMagic[8] = {'T', 'P', 'P', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;

void putU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// Cursor over untrusted bytes; every read is bounds-checked.
struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  bool have(std::size_t n) const { return bytes.size() - pos >= n; }
  std::uint16_t u16() {
    std::uint16_t v = static_cast<std::uint16_t>(
        bytes[pos] | (static_cast<std::uint16_t>(bytes[pos + 1]) << 8));
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes[pos + static_cast<std::size_t>(i)]) << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[pos + static_cast<std::size_t>(i)]) << (8 * i);
    pos += 8;
    return v;
  }
};

}  // namespace

Tracer::Tracer(std::size_t capacity) {
  if (capacity < 2) capacity = 2;
  ring_.resize(std::bit_ceil(capacity));
  mask_ = ring_.size() - 1;
}

std::uint32_t Tracer::actor(std::string name) {
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (actors_[i] == name) return static_cast<std::uint32_t>(i + 1);
  }
  actors_.push_back(std::move(name));
  return static_cast<std::uint32_t>(actors_.size());
}

std::vector<TraceRecord> Tracer::snapshot() const {
  std::vector<TraceRecord> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = head_ - n;
  for (std::uint64_t i = first; i < head_; ++i) {
    out.push_back(ring_[i & mask_]);
  }
  return out;
}

std::vector<std::uint8_t> Tracer::serialize() const {
  const std::vector<TraceRecord> records = snapshot();
  std::vector<std::uint8_t> out;
  out.reserve(40 + actors_.size() * 24 +
              records.size() * sizeof(TraceRecord));
  // push_back rather than a ranged insert: gcc-12's -Wstringop-overflow
  // false-positives on inserting from a raw char array.
  for (const char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  putU32(out, kVersion);
  putU32(out, static_cast<std::uint32_t>(sizeof(TraceRecord)));
  putU64(out, records.size());
  putU64(out, overwritten());
  putU32(out, static_cast<std::uint32_t>(actors_.size()));
  for (const std::string& name : actors_) {
    const auto len = static_cast<std::uint16_t>(
        std::min<std::size_t>(name.size(), UINT16_MAX));
    putU16(out, len);
    out.insert(out.end(), name.begin(), name.begin() + len);
  }
  for (const TraceRecord& r : records) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&r);
    out.insert(out.end(), p, p + sizeof(TraceRecord));
  }
  return out;
}

bool Tracer::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = std::fclose(f) == 0 && wrote == bytes.size();
  return ok;
}

const std::string& DecodedTrace::actorName(std::uint32_t id) const {
  static const std::string kNone = "?";
  if (id == 0 || id > actors.size()) return kNone;
  return actors[id - 1];
}

DecodedTrace decodeTrace(std::span<const std::uint8_t> bytes) {
  DecodedTrace out;
  Reader r{bytes};
  if (!r.have(8 + 4 + 4 + 8 + 8 + 4)) {
    out.error = "header truncated";
    return out;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    out.error = "bad magic";
    return out;
  }
  r.pos += sizeof(kMagic);
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    out.error = "unsupported version " + std::to_string(version);
    return out;
  }
  const std::uint32_t recordSize = r.u32();
  if (recordSize != sizeof(TraceRecord)) {
    out.error = "unexpected record size " + std::to_string(recordSize);
    return out;
  }
  const std::uint64_t count = r.u64();
  out.overwritten = r.u64();
  const std::uint32_t actorCount = r.u32();
  // An absurd actor count (more actors than remaining bytes could possibly
  // name) means a corrupt header — bail before looping.
  if (actorCount > bytes.size()) {
    out.error = "actor count exceeds input size";
    return out;
  }
  for (std::uint32_t i = 0; i < actorCount; ++i) {
    if (!r.have(2)) {
      out.error = "actor table truncated";
      return out;
    }
    const std::uint16_t len = r.u16();
    if (!r.have(len)) {
      out.error = "actor name truncated";
      return out;
    }
    out.actors.emplace_back(reinterpret_cast<const char*>(&bytes[r.pos]), len);
    r.pos += len;
  }
  // Record region: a short tail yields whatever whole records fit, flagged
  // `truncated` rather than treated as fatal — partial flight-recorder dumps
  // (crashed process, chopped file) should still be readable.
  if (count > (bytes.size() - r.pos) / sizeof(TraceRecord)) {
    out.truncated = true;
  }
  const std::uint64_t usable =
      std::min<std::uint64_t>(count, (bytes.size() - r.pos) / sizeof(TraceRecord));
  out.records.reserve(static_cast<std::size_t>(usable));
  for (std::uint64_t i = 0; i < usable; ++i) {
    TraceRecord rec;
    std::memcpy(&rec, &bytes[r.pos], sizeof(TraceRecord));
    r.pos += sizeof(TraceRecord);
    if (rec.kind == 0 || rec.kind > kMaxTraceKind) ++out.badKinds;
    out.records.push_back(rec);
  }
  // serialize() writes exactly `count` records and nothing after them, so
  // leftover bytes mean the header undercounts (e.g. a corrupted `count`
  // field) — flag it rather than silently ignoring data.
  const bool trailing = !out.truncated && r.pos != bytes.size();
  out.ok = !out.truncated && !trailing && out.badKinds == 0;
  if (out.truncated) out.error = "record region truncated";
  else if (trailing) out.error = "trailing bytes after record region";
  else if (out.badKinds > 0) out.error = "records with out-of-range kind";
  return out;
}

}  // namespace tpp::sim
