// The byte-at-a-time TCP segment checksum and stream pattern that
// src/host/tcp.cpp replaced, kept as the differential oracle for its
// word-wide versions (test_tcp_differential.cpp): a byte-wise FNV-1a over
// the segment with the checksum field read as zero, and a pattern filled
// and checked one tcpPatternByte() call per byte.
#pragma once

#include <cstdint>
#include <span>

#include "src/host/tcp.hpp"
#include "src/net/byte_io.hpp"

namespace tpp::test {

inline constexpr std::uint32_t kFnvBasis = 2166136261u;
inline constexpr std::uint32_t kFnvPrime = 16777619u;

// One FNV-1a step over byte i of a segment, the checksum field (bytes
// 16..19) read as zero.
inline std::uint32_t bytewiseChecksumStep(std::uint32_t h,
                                          std::span<const std::uint8_t> bytes,
                                          std::size_t i) {
  const std::uint8_t b = (i >= 16 && i < 20) ? 0 : bytes[i];
  return (h ^ b) * kFnvPrime;
}

// FNV-1a over the segment bytes with the checksum field read as zero.
inline std::uint32_t bytewiseSegmentChecksum(
    std::span<const std::uint8_t> bytes) {
  std::uint32_t h = kFnvBasis;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    h = bytewiseChecksumStep(h, bytes, i);
  }
  return h;
}

// Stores the byte-wise checksum of a complete segment.
inline void bytewiseSeal(std::span<std::uint8_t> segment) {
  net::putBe32(segment, 16, bytewiseSegmentChecksum(segment));
}

// The acceptance test of the byte-wise TcpSegment::parse: whole, only the
// spin bit set in byte 1, and the byte-wise checksum matching.
inline bool bytewiseSegmentValid(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < host::TcpSegment::kHeaderBytes) return false;
  const std::uint16_t len = *net::getBe16(bytes, 2);
  if (bytes.size() != host::TcpSegment::kHeaderBytes + len) return false;
  if ((bytes[1] & ~1) != 0) return false;
  return bytewiseSegmentChecksum(bytes) == *net::getBe32(bytes, 16);
}

inline void bytewisePatternFill(std::span<std::uint8_t> out,
                                std::uint64_t streamOffset) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = host::tcpPatternByte(streamOffset + i);
  }
}

inline std::uint64_t bytewisePatternMismatches(
    std::span<const std::uint8_t> bytes, std::uint64_t streamOffset) {
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != host::tcpPatternByte(streamOffset + i)) ++mismatches;
  }
  return mismatches;
}

}  // namespace tpp::test
