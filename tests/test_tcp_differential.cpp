// Differential tests: the word-wide segment checksum and the incremental
// stream pattern of src/host/tcp.cpp against the byte-wise versions they
// replaced (tests/tcp_bytewise_oracle.hpp). The fill must equal
// tcpPatternByte everywhere, the check must count exactly the oracle's
// mismatches, and every single-bit flip the byte-wise checksum rejects
// must be rejected by the word-wide one too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "src/host/tcp.hpp"
#include "src/net/byte_io.hpp"
#include "tests/tcp_bytewise_oracle.hpp"

namespace tpp::host {
namespace {

constexpr std::size_t kMaxPayload = 1460;
constexpr std::uint8_t kGuard = 0xa5;

// Stream offsets worth drawing: anywhere, and straddling 2^32, where a
// 32-bit offset would wrap.
std::uint64_t drawOffset(std::mt19937_64& rng, std::size_t len) {
  switch (rng() % 3) {
    case 0:
      return rng() >> 8;
    case 1:
      return rng() % (std::uint64_t{1} << 32);
    default:
      return (std::uint64_t{1} << 32) - 1 - rng() % (len + 1);
  }
}

TEST(TcpPatternDifferential, FillEqualsPatternByteAtAnyOffsetAndLength) {
  std::mt19937_64 rng(11);
  std::vector<std::uint8_t> got(kMaxPayload + 2);
  std::vector<std::uint8_t> want(kMaxPayload);
  for (std::size_t len = 0; len <= kMaxPayload; ++len) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::uint64_t offset = drawOffset(rng, len);
      std::fill(got.begin(), got.end(), kGuard);
      tcpPatternFill(std::span(got).subspan(1, len), offset);
      test::bytewisePatternFill(std::span(want).first(len), offset);
      ASSERT_TRUE(std::equal(want.begin(), want.begin() + len,
                             got.begin() + 1))
          << "len " << len << " offset " << offset;
      ASSERT_EQ(got[0], kGuard) << "wrote before the span, len " << len;
      ASSERT_EQ(got[len + 1], kGuard) << "wrote past the span, len " << len;
    }
  }
}

// The sender derives a segment's stream offset as seq - (iss + 1) in
// 32-bit sequence arithmetic, so a stream whose sequence numbers wrap past
// 2^32 mid-segment must still fill from the right offset.
TEST(TcpPatternDifferential, FillAcrossSequenceWrap) {
  std::mt19937_64 rng(12);
  std::vector<std::uint8_t> got(kMaxPayload);
  std::vector<std::uint8_t> want(kMaxPayload);
  for (std::size_t len = 2; len <= kMaxPayload; ++len) {
    const auto streamOffset = static_cast<std::uint32_t>(rng() % 100000);
    // The first `before` bytes sit below 2^32, the rest wrap to 0 and up.
    const auto before = static_cast<std::uint32_t>(1 + rng() % (len - 1));
    const std::uint32_t seq = 0u - before;
    const std::uint32_t iss = seq - streamOffset - 1;
    ASSERT_LT(seq + static_cast<std::uint32_t>(len - 1), seq);
    tcpPatternFill(std::span(got).first(len), seq - (iss + 1));
    test::bytewisePatternFill(std::span(want).first(len), streamOffset);
    ASSERT_TRUE(std::equal(want.begin(), want.begin() + len, got.begin()))
        << "len " << len << " seq " << seq;
  }
}

TEST(TcpPatternDifferential, MismatchCountEqualsBytewiseOracle) {
  std::mt19937_64 rng(13);
  std::vector<std::uint8_t> bytes(kMaxPayload);
  for (std::size_t len = 0; len <= kMaxPayload; ++len) {
    const std::uint64_t offset = drawOffset(rng, len);
    const auto payload = std::span(bytes).first(len);
    tcpPatternFill(payload, offset);
    // Corrupt a random number of random bytes (a byte may be hit twice,
    // and a random value may equal the pattern by chance).
    const std::size_t hits = len == 0 ? 0 : rng() % (len / 8 + 2);
    for (std::size_t h = 0; h < hits; ++h) {
      payload[rng() % len] = static_cast<std::uint8_t>(rng());
    }
    ASSERT_EQ(tcpPatternMismatches(payload, offset),
              test::bytewisePatternMismatches(payload, offset))
        << "len " << len << " offset " << offset;
    // Checked against the wrong offset, nearly every byte mismatches.
    ASSERT_EQ(tcpPatternMismatches(payload, offset + 1),
              test::bytewisePatternMismatches(payload, offset + 1))
        << "len " << len << " offset " << offset + 1;
  }
}

// kFnvPrime's inverse mod 2^32 (Newton's iteration; the prime is odd).
constexpr std::uint32_t fnvPrimeInverse() {
  std::uint32_t inv = test::kFnvPrime;
  for (int i = 0; i < 5; ++i) inv *= 2 - test::kFnvPrime * inv;
  return inv;
}
constexpr std::uint32_t kFnvPrimeInverse = fnvPrimeInverse();
static_assert(test::kFnvPrime * kFnvPrimeInverse == 1);

// Byte-wise acceptance of every single-byte change to a segment's payload
// in O(1) each. Each FNV-1a step is invertible (h = (h' * P^-1) ^ b), so
// running the chain backwards from the stored checksum gives, for every
// position, the state the forward chain must reach there to end on it.
// Replacing byte i by b keeps the checksum valid exactly when one forward
// step from the state before byte i, over b, lands on the state required
// after it — the same verdict as test::bytewiseSegmentValid on the changed
// copy, without rehashing the rest of the segment for every flip.
class BytewiseVerdicts {
 public:
  explicit BytewiseVerdicts(std::span<const std::uint8_t> segment)
      : before_(segment.size() + 1),
        required_(segment.size() + 1) {
    before_[0] = test::kFnvBasis;
    for (std::size_t i = 0; i < segment.size(); ++i) {
      before_[i + 1] = test::bytewiseChecksumStep(before_[i], segment, i);
    }
    required_[segment.size()] = *net::getBe32(segment, 16);
    for (std::size_t i = segment.size(); i-- > 0;) {
      const std::uint8_t b = (i >= 16 && i < 20) ? 0 : segment[i];
      required_[i] = (required_[i + 1] * kFnvPrimeInverse) ^ b;
    }
  }

  // Does the byte-wise checksum accept the segment with payload byte `at`
  // replaced by `b`?
  bool accepts(std::size_t at, std::uint8_t b) const {
    return ((before_[at] ^ b) * test::kFnvPrime) == required_[at + 1];
  }

 private:
  std::vector<std::uint32_t> before_;    // forward state before byte i
  std::vector<std::uint32_t> required_;  // state needed before byte i
};

// Random segments of every payload length: every single-bit flip is
// rejected by the byte-wise FNV-1a and by the word-wide checksum alike.
TEST(TcpChecksumDifferential, EverySingleBitFlipRejectedByBoth) {
  std::mt19937_64 rng(14);
  std::vector<std::uint8_t> payload(kMaxPayload);
  std::vector<std::uint8_t> fast;
  std::vector<std::uint8_t> oracle;
  for (std::size_t len = 0; len <= kMaxPayload; ++len) {
    for (std::size_t i = 0; i < len; ++i) {
      payload[i] = static_cast<std::uint8_t>(rng());
    }
    TcpSegment s;
    s.flags = static_cast<std::uint8_t>(rng() % 8);
    s.spin = static_cast<std::uint8_t>(rng() % 2);
    s.seq = static_cast<std::uint32_t>(rng());
    s.ack = static_cast<std::uint32_t>(rng());
    s.wnd = static_cast<std::uint32_t>(rng());
    s.payload = std::span(payload).first(len);
    s.serialize(fast);
    oracle = fast;
    test::bytewiseSeal(oracle);
    ASSERT_TRUE(TcpSegment::parse(fast).has_value()) << "len " << len;
    ASSERT_TRUE(test::bytewiseSegmentValid(oracle)) << "len " << len;
    const BytewiseVerdicts verdicts(oracle);
    for (std::size_t byte = 0; byte < fast.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        const auto mask = static_cast<std::uint8_t>(1u << bit);
        bool oracleRejects = false;
        if (byte < TcpSegment::kHeaderBytes) {
          oracle[byte] ^= mask;
          oracleRejects = !test::bytewiseSegmentValid(oracle);
          oracle[byte] ^= mask;
        } else {
          oracleRejects = !verdicts.accepts(byte, oracle[byte] ^ mask);
        }
        fast[byte] ^= mask;
        const bool fastRejects = !TcpSegment::parse(fast).has_value();
        fast[byte] ^= mask;
        ASSERT_TRUE(oracleRejects && fastRejects)
            << "len " << len << ": bit " << bit << " of byte " << byte
            << " slipped through (byte-wise rejects " << oracleRejects
            << ", word-wide rejects " << fastRejects << ")";
      }
    }
  }
}

// The backward-chain verdicts equal the plain oracle on changed copies,
// accepting ones included (a byte replaced by itself).
TEST(TcpChecksumDifferential, BackwardVerdictsEqualBytewiseOracle) {
  std::mt19937_64 rng(15);
  std::vector<std::uint8_t> segment(TcpSegment::kHeaderBytes + 300);
  for (auto& b : segment) b = static_cast<std::uint8_t>(rng());
  net::putBe16(segment, 2, 300);
  segment[1] &= 1;
  test::bytewiseSeal(segment);
  const BytewiseVerdicts verdicts(segment);
  for (std::size_t byte = TcpSegment::kHeaderBytes; byte < segment.size();
       ++byte) {
    for (const std::uint8_t b :
         {segment[byte], static_cast<std::uint8_t>(rng()),
          static_cast<std::uint8_t>(segment[byte] ^ 0x80)}) {
      auto changed = segment;
      changed[byte] = b;
      ASSERT_EQ(verdicts.accepts(byte, b), test::bytewiseSegmentValid(changed))
          << "byte " << byte << " = " << int{b};
    }
  }
}

}  // namespace
}  // namespace tpp::host
