#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace nitro {
namespace {

/// Byte-at-a-time reference over the first (classic) table: the loop the
/// sliced implementation must agree with on every length and alignment.
std::uint32_t byte_loop_crc32(std::span<const std::uint8_t> data,
                              std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::uint8_t b : data) {
    c = detail::kCrc32Tables[0][(c ^ b) & 0xffu] ^ (c >> 8);
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  SplitMix64 rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() >> 56);
  return out;
}

std::span<const std::uint8_t> ascii(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
}

// The CRC-32/ISO-HDLC check value and the empty-input identity.
TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(ascii("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32(ascii("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

TEST(Crc32, FirstTableIsTheClassicByteTable) {
  // Spot values of the standard reflected 0xEDB88320 table.
  EXPECT_EQ(detail::kCrc32Tables[0][0], 0x00000000u);
  EXPECT_EQ(detail::kCrc32Tables[0][1], 0x77073096u);
  EXPECT_EQ(detail::kCrc32Tables[0][255], 0x2D02EF8Du);
}

// Every length through two full slices plus a tail, at every start offset
// 0..7, so each alignment meets the block loop, the tail loop and both.
TEST(Crc32, SlicedMatchesByteLoopAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 2 * detail::kCrc32Slices + 7;
  const auto buf = random_bytes(kMaxLen + 8, 11);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + off, len);
      ASSERT_EQ(crc32(s), byte_loop_crc32(s)) << "offset " << off << " length " << len;
      ASSERT_EQ(crc32(s, 0x12345678u), byte_loop_crc32(s, 0x12345678u))
          << "seeded, offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, SlicedMatchesByteLoopOnOneMebibyte) {
  const auto buf = random_bytes(std::size_t{1} << 20, 12);
  EXPECT_EQ(crc32(buf), byte_loop_crc32(buf));
  // Odd start and length: the block loop runs misaligned throughout.
  const std::span<const std::uint8_t> odd(buf.data() + 3, buf.size() - 10);
  EXPECT_EQ(crc32(odd), byte_loop_crc32(odd));
}

// crc32(b) == crc32(b2, crc32(b1)) for b = b1 || b2, at every split point.
TEST(Crc32, ChunkedSeedIdentityAtEverySplit) {
  const auto buf = random_bytes(3 * detail::kCrc32Slices + 5, 13);
  const std::span<const std::uint8_t> all(buf);
  const std::uint32_t whole = crc32(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    EXPECT_EQ(crc32(all.subspan(split), crc32(all.first(split))), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace nitro
