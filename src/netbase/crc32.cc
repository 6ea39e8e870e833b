#include "netbase/crc32.h"

#include <array>
#include <cstring>

namespace iri {
namespace {

// Slice-by-8: eight derived tables let the inner loop fold 8 bytes per
// iteration (one 64-bit load, eight independent table lookups) instead of
// running the byte-serial carry chain. Table k holds the CRC of a byte
// followed by k zero bytes, so the eight lookups combine with plain XOR.
// Identical output to the byte-at-a-time form for every input — the MRT
// golden digests and the roundtrip fuzz suite pin this.
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = t[0][c & 0xff] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}

constexpr auto kTables = MakeTables();

// A 32x32 GF(2) matrix as 32 column vectors: column i is the image of bit i.
using Gf2Matrix = std::array<std::uint32_t, 32>;

std::uint32_t Gf2Times(const Gf2Matrix& mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; vec != 0; ++i, vec >>= 1) {
    if (vec & 1) sum ^= mat[i];
  }
  return sum;
}

Gf2Matrix Gf2Square(const Gf2Matrix& mat) {
  Gf2Matrix sq{};
  for (std::size_t i = 0; i < 32; ++i) sq[i] = Gf2Times(mat, mat[i]);
  return sq;
}

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc,
                          std::span<const std::uint8_t> data) {
  crc = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    // memcpy keeps the 8-byte load alignment-safe; the byte-swap on
    // big-endian hosts makes byte j of the stream always land in table 7-j.
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    chunk = __builtin_bswap64(chunk);
#endif
    chunk ^= crc;
    crc = kTables[7][chunk & 0xff] ^ kTables[6][(chunk >> 8) & 0xff] ^
          kTables[5][(chunk >> 16) & 0xff] ^ kTables[4][(chunk >> 24) & 0xff] ^
          kTables[3][(chunk >> 32) & 0xff] ^ kTables[2][(chunk >> 40) & 0xff] ^
          kTables[1][(chunk >> 48) & 0xff] ^ kTables[0][chunk >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  return Crc32Update(0, data);
}

std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b) {
  // Appending one zero bit to a message maps its (unconditioned) CRC
  // through a linear operator: shift right, folding in the polynomial on a
  // carry. Three squarings make it the one-zero-byte operator; each further
  // squaring doubles the byte count, so the set bits of len_b pick which
  // powers to apply to crc_a. The pre/post conditioning cancels in the XOR.
  Gf2Matrix op{};
  op[0] = 0xEDB88320u;
  for (std::size_t i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
  for (int i = 0; i < 3; ++i) op = Gf2Square(op);
  for (; len_b != 0; len_b >>= 1) {
    if (len_b & 1) crc_a = Gf2Times(op, crc_a);
    if (len_b > 1) op = Gf2Square(op);
  }
  return crc_a ^ crc_b;
}

}  // namespace iri
