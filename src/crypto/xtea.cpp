#include "crypto/xtea.hpp"

#include <algorithm>
#include <stdexcept>

namespace srp::crypto {
namespace {

constexpr std::uint32_t kDelta = 0x9E3779B9u;
constexpr int kRounds = 32;  // 32 cycles = 64 Feistel rounds

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

void xtea_encrypt_block(const XteaKey& key, std::uint32_t v[2]) {
  std::uint32_t v0 = v[0], v1 = v[1], sum = 0;
  for (int i = 0; i < kRounds; ++i) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
  }
  v[0] = v0;
  v[1] = v1;
}

void xtea_decrypt_block(const XteaKey& key, std::uint32_t v[2]) {
  std::uint32_t v0 = v[0], v1 = v[1];
  std::uint32_t sum = kDelta * kRounds;
  for (int i = 0; i < kRounds; ++i) {
    v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
    sum -= kDelta;
    v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
  }
  v[0] = v0;
  v[1] = v1;
}

std::vector<std::uint8_t> xtea_cbc_encrypt(const XteaKey& key,
                                           std::span<const std::uint8_t> in) {
  // Zero-padded to whole blocks, at least one.
  std::vector<std::uint8_t> buf(
      std::max<std::size_t>(8, (in.size() + 7) / 8 * 8));
  std::copy(in.begin(), in.end(), buf.begin());

  std::uint32_t prev[2] = {0, 0};  // zero IV (see header for rationale)
  for (std::size_t off = 0; off < buf.size(); off += 8) {
    std::uint32_t v[2] = {load_be32(&buf[off]) ^ prev[0],
                          load_be32(&buf[off + 4]) ^ prev[1]};
    xtea_encrypt_block(key, v);
    store_be32(&buf[off], v[0]);
    store_be32(&buf[off + 4], v[1]);
    prev[0] = v[0];
    prev[1] = v[1];
  }
  return buf;
}

std::vector<std::uint8_t> xtea_cbc_decrypt(const XteaKey& key,
                                           std::span<const std::uint8_t> in) {
  if (in.empty() || in.size() % 8 != 0) {
    throw std::invalid_argument("xtea_cbc_decrypt: size not a multiple of 8");
  }
  std::vector<std::uint8_t> out(in.size());
  std::uint32_t prev[2] = {0, 0};
  for (std::size_t off = 0; off < in.size(); off += 8) {
    const std::uint32_t c0 = load_be32(&in[off]);
    const std::uint32_t c1 = load_be32(&in[off + 4]);
    std::uint32_t v[2] = {c0, c1};
    xtea_decrypt_block(key, v);
    store_be32(&out[off], v[0] ^ prev[0]);
    store_be32(&out[off + 4], v[1] ^ prev[1]);
    prev[0] = c0;
    prev[1] = c1;
  }
  return out;
}

}  // namespace srp::crypto
