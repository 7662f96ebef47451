#include "hash/sha256.hpp"

#include <algorithm>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace waku::hash {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

// The SHA-extensions body (Gulley et al., "Intel SHA Extensions", 2013).
// The state lives in two registers as ABEF and CDGH; each quad-round feeds
// four message words plus constants to two sha256rnds2, and from quad-round
// 4 on the message schedule is W_q = msg2(msg1(W_{q-4}, W_{q-3}) +
// W[4q-7 .. 4q-4], W_{q-1}).
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    Sha256State& state, const std::uint8_t* blocks, std::size_t n) noexcept {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (std::size_t blk = 0; blk < n; ++blk, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
    }
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      __m128i& wq = w[q & 3];
      if (q >= 4) {
        const __m128i w7 = _mm_alignr_epi8(w[(q + 3) & 3], w[(q + 2) & 3], 4);
        wq = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(wq, w[(q + 1) & 3]), w7),
            w[(q + 3) & 3]);
      }
      __m128i wk = _mm_add_epi32(
          wq, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * q])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif

using CompressFn = void (*)(Sha256State&, const std::uint8_t*,
                            std::size_t) noexcept;

CompressFn select_compress() noexcept {
#if defined(__x86_64__)
  if (detail::sha_extensions_available()) return compress_sha_ni;
#endif
  return detail::compress_portable;
}

}  // namespace

namespace detail {

void compress_portable(Sha256State& state, const std::uint8_t* blocks,
                       std::size_t n) noexcept {
  for (std::size_t blk = 0; blk < n; ++blk) {
    const std::uint8_t* block = blocks + 64 * blk;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
             (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = state;

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 =
          h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool sha_extensions_available() noexcept {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
#else
  return false;
#endif
}

void compress(Sha256State& state, const std::uint8_t* blocks,
              std::size_t n) noexcept {
  static const CompressFn body = select_compress();
  body(state, blocks, n);
}

}  // namespace detail

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) noexcept {
  total_len_ += data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(64 - buffer_len_, data.size());
    std::copy_n(data.begin(), take, buffer_.begin() + buffer_len_);
    buffer_len_ += take;
    data = data.subspan(take);
    if (buffer_len_ < 64) return;
    detail::compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t whole = data.size() / 64;
  if (whole > 0) detail::compress(state_, data.data(), whole);
  data = data.subspan(whole * 64);
  std::copy(data.begin(), data.end(), buffer_.begin());
  buffer_len_ = data.size();
}

void Sha256::update_le(std::uint64_t v, std::size_t width) noexcept {
  std::array<std::uint8_t, 8> le{};
  width = std::min(width, le.size());
  for (std::size_t i = 0; i < width; ++i) {
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  update(BytesView(le.data(), width));
}

Sha256Digest Sha256::finalize() noexcept {
  // The tail: buffered bytes, 0x80, zeros, and the 64-bit big-endian bit
  // length in the last 8 bytes — one block, or two when the buffered bytes
  // leave fewer than 9 free.
  std::array<std::uint8_t, 128> tail{};
  std::copy_n(buffer_.begin(), buffer_len_, tail.begin());
  tail[buffer_len_] = 0x80;
  const std::size_t blocks = buffer_len_ < 56 ? 1 : 2;
  const std::uint64_t bit_len = total_len_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[64 * blocks - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  detail::compress(state_, tail.data(), blocks);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t s = state_[static_cast<std::size_t>(i)];
    digest[static_cast<std::size_t>(i * 4)] =
        static_cast<std::uint8_t>(s >> 24);
    digest[static_cast<std::size_t>(i * 4 + 1)] =
        static_cast<std::uint8_t>(s >> 16);
    digest[static_cast<std::size_t>(i * 4 + 2)] =
        static_cast<std::uint8_t>(s >> 8);
    digest[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(s);
  }
  return digest;
}

Sha256Digest sha256(BytesView data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Bytes sha256_bytes(BytesView data) {
  const Sha256Digest d = sha256(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace waku::hash
