// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used outside the zk circuit: message ids, the RLN signal hash x = H(m),
// commit–reveal commitments, and as the nothing-up-my-sleeve PRF that
// derives Poseidon parameters.
//
// The compression function has two bodies. On x86-64 CPUs with the SHA
// extensions (CPUID leaf 7 EBX bit 29, plus SSSE3 and SSE4.1) a kernel on
// the `sha256rnds2`/`msg1`/`msg2` instructions runs; everywhere else the
// portable round loop does. The choice is made once, from CPUID, on first
// use; no build flag or setting selects it. Both bodies compute the same
// function, and the portable one is the reference the tests hold the
// kernel to.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace waku::hash {

using Sha256Digest = std::array<std::uint8_t, 32>;
using Sha256State = std::array<std::uint32_t, 8>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(BytesView data) noexcept;
  /// Feeds `v` as its low `width` (at most 8) bytes, little-endian: the
  /// integer encoding of ByteWriter, so a caller can hash a serialization
  /// field by field without building it.
  void update_le(std::uint64_t v, std::size_t width) noexcept;
  /// Finalizes and returns the digest; the hasher must be reset() to reuse.
  Sha256Digest finalize() noexcept;

 private:
  Sha256State state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Sha256Digest sha256(BytesView data) noexcept;

/// One-shot returning an owning Bytes (32 bytes).
Bytes sha256_bytes(BytesView data);

namespace detail {

/// Applies the compression function to `n` consecutive 64-byte blocks,
/// through the body chosen for this CPU.
void compress(Sha256State& state, const std::uint8_t* blocks,
              std::size_t n) noexcept;

/// The portable body: the FIPS 180-4 round loop, and the reference the
/// hardware kernel is tested against.
void compress_portable(Sha256State& state, const std::uint8_t* blocks,
                       std::size_t n) noexcept;

/// True when this build has the x86 SHA-extensions kernel and the CPU
/// supports it, i.e. when compress() runs the hardware body.
bool sha_extensions_available() noexcept;

}  // namespace detail

}  // namespace waku::hash
