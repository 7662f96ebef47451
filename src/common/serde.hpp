// Minimal binary serialization: little-endian fixed-width integers,
// length-prefixed byte strings. Used for wire formats (proof bundles,
// Waku messages) and for measuring serialized sizes in the benches.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace waku {

/// Appends primitive values to an owned byte buffer in little-endian order.
class ByteWriter {
 public:
  ByteWriter() = default;

  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  /// Writes raw bytes with no length prefix.
  void write_raw(BytesView data);
  /// Writes a u32 length prefix followed by the bytes.
  void write_bytes(BytesView data);
  /// Writes a u32 length prefix followed by the UTF-8 payload.
  void write_string(std::string_view s);

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Reads primitive values from a byte view; throws std::out_of_range when
/// the buffer is exhausted (malformed wire data must not crash a node).
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  /// Reads exactly `n` raw bytes.
  Bytes read_raw(std::size_t n);
  /// Reads exactly `n` bytes as a view into the input (no copy).
  BytesView read_view(std::size_t n);
  /// Reads a u32 length prefix then that many bytes.
  Bytes read_bytes();
  /// Reads a u32 length prefix then that many bytes as a string.
  std::string read_string();
  /// Checks an untrusted element count before anything is sized from it:
  /// returns `count` if that many elements of at least `element_size`
  /// bytes each fit in the remaining input, else throws std::out_of_range.
  std::size_t bounded_count(std::uint64_t count,
                            std::size_t element_size) const;

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void require(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace waku
