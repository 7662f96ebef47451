#include "common/serde.hpp"

#include <stdexcept>

namespace waku {

void ByteWriter::write_u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::write_u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::write_raw(BytesView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::write_bytes(BytesView data) {
  write_u32(static_cast<std::uint32_t>(data.size()));
  write_raw(data);
}

void ByteWriter::write_string(std::string_view s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw std::out_of_range("ByteReader: truncated input");
  }
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::read_u16() {
  require(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

BytesView ByteReader::read_view(std::size_t n) {
  require(n);
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Bytes ByteReader::read_raw(std::size_t n) {
  const BytesView v = read_view(n);
  return Bytes(v.begin(), v.end());
}

Bytes ByteReader::read_bytes() {
  const std::uint32_t n = read_u32();
  return read_raw(n);
}

std::size_t ByteReader::bounded_count(std::uint64_t count,
                                      std::size_t element_size) const {
  if (element_size == 0 || count > remaining() / element_size) {
    throw std::out_of_range("ByteReader: count exceeds remaining input");
  }
  return static_cast<std::size_t>(count);
}

std::string ByteReader::read_string() {
  const Bytes b = read_bytes();
  return std::string(b.begin(), b.end());
}

}  // namespace waku
