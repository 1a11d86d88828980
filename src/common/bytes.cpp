#include "common/bytes.hpp"

namespace gmmcs {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view s) {
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::lstr(std::string_view s) {
  u16(static_cast<std::uint16_t>(s.size()));
  str(s);
}

Bytes ByteReader::raw(std::size_t n) {
  if (!need(n)) return {};
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::span<const std::uint8_t> ByteReader::view(std::size_t n) {
  if (!need(n)) return {};
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::str(std::size_t n) {
  if (!need(n)) return {};
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

std::string_view ByteReader::str_view(std::size_t n) {
  if (!need(n)) return {};
  std::string_view out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

std::string ByteReader::lstr() {
  std::size_t n = u16();
  return str(n);
}

std::string_view ByteReader::lstr_view() {
  std::size_t n = u16();
  return str_view(n);
}

std::span<const std::uint8_t> ByteReader::rest() {
  return view(remaining());
}

void ByteReader::skip(std::size_t n) {
  if (need(n)) pos_ += n;
}

Result<std::size_t> ByteReader::read_len_bounded(std::size_t max) {
  std::uint32_t len = u32();
  if (!ok_) return fail<std::size_t>("bytes: truncated length field");
  if (len > max || len > remaining()) {
    ok_ = false;
    pos_ = data_.size();
    return fail<std::size_t>("bytes: length " + std::to_string(len) +
                             " exceeds bound");
  }
  return std::size_t{len};
}

Result<std::size_t> ByteReader::check_count(std::uint64_t count, std::size_t elem_size) {
  if (!ok_) return fail<std::size_t>("bytes: truncated count field");
  if (elem_size == 0) elem_size = 1;
  // Division instead of multiplication: count * elem_size cannot wrap.
  if (count > remaining() / elem_size) {
    ok_ = false;
    pos_ = data_.size();
    return fail<std::size_t>("bytes: count " + std::to_string(count) +
                             " exceeds remaining bytes");
  }
  return static_cast<std::size_t>(count);
}

Result<std::size_t> ByteReader::read_count_u8(std::size_t elem_size) {
  return check_count(u8(), elem_size);
}

Result<std::size_t> ByteReader::read_count_u16(std::size_t elem_size) {
  return check_count(u16(), elem_size);
}

Result<std::size_t> ByteReader::read_count_u32(std::size_t elem_size) {
  return check_count(u32(), elem_size);
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(std::span<const std::uint8_t> data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

}  // namespace gmmcs
