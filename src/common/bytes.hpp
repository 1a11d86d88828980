// Byte-buffer IO used by every wire format in the system (RTP headers,
// H.323 TLV messages, broker event frames). All multi-byte integers are
// big-endian (network order), matching the real protocols.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace gmmcs {

using Bytes = std::vector<std::uint8_t>;

/// Appends values to a growable byte vector in network byte order.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(std::span<const std::uint8_t> data);
  void raw(const Bytes& data) { raw(std::span<const std::uint8_t>{data}); }
  /// Writes the string bytes verbatim (no terminator, no length prefix).
  void str(std::string_view s);
  /// Length-prefixed string: u16 length followed by the bytes.
  void lstr(std::string_view s);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  /// Moves the buffer out; the writer is empty afterwards.
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Reads values from a byte span in network byte order.
///
/// Reads past the end set the error flag and return zeros instead of
/// throwing: malformed network input is data, not a programming error.
/// Callers check ok() once after parsing a whole structure.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const Bytes& data) : data_(data) {}

  // The fixed-width reads are inline: a decode makes a dozen of them per
  // frame on the per-copy path.
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    const auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                            static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    const std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }
  /// Reads exactly n bytes; returns an empty vector (and flags error) if short.
  /// Allocates an owned copy — decode paths that only inspect use view().
  Bytes raw(std::size_t n);
  /// Non-allocating sibling of raw(): a view into the underlying buffer,
  /// valid only while that buffer lives. Empty (and flags error) if short.
  std::span<const std::uint8_t> view(std::size_t n);
  /// Reads exactly n bytes as a string (allocating; see str_view()).
  std::string str(std::size_t n);
  /// Non-allocating sibling of str(n): a view into the underlying buffer.
  std::string_view str_view(std::size_t n);
  /// Reads a u16 length prefix then that many bytes as a string.
  std::string lstr();
  /// Non-allocating sibling of lstr().
  std::string_view lstr_view();
  /// Consumes the rest of the buffer as a view (trailing byte-run codecs).
  std::span<const std::uint8_t> rest();
  /// Skips n bytes.
  void skip(std::size_t n);

  /// Checked sibling of a raw u32 length read: fails (and poisons the
  /// reader, so error-flag callers still see !ok()) unless the length is
  /// both <= max and <= remaining(). The returned length is safe to
  /// allocate against — it can never exceed the frame it arrived in.
  [[nodiscard]] Result<std::size_t> read_len_bounded(std::size_t max);
  /// Checked element-count reads (u8/u16/u32 wire widths): fail unless
  /// count * elem_size bytes are actually left in the buffer, so a
  /// hostile count can never drive a loop past the frame. elem_size is
  /// the wire size of one element (>= 1).
  [[nodiscard]] Result<std::size_t> read_count_u8(std::size_t elem_size);
  [[nodiscard]] Result<std::size_t> read_count_u16(std::size_t elem_size);
  [[nodiscard]] Result<std::size_t> read_count_u32(std::size_t elem_size);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  /// True if n more bytes are left; else poisons the reader (error flag
  /// set, position at the end) and returns false.
  [[nodiscard]] bool need(std::size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      pos_ = data_.size();
      return false;
    }
    return true;
  }
  [[nodiscard]] Result<std::size_t> check_count(std::uint64_t count, std::size_t elem_size);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Converts a string to its bytes (convenience for payload construction).
Bytes to_bytes(std::string_view s);
/// Converts bytes to a string (lossless copy; bytes need not be text).
std::string to_string(std::span<const std::uint8_t> data);

}  // namespace gmmcs
