// Immutable, ref-counted payload buffer — the zero-copy payload plane.
//
// A Payload is a shared byte buffer plus a view into it. Copying a Payload
// copies a handle (refcount bump); slicing shares the same buffer. The
// routed-event fast path allocates an event's bytes exactly once — at the
// publisher's encode — and every later carrier (datagram, stream segment
// inbox, RoutedEvent wire cache, decoded Event::payload, RTP fan-out)
// holds a view of that one allocation.
//
// Ownership model (DESIGN.md §15):
//  * construction from `Bytes&&` ADOPTS the vector — a move, never a copy.
//    There is deliberately no construction from `const Bytes&`: turning a
//    borrowed buffer into a Payload is a deep copy and must be spelled
//    `Payload::copy_of(...)`, which the copy counters record.
//  * `slice()` is O(1) and shares the buffer; a slice keeps the whole
//    underlying allocation alive (fine here: frames are short-lived and a
//    payload dominates its frame's size).
//  * `to_bytes()` is the escape hatch back to an owned vector; it is a
//    counted deep copy like copy_of().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "common/bytes.hpp"

namespace gmmcs {

class Payload {
 public:
  Payload() = default;

  /// Adopts a byte vector: the buffer moves, no bytes are copied. Implicit
  /// so freshly-framed buffers (`encode(...)`, `w.take()`) flow into
  /// Payload-typed carriers unchanged.
  Payload(Bytes&& bytes)  // NOLINT(google-explicit-constructor)
      : buf_(std::make_shared<const Bytes>(std::move(bytes))),
        data_(buf_->data()),
        size_(buf_->size()) {}

  /// Deep copy of a borrowed buffer. The only way to build a Payload from
  /// bytes the caller keeps — recorded by the payload copy counters.
  static Payload copy_of(std::span<const std::uint8_t> data);

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] std::span<const std::uint8_t> view() const { return {data_, size_}; }
  /// Implicit view conversion: lets a Payload flow anywhere a byte span is
  /// read (ByteReader, to_string, writer.raw) without copying.
  operator std::span<const std::uint8_t>() const { return view(); }  // NOLINT(google-explicit-constructor)
  [[nodiscard]] std::string_view str_view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

  /// O(1) sub-view sharing the same buffer. Out-of-range clamps to the end.
  [[nodiscard]] Payload slice(std::size_t offset, std::size_t len) const;
  [[nodiscard]] Payload slice(std::size_t offset) const {
    return slice(offset, offset > size_ ? 0 : size_ - offset);
  }

  /// Deep copy back to an owned vector (counted, like copy_of).
  [[nodiscard]] Bytes to_bytes() const;

  friend bool operator==(const Payload& a, const Payload& b) {
    return std::equal(a.data_, a.data_ + a.size_, b.data_, b.data_ + b.size_);
  }
  friend bool operator==(const Payload& a, const Bytes& b) {
    return std::equal(a.data_, a.data_ + a.size_, b.begin(), b.end());
  }
  friend bool operator==(const Bytes& a, const Payload& b) { return b == a; }

 private:
  Payload(std::shared_ptr<const Bytes> buf, const std::uint8_t* data, std::size_t size)
      : buf_(std::move(buf)), data_(data), size_(size) {}

  std::shared_ptr<const Bytes> buf_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Process-wide deep-copy instrumentation (like event_encode_count()):
/// every Payload::copy_of / to_bytes bumps the count and adds the bytes.
/// Tests and benches diff these around a fan-out to certify the payload
/// plane stays zero-copy; not part of the simulation cost model.
std::uint64_t payload_copy_count();
std::uint64_t payload_bytes_copied();

}  // namespace gmmcs
