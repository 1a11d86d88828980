// Immutable, ref-counted payload buffer — the zero-copy payload plane.
//
// A Payload is a handle to a heap block plus a view into its bytes.
// Copying a Payload bumps the block's count; slicing shares the block. The
// routed-event fast path allocates an event's bytes exactly once — at the
// publisher's encode — and every later carrier (datagram, stream segment
// inbox, RoutedEvent wire cache, decoded Event::payload, RTP fan-out)
// holds a view of that one allocation.
//
// Ownership model (DESIGN.md §15):
//  * a frame built by a FrameWriter is ONE heap block: a small header (the
//    count), one byte of headroom, then the frame bytes.
//  * construction from `Bytes&&` ADOPTS the vector — a move, never a copy;
//    the block then holds the vector (its header is the one allocation).
//    There is deliberately no construction from `const Bytes&`: turning a
//    borrowed buffer into a Payload is a deep copy and must be spelled
//    `Payload::copy_of(...)`, which the copy counters record.
//  * `slice()` is O(1) and shares the block; a slice keeps the whole
//    block alive (fine here: frames are short-lived and a payload
//    dominates its frame's size).
//  * `prepend(b)` puts one byte in front of a frame without moving it: a
//    writer-built frame's headroom takes it (the stream's kData byte). A
//    view without free headroom — an adopted vector, a slice from inside a
//    frame — falls back to a counted copy.
//  * `to_bytes()` is the escape hatch back to an owned vector; it is a
//    counted deep copy like copy_of().
//
// Threading: the count is a plain integer, not an atomic. A Payload and
// every copy of it stay on one thread — the thread of the simulation that
// made it. The simulator is one serial event loop and src/ starts no
// threads; a bench that runs several simulations on threads of its own
// keeps each simulation's payloads on that simulation's thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

#include "common/bytes.hpp"

namespace gmmcs {

class FrameWriter;

class Payload {
 public:
  Payload() = default;

  /// Adopts a byte vector: the buffer moves, no bytes are copied. Implicit
  /// so freshly-framed buffers (`w.take()`, `to_bytes(...)`) flow into
  /// Payload-typed carriers unchanged.
  Payload(Bytes&& bytes);  // NOLINT(google-explicit-constructor)

  Payload(const Payload& other) noexcept
      : block_(other.block_), data_(other.data_), size_(other.size_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Payload(Payload&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  Payload& operator=(const Payload& other) noexcept {
    if (other.block_ != nullptr) ++other.block_->refs;
    drop();
    block_ = other.block_;
    data_ = other.data_;
    size_ = other.size_;
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      drop();
      block_ = std::exchange(other.block_, nullptr);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~Payload() { drop(); }

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

  /// O(1) sub-view sharing the same block. Out-of-range clamps to the end.
  [[nodiscard]] Payload slice(std::size_t offset, std::size_t len) const;
  [[nodiscard]] Payload slice(std::size_t offset) const {
    return slice(offset, offset > size_ ? 0 : size_ - offset);
  }

  /// This payload with `byte` in front. A view that starts at a
  /// writer-built frame's first byte gets it in the frame's headroom: no
  /// allocation, no copy, the same block. The headroom holds one value for
  /// good: once filled, only the same byte fits there again. Anything else
  /// is a counted deep copy into a fresh block.
  [[nodiscard]] Payload prepend(std::uint8_t byte) const;

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
  friend class FrameWriter;

  /// The heap block every handle points at. An inline block is followed
  /// in the same allocation by its headroom byte and then its bytes; an
  /// adopted block is an AdoptedBlock holding the moved-in vector.
  struct Block {
    std::uint32_t refs = 1;
    bool adopted = false;
    /// Inline blocks: the headroom byte holds a value (see prepend()).
    bool head_filled = false;
    [[nodiscard]] std::uint8_t* head() { return reinterpret_cast<std::uint8_t*>(this + 1); }
    [[nodiscard]] std::uint8_t* body() { return head() + 1; }
  };
  struct AdoptedBlock;
  /// A fresh inline block with room for `size` bytes behind the headroom.
  static Block* allocate(std::size_t size);
  /// Frees a block whose count reached zero.
  static void destroy(Block* block) noexcept;

  Payload(Block* block, const std::uint8_t* data, std::size_t size)
      : block_(block), data_(data), size_(size) {}

  void drop() noexcept {
    if (block_ != nullptr && --block_->refs == 0) destroy(block_);
  }

  Block* block_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Writes one frame straight into a Payload block: exactly `size` bytes,
/// in network byte order like ByteWriter, behind one byte of headroom.
/// The frame costs one allocation, made here; take() hands it out with no
/// copy. Writing more than `size` bytes, or taking a short frame, is a
/// logic error and throws.
class FrameWriter {
 public:
  explicit FrameWriter(std::size_t size);
  ~FrameWriter();
  FrameWriter(const FrameWriter&) = delete;
  FrameWriter& operator=(const FrameWriter&) = delete;

  // Inline: an encode writes a dozen fields per frame on the hop.
  void u8(std::uint8_t v) { *reserve(1) = v; }
  void u16(std::uint16_t v) {
    std::uint8_t* p = reserve(2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }
  void u32(std::uint32_t v) {
    std::uint8_t* p = reserve(4);
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(std::span<const std::uint8_t> data);
  /// Writes the string bytes verbatim (no terminator, no length prefix).
  void str(std::string_view s);
  /// Length-prefixed string: u16 length followed by the bytes.
  void lstr(std::string_view s);

  /// The finished frame; the writer is empty afterwards.
  Payload take();

 private:
  /// The next n bytes to write; throws past the end.
  std::uint8_t* reserve(std::size_t n) {
    if (n > size_ - pos_) overflow();
    std::uint8_t* at = block_->body() + pos_;
    pos_ += n;
    return at;
  }
  [[noreturn]] static void overflow();

  Payload::Block* block_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Process-wide deep-copy instrumentation (like event_encode_count()):
/// every Payload::copy_of / to_bytes / copying prepend bumps the count and
/// adds the bytes. Tests and benches diff these around a fan-out to
/// certify the payload plane stays zero-copy; not part of the simulation
/// cost model.
std::uint64_t payload_copy_count();
std::uint64_t payload_bytes_copied();

}  // namespace gmmcs
