// OpenIndex: the tree's one open-addressing hash index.
//
// Maps keys to 32-bit values — slot numbers, ids, line numbers of a table
// the caller owns. An entry is 8 bytes: the value and a 32-bit tag, the
// key's low word plus an even multiple of its high word, times 2^32/φ.
// The table is a power of two kept at most half full; an entry's home is
// the top bits of its tag, collisions probe linearly, and erase shifts the
// probe chain back so no tombstone is ever left. A lookup is a multiply
// and, at half load, about 1.5 entry reads on average, with no allocation
// and no node per entry.
//
// A key of at most 32 bits (a port) is its own tag, since the multiply
// is a bijection: look it up by the key alone. A wider key (a host pair,
// an endpoint, a topic's hash) may share its tag with another, so its
// caller passes a predicate that confirms a candidate value really is its
// entry, by reading the key from the caller's own table.
//
// Used by Host's port table, Network's link index, StreamListener's
// demultiplexer and SubscriptionIndex's match cache.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <vector>

namespace gmmcs {

class OpenIndex {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// The value under `key` for which `same(value)` holds, or kNone.
  template <class Same>
  [[nodiscard]] std::uint32_t find(std::uint64_t key, Same&& same) const {
    const std::uint32_t* v = locate(tag(key), same);
    return v == nullptr ? kNone : *v;
  }
  /// The value under a key of at most 32 bits, or kNone.
  template <std::unsigned_integral Key>
    requires(sizeof(Key) <= 4)
  [[nodiscard]] std::uint32_t find(Key key) const {
    return find(key, AnyValue{});
  }

  /// The stored value under a key of at most 32 bits, to overwrite in
  /// place; or nullptr. Valid until the next insert().
  template <std::unsigned_integral Key>
    requires(sizeof(Key) <= 4)
  [[nodiscard]] std::uint32_t* lookup(Key key) {
    return const_cast<std::uint32_t*>(locate(tag(key), AnyValue{}));
  }

  /// Adds (key, value), which must not be kNone. The caller knows that no
  /// entry it would call the same is present.
  void insert(std::uint64_t key, std::uint32_t value) {
    if (2 * (size_ + 1) > table_.size()) grow();
    table_[free_pos(tag(key))] = Entry{tag(key), value};
    ++size_;
  }

  /// Removes the entry (key, value); false if there is none.
  bool erase(std::uint64_t key, std::uint32_t value) {
    const std::uint32_t t = tag(key);
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(t);
    for (; table_[i].value != kNone; i = (i + 1) & mask) {
      if (table_[i].tag == t && table_[i].value == value) break;
    }
    if (table_[i].value == kNone) return false;
    for (std::size_t j = (i + 1) & mask; table_[j].value != kNone; j = (j + 1) & mask) {
      // The entry at j may fill the hole at i unless its home lies
      // cyclically in (i, j].
      if (((j - home(table_[j].tag)) & mask) >= ((j - i) & mask)) {
        table_[i] = table_[j];
        i = j;
      }
    }
    table_[i] = Entry{};
    --size_;
    return true;
  }

  /// Drops every entry; the table keeps its size.
  void clear() {
    table_.assign(table_.size(), Entry{});
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::uint32_t tag = 0;
    std::uint32_t value = kNone;
  };
  /// The predicate of a key of at most 32 bits: its tag is the key.
  struct AnyValue {
    constexpr bool operator()(std::uint32_t) const { return true; }
  };

  static std::uint32_t tag(std::uint64_t key) {
    // The high half is scaled before it joins the low one, so a host pair
    // (a, b) and its reverse (b, a), or two pairs with equal a ^ b, keep
    // apart: lo + hi * K equals hi + lo * K only if (lo - hi)(1 - K) is 0
    // mod 2^32, and with K even, 1 - K is odd, so only if lo == hi. A key
    // of at most 32 bits has hi = 0 and stays its own bijective tag.
    const auto lo = static_cast<std::uint32_t>(key);
    const auto hi = static_cast<std::uint32_t>(key >> 32);
    return (lo + hi * 0x85EBCA6Cu) * 0x9E3779B9u;
  }
  [[nodiscard]] std::size_t home(std::uint32_t t) const { return t >> shift_; }

  template <class Same>
  [[nodiscard]] const std::uint32_t* locate(std::uint32_t t, const Same& same) const {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = home(t); table_[i].value != kNone; i = (i + 1) & mask) {
      if (table_[i].tag == t && same(table_[i].value)) return &table_[i].value;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t free_pos(std::uint32_t t) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(t);
    while (table_[i].value != kNone) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Entry> old(2 * table_.size());
    old.swap(table_);
    shift_ = 32 - static_cast<unsigned>(std::countr_zero(table_.size()));
    for (const Entry& e : old) {
      if (e.value != kNone) table_[free_pos(e.tag)] = e;
    }
  }

  static constexpr unsigned kFirstBits = 4;  // 16 entries
  std::vector<Entry> table_ = std::vector<Entry>(std::size_t{1} << kFirstBits);
  unsigned shift_ = 32 - kFirstBits;
  std::size_t size_ = 0;
};

}  // namespace gmmcs
