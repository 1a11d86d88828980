// Indexed topic-to-subscriber matching: the routing fast path.
//
// The naive matcher walks every subscriber and every filter per published
// event — O(subscribers x filters) segment comparisons, which is exactly
// the per-packet overhead the paper's broker optimization removed. This
// index splits the subscription table the way 2003-era brokers did:
//
//  * concrete filters (no wildcards) live in an exact-topic ordered map,
//    so a published topic finds them with one lookup;
//  * wildcard filters ("*"/"#") live in a short side list that is scanned
//    only when present;
//  * results are memoized per topic in a match cache, so steady-state
//    media traffic (many events, few distinct topics) pays one hash probe
//    per event. A mutation invalidates only the lines it can change, and
//    only when it adds or removes an entry (not a refcount step): an exact
//    filter's line is its pattern, found by one probe and reset, so a
//    zapper joining one session leaves every other session's line warm;
//    a wildcard filter bumps a generation that every line is stamped
//    with; a stray (unnormalized) spelling's line, which no probe by
//    pattern can find, is reset by every exact mutation; and an invalid
//    filter, which matches nothing, invalidates nothing.
//
// The index is shared by BrokerNode (subscriber = ClientId) and
// BrokerNetwork (subscriber = BrokerId); entries are refcounted so the
// network's per-origin advertisement counts work unchanged.
//
// This is host-CPU bookkeeping only: the *simulated* dispatch cost model
// (DispatchConfig) is charged exactly as before, so measured results are
// identical while the simulator itself runs much faster (see DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broker/topic.hpp"
#include "common/open_index.hpp"

namespace gmmcs::broker {

class SubscriptionIndex {
 public:
  /// Wide enough for both ClientId and BrokerId.
  using SubscriberId = std::uint32_t;

  /// Adds one reference to (subscriber, filter). Invalid filters are
  /// stored for refcounting symmetry but never match anything.
  void subscribe(SubscriberId id, const TopicFilter& filter);
  /// Drops one reference; the entry disappears when its count reaches 0.
  /// A departing subscriber drops each of its filters this way: the cost
  /// is its own entries, not the table's.
  void unsubscribe(SubscriberId id, const TopicFilter& filter);

  /// Sorted, deduplicated ids of every subscriber with a filter matching
  /// `topic`. Cached per topic; valid until the next table mutation.
  const std::vector<SubscriberId>& matches(std::string_view topic) const;
  /// Same, minus `exclude` (publisher / origin-broker exclusion), written
  /// into a buffer the index reuses: valid until the next call of either
  /// form, and allocation-free once warmed.
  const std::vector<SubscriberId>& matches(std::string_view topic, SubscriberId exclude) const;

  /// Total (subscriber, filter) entries, counting each once regardless of
  /// refcount.
  [[nodiscard]] std::size_t entry_count() const { return entries_; }
  [[nodiscard]] std::size_t exact_topic_count() const { return exact_.size(); }
  [[nodiscard]] std::size_t wildcard_filter_count() const { return wildcards_.size(); }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return cache_misses_; }

 private:
  /// (subscriber, refcount) pairs in ascending subscriber id, so match
  /// results come out sorted: that order is the fan-out order. A flat
  /// vector, 8 B per entry rather than a tree node; ids are minted in
  /// ascending order, so a new subscriber is usually appended.
  using RefMap = std::vector<std::pair<SubscriberId, std::int32_t>>;

  struct WildcardEntry {
    TopicFilter filter;
    RefMap refs;
  };

  struct CacheLine {
    std::string topic;
    /// The generation_ the line was computed at; 0 once an exact mutation
    /// of its topic (or, for a stray spelling, of any topic) reset it.
    std::uint64_t generation = 0;
    std::vector<SubscriberId> ids;
  };

  /// Marks stale the cached lines that a new or removed entry of `filter`
  /// (a valid one) can change.
  void invalidate(const TopicFilter& filter);

  /// Transparent comparator: the pattern tables are probed with a topic's
  /// view.
  using PatternMap = std::map<std::string, RefMap, std::less<>>;

  /// Concrete filter pattern -> subscriber refcounts (one lookup per
  /// match-cache miss).
  PatternMap exact_;
  /// Filters containing '*' or a trailing '#' (scanned per cache miss).
  std::vector<WildcardEntry> wildcards_;
  /// Invalid filters, kept purely so unsubscribe refcounts balance.
  PatternMap invalid_;
  /// Entries across exact_, wildcards_ and invalid_, kept by every
  /// mutation (see entry_count()).
  std::size_t entries_ = 0;
  /// Bumped by each wildcard entry added or removed.
  std::uint64_t generation_ = 1;

  /// topic (as published) -> match result: an OpenIndex from the topic's
  /// hash to its line, so a hit hashes the topic's view and compares it
  /// once. A line from an older generation, or reset, is recomputed on
  /// use; the cache is reset if it ever grows past the cap, and a reset
  /// reuses the lines (a line never moves, so a returned reference
  /// outlives a reset).
  mutable std::vector<std::unique_ptr<CacheLine>> lines_;
  mutable std::size_t lines_used_ = 0;
  /// Lines whose topic is a stray (unnormalized) spelling: rare, since
  /// publishers normalize, and reset by every exact mutation.
  mutable std::vector<std::uint32_t> stray_lines_;
  mutable OpenIndex cache_;
  /// matches(topic, exclude)'s reused result.
  mutable std::vector<SubscriberId> excluded_;
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;
};

}  // namespace gmmcs::broker
