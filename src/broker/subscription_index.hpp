// Indexed topic-to-subscriber matching: the routing fast path.
//
// The naive matcher walks every subscriber and every filter per published
// event — O(subscribers x filters) segment comparisons, which is exactly
// the per-packet overhead the paper's broker optimization removed. This
// index splits the subscription table the way 2003-era brokers did:
//
//  * concrete filters (no wildcards) live in an exact-topic hash map, so a
//    published topic finds them with one lookup;
//  * wildcard filters ("*"/"#") live in a short side list that is scanned
//    only when present;
//  * results are memoized per topic in a match cache stamped with a
//    subscription generation counter, so steady-state media traffic (many
//    events, few distinct topics, rare churn) pays one hash probe per
//    event. Any subscribe/unsubscribe/disconnect bumps the generation and
//    lazily invalidates every cached line.
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
#include <unordered_map>
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
  /// Bumped by every table mutation; cached match lines from older
  /// generations are recomputed on next use.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return cache_misses_; }

 private:
  /// Refcounts ordered by subscriber id so match results come out sorted.
  using RefMap = std::map<SubscriberId, int>;

  struct WildcardEntry {
    TopicFilter filter;
    RefMap refs;
  };

  struct CacheLine {
    std::string topic;
    std::uint64_t generation = 0;
    std::vector<SubscriberId> ids;
  };

  void bump_generation();

  /// Lets the pattern tables be probed with a topic's view.
  struct PatternHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  using PatternMap = std::unordered_map<std::string, RefMap, PatternHash, std::equal_to<>>;

  /// Concrete filter pattern -> subscriber refcounts (one hash probe per
  /// published topic).
  PatternMap exact_;
  /// Filters containing '*' or a trailing '#' (scanned per cache miss).
  std::vector<WildcardEntry> wildcards_;
  /// Invalid filters, kept purely so unsubscribe refcounts balance.
  PatternMap invalid_;
  /// Entries across exact_, wildcards_ and invalid_, kept by every
  /// mutation (see entry_count()).
  std::size_t entries_ = 0;
  std::uint64_t generation_ = 1;

  /// topic (as published) -> match result: an OpenIndex from the topic's
  /// hash to its line, so a hit hashes the topic's view and compares it
  /// once. Lines are lazily invalidated by generation mismatch; the cache
  /// is reset if it ever grows past the cap, and a reset reuses the lines
  /// (a line never moves, so a returned reference outlives a reset).
  mutable std::vector<std::unique_ptr<CacheLine>> lines_;
  mutable std::size_t lines_used_ = 0;
  mutable OpenIndex cache_;
  /// matches(topic, exclude)'s reused result.
  mutable std::vector<SubscriberId> excluded_;
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;
};

}  // namespace gmmcs::broker
