// Epoch snapshots of the broker control plane (DESIGN.md §12).
//
// The fabric's routing tables and broker interest state are read on every
// published event (the dispatch hot path) but mutated only by rare control
// traffic: subscribe/unsubscribe advertisements, link-state reports, route
// repair. BrokerNetwork owns the mutable tables and publishes them as
// immutable, numbered epochs; dispatch paths read only the published
// epoch. A mutation made inside a run is published by a same-timestamp
// event, so every event sequenced before that event still reads the old
// epoch — the visibility contract of DESIGN.md §12.
//
// The types below carry no mutable members and no mutating methods, and
// readers only hold `const` handles to them. Reclamation is shared_ptr
// refcounting: an old epoch stays alive exactly as long as some reader
// still holds it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "broker/topic.hpp"

namespace gmmcs::broker {

/// Flattened, immutable broker-interest table: the read-side counterpart
/// of SubscriptionIndex (which keeps refcounts and a mutable match cache
/// that a published epoch must not share). Built by
/// SubscriptionIndex::flatten(); subscriber ids are broker ids here.
struct InterestTable {
  using SubscriberId = std::uint32_t;

  struct WildcardRow {
    TopicFilter filter;
    std::vector<SubscriberId> ids;  // sorted
  };

  /// Concrete filter pattern -> sorted subscriber ids.
  std::unordered_map<std::string, std::vector<SubscriberId>> exact;
  std::vector<WildcardRow> wildcards;

  /// Sorted, deduplicated subscribers matching `topic`, minus `exclude`.
  /// Matches SubscriptionIndex::matches(topic, exclude) exactly.
  [[nodiscard]] std::vector<SubscriberId> matches(const std::string& topic,
                                                  SubscriberId exclude) const;
};

/// Immutable shortest-path routing tables, dense over broker ids
/// (add_broker assigns ids 0..n-1): entry [from * n + to] of the two
/// n x n matrices is the first hop and the hop count from `from` toward
/// `to`. A row is built (finalize() or a repair covered `from`) exactly
/// when its diagonal distance is 0.
struct RouteTables {
  /// first_hop entry with no route (unreachable, self, or unbuilt row).
  static constexpr std::uint32_t kNoHop = 0xffffffffU;

  /// Matrix side: the broker count when the matrices were last sized.
  std::uint32_t n = 0;
  std::vector<std::uint32_t> first_hop;  // n * n; kNoHop where no route
  std::vector<int> hop_count;            // n * n; -1 where unreachable

  /// First hop from `from` toward `to`; throws like the pre-snapshot
  /// BrokerNetwork queries (unbuilt row = finalize() never ran for
  /// `from`; no entry = partitioned, or `to == from`).
  [[nodiscard]] std::uint32_t next_hop(std::uint32_t from, std::uint32_t to) const {
    if (distance(from, from) != 0) throw_not_finalized();
    const std::uint32_t hop = to < n ? first_hop[std::size_t{from} * n + to] : kNoHop;
    if (hop == kNoHop) throw_no_route(from, to);
    return hop;
  }
  /// Hop distance; -1 if unreachable, out of range, or the row is unbuilt.
  [[nodiscard]] int distance(std::uint32_t from, std::uint32_t to) const {
    return from < n && to < n ? hop_count[std::size_t{from} * n + to] : -1;
  }

 private:
  [[noreturn]] static void throw_not_finalized();
  [[noreturn]] static void throw_no_route(std::uint32_t from, std::uint32_t to);
};

/// One published epoch of the control plane. Two-level sharing: an
/// interest-only change republishes with the routes pointer unchanged (and
/// vice versa), so writers rebuild only what they touched.
class ControlSnapshot {
 public:
  ControlSnapshot(std::uint64_t epoch, std::shared_ptr<const RouteTables> routes,
                  std::shared_ptr<const InterestTable> interest)
      : epoch_(epoch), routes_(std::move(routes)), interest_(std::move(interest)) {}

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const RouteTables& routes() const { return *routes_; }
  [[nodiscard]] const InterestTable& interest() const { return *interest_; }
  [[nodiscard]] const std::shared_ptr<const RouteTables>& routes_ptr() const { return routes_; }
  [[nodiscard]] const std::shared_ptr<const InterestTable>& interest_ptr() const {
    return interest_;
  }

 private:
  std::uint64_t epoch_;
  std::shared_ptr<const RouteTables> routes_;
  std::shared_ptr<const InterestTable> interest_;
};

using ControlSnapshotPtr = std::shared_ptr<const ControlSnapshot>;

}  // namespace gmmcs::broker
