// The distributed broker fabric: topology, routing and interest
// propagation across a "dynamic collection of brokers" (paper §2.3).
//
// NaradaBrokering organizes brokers hierarchically (nodes within clusters
// within super-clusters); events travel broker-to-broker along shortest
// paths toward every broker with matching subscriber interest, and each
// forwarded copy carries its remaining target set so intermediate brokers
// never duplicate or loop.
//
// Modelling note (see DESIGN.md §2): the *data plane* — every forwarded
// event — is fully message-accurate, paying dispatch CPU, NIC and link
// costs per hop. Link state is too: each broker routes from its own
// link-state table (BrokerNode), where a link is down if either
// endpoint's latest report says so. It changes only when the broker's own
// detector reports, or a flooded kLinkState newer than its origin's last
// reaches it over the peer links. This object keeps the adjacency and
// rebuilds broker src's row from broker src's table. Interest
// advertisements are applied instantaneously through this coordinator
// object, standing in for NaradaBrokering's gossip of subscription tables.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker_node.hpp"
#include "broker/route_tables.hpp"
#include "broker/subscription_index.hpp"
#include "broker/topic.hpp"
#include "sim/network.hpp"

namespace gmmcs::broker {

/// NaradaBrokering-style 3-level hierarchical broker address.
struct ClusterAddress {
  int super_cluster = 0;
  int cluster = 0;
  int node = 0;

  auto operator<=>(const ClusterAddress&) const = default;
  [[nodiscard]] std::string to_string() const;
};

class BrokerNetwork;
/// Benchmark-facing only: perfbench names this type for what snapshot()
/// returns. New code holds the BrokerNetwork and calls its accessors.
using ControlSnapshotPtr = const BrokerNetwork*;

class BrokerNetwork {
 public:
  explicit BrokerNetwork(sim::Network& net);

  /// Creates a broker on the given host and registers it in the fabric.
  BrokerNode& add_broker(sim::Host& host, BrokerNode::Config cfg = {});
  [[nodiscard]] BrokerNode& broker(BrokerId id);
  [[nodiscard]] std::size_t broker_count() const { return brokers_.size(); }

  /// Connects two brokers with a bidirectional link (a stream connection
  /// in each direction). Call finalize() after all links are in place.
  void link(BrokerId a, BrokerId b);
  /// Computes shortest-path routing tables over the current topology.
  /// Not one-shot: apply_report() rebuilds single rows around failed
  /// links at runtime, so routes self-heal as detectors fire and their
  /// advertisements spread.
  void finalize();

  // --- Self-healing control plane (DESIGN.md §8, §13) ---
  /// Broker `at` taking endpoint `m.origin`'s report, numbered `m.seq`,
  /// that link (m.a, m.b) is up or down: kept only if newer than that
  /// origin's last on that link (else false, and nothing changes), and
  /// `at`'s row rebuilt if the link's state in its view changed. A
  /// detector transition is a report whose origin is `at`.
  [[nodiscard]] bool apply_report(BrokerId at, const LinkStateMessage& m);
  /// Neither endpoint's own detector last reported the link down.
  [[nodiscard]] bool link_considered_up(BrokerId a, BrokerId b) const {
    return !brokers_.at(a)->peer_considered_down(b) && !brokers_.at(b)->peer_considered_down(a);
  }
  /// Observer for repair instrumentation: (a, b, up, at) whenever
  /// link_considered_up(a, b) changes (down at the first end's "down", up
  /// at the second end's "up"), after the reporter's row is rebuilt.
  void on_route_repair(
      std::function<void(BrokerId, BrokerId, bool, SimTime)> cb) {
    route_listener_ = std::move(cb);
  }
  /// Routing rows rebuilt by apply_report(): one per change to one
  /// broker's view.
  [[nodiscard]] std::uint64_t route_recomputes() const { return route_recomputes_; }

  /// Optional hierarchical address labels; set_address also implies
  /// nothing topologically — use link_hierarchy to wire by address.
  void set_address(BrokerId id, ClusterAddress addr);
  [[nodiscard]] ClusterAddress address(BrokerId id) const;
  /// Wires the fabric from the assigned addresses: full mesh inside each
  /// cluster, the lowest-numbered node of each cluster links to the peer
  /// clusters' leaders inside a super-cluster, and super-cluster leaders
  /// form a ring. Then finalizes.
  void link_hierarchy();

  // --- Interest control plane (DESIGN.md §12) ---
  /// Applies an interest mutation to the one interest table; the next
  /// interested_brokers() read sees it.
  void advertise(const TopicFilter& filter, BrokerId origin, bool add);
  /// All brokers (excluding `exclude`) with interest matching `topic`,
  /// sorted by id, read from the live table: every advertise() made before
  /// the call is visible. Written into a buffer the interest table reuses:
  /// valid until the next interest query, and allocation-free once warmed.
  [[nodiscard]] const std::vector<BrokerId>& interested_brokers(std::string_view topic,
                                                                BrokerId exclude) const {
    return interest_.matches(topic, exclude);
  }

  // --- Routing queries ---
  /// First hop from `from` toward `to`, read from routes_ in place: the
  /// next query after finalize() or apply_report() sees the rebuilt
  /// routes. Throws like RouteTables::next_hop.
  [[nodiscard]] BrokerId next_hop(BrokerId from, BrokerId to) const {
    return routes_.next_hop(from, to);
  }
  /// Hop distance; -1 if unreachable.
  [[nodiscard]] int distance(BrokerId from, BrokerId to) const {
    return routes_.distance(from, to);
  }

  /// The control tables themselves, for callers that make several related
  /// queries (route_remote: distance then next_hop per target).
  [[nodiscard]] const RouteTables& routes() const { return routes_; }
  [[nodiscard]] const SubscriptionIndex& interest() const { return interest_; }
  /// Control-plane changes so far: one per finalize(), advertise() and
  /// routing-row rebuild by apply_report().
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Benchmark-facing only: perfbench reads the tables through
  /// `snapshot()->…`. New code calls routes(), interest() and epoch().
  [[nodiscard]] ControlSnapshotPtr snapshot() const { return this; }

 private:
  /// Every broker's row, each over its own view (finalize()).
  void rebuild_routes();
  /// Rebuilds one broker's routing row: BFS over adjacency_ minus the
  /// links down in broker src's link-state table.
  void rebuild_route_row(BrokerId src);
  /// Widens routes_ to the current broker count, keeping built rows (a
  /// broker added after finalize() gets an unbuilt row and column).
  void grow_routes();

  sim::Network* net_;
  std::vector<std::unique_ptr<BrokerNode>> brokers_;
  std::map<BrokerId, std::set<BrokerId>> adjacency_;
  std::function<void(BrokerId, BrokerId, bool, SimTime)> route_listener_;
  std::uint64_t route_recomputes_ = 0;
  /// The routing matrices, rebuilt in place by the BFS and read in place
  /// by every routing query.
  RouteTables routes_;
  /// Broker interest table (subscriber = BrokerId), sharing the indexed
  /// fast path (exact hash + wildcard list + match cache) with the
  /// per-node client table. Advertisements are refcounted per origin.
  SubscriptionIndex interest_;
  std::map<BrokerId, ClusterAddress> addresses_;
  std::uint64_t epoch_ = 0;
};

}  // namespace gmmcs::broker
