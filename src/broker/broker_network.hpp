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
// costs per hop. The *control plane* (interest advertisements and route
// computation) is applied instantaneously through this coordinator object,
// standing in for NaradaBrokering's gossip of subscription tables. The
// experiments measure data-plane behaviour only.
#pragma once

#include <algorithm>
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
  /// Not one-shot: report_link() recomputes the same tables around failed
  /// links at runtime, so routes self-heal as detectors fire.
  void finalize();

  // --- Self-healing control plane ---
  /// A broker's failure detector reporting the (a,b) link down or back up.
  /// Both ends report independently; duplicate reports are deduplicated and
  /// only genuine transitions trigger a route recompute (and the
  /// on_route_repair callback). Link identity is undirected.
  void report_link(BrokerId a, BrokerId b, bool up);
  [[nodiscard]] bool link_considered_up(BrokerId a, BrokerId b) const {
    return !down_links_.contains(std::minmax(a, b));
  }
  /// Observer for repair instrumentation: (a, b, up, at) on each genuine
  /// link-state transition, after routes have been rebuilt.
  void on_route_repair(
      std::function<void(BrokerId, BrokerId, bool, SimTime)> cb) {
    route_listener_ = std::move(cb);
  }
  /// Times the routing tables were rebuilt by report_link transitions.
  [[nodiscard]] std::uint64_t route_recomputes() const { return route_recomputes_; }

  // --- Gossiped link-state (DESIGN.md §13) ---
  /// Switches route repair from the instantaneous shared-table shortcut to
  /// gossip: each broker keeps its *own* view of down links, learns about
  /// remote failures only from kLinkState advertisements flooded over the
  /// (simulated, latency-paying) peer links, and routes its row from that
  /// view. Off by default — fault-free runs carry no gossip traffic and
  /// existing outputs stay byte-identical. Set before the run starts.
  void set_gossip(bool enabled) { gossip_ = enabled; }
  [[nodiscard]] bool gossip_enabled() const { return gossip_; }
  /// A broker applying a received link-state advertisement to its own
  /// routing view (gossip mode only).
  void apply_link_state(BrokerId at, BrokerId a, BrokerId b, bool up);

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
  /// next query after finalize(), report_link() or apply_link_state() sees
  /// the rebuilt routes. Throws like RouteTables::next_hop.
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
  /// routing-table rebuild by report_link() / apply_link_state().
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Benchmark-facing only: perfbench reads the tables through
  /// `snapshot()->…`. New code calls routes(), interest() and epoch().
  [[nodiscard]] ControlSnapshotPtr snapshot() const { return this; }

 private:
  /// BFS over adjacency_ minus down_links_; shared by finalize() and
  /// report_link().
  void rebuild_routes();
  /// Rebuilds one broker's routing row from the down-set it believes in:
  /// the shared down_links_ normally, its gossip view in gossip mode.
  void rebuild_route_row(BrokerId src);
  /// Widens routes_ to the current broker count, keeping built rows (a
  /// broker added after finalize() gets an unbuilt row and column).
  void grow_routes();

  sim::Network* net_;
  std::vector<std::unique_ptr<BrokerNode>> brokers_;
  std::map<BrokerId, std::set<BrokerId>> adjacency_;
  /// Links currently declared down by some broker's failure detector,
  /// keyed undirected (min id, max id).
  std::set<std::pair<BrokerId, BrokerId>> down_links_;
  bool gossip_ = false;
  /// Gossip mode: each broker's private view of down links, fed by the
  /// kLinkState advertisements that actually reached it.
  std::map<BrokerId, std::set<std::pair<BrokerId, BrokerId>>> view_down_;
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
