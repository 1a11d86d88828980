#include "broker/broker_network.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace gmmcs::broker {

std::string ClusterAddress::to_string() const {
  return std::to_string(super_cluster) + "." + std::to_string(cluster) + "." +
         std::to_string(node);
}

BrokerNetwork::BrokerNetwork(sim::Network& net) : net_(&net) {}

BrokerNode& BrokerNetwork::add_broker(sim::Host& host, BrokerNode::Config cfg) {
  auto id = static_cast<BrokerId>(brokers_.size());
  brokers_.push_back(std::make_unique<BrokerNode>(host, id, cfg));
  BrokerNode& node = *brokers_.back();
  node.network_ = this;
  adjacency_[id];
  return node;
}

BrokerNode& BrokerNetwork::broker(BrokerId id) {
  return *brokers_.at(id);
}

void BrokerNetwork::link(BrokerId a, BrokerId b) {
  if (a == b) throw std::invalid_argument("BrokerNetwork::link: self-link");
  BrokerNode& na = broker(a);
  BrokerNode& nb = broker(b);
  // One stream connection in each direction (send paths are independent).
  auto ab = transport::StreamConnection::connect(na.host(), nb.stream_endpoint());
  auto ba = transport::StreamConnection::connect(nb.host(), na.stream_endpoint());
  // Each broker takes broker-to-broker frames only from its peers' links.
  nb.peer_streams_.insert(ab->local());
  na.peer_streams_.insert(ba->local());
  na.add_peer_link(b, std::move(ab));
  nb.add_peer_link(a, std::move(ba));
  adjacency_[a].insert(b);
  adjacency_[b].insert(a);
}

void BrokerNetwork::finalize() {
  rebuild_routes();
  ++epoch_;
}

void BrokerNetwork::rebuild_routes() {
  const auto n = static_cast<std::uint32_t>(brokers_.size());
  routes_.n = n;
  routes_.first_hop.assign(std::size_t{n} * n, RouteTables::kNoHop);
  routes_.hop_count.assign(std::size_t{n} * n, -1);
  for (BrokerId src = 0; src < n; ++src) rebuild_route_row(src);
}

void BrokerNetwork::grow_routes() {
  const auto n = static_cast<std::uint32_t>(brokers_.size());
  if (routes_.n == n) return;
  RouteTables grown;
  grown.n = n;
  grown.first_hop.assign(std::size_t{n} * n, RouteTables::kNoHop);
  grown.hop_count.assign(std::size_t{n} * n, -1);
  for (std::size_t from = 0; from < routes_.n; ++from) {
    std::copy_n(routes_.first_hop.data() + from * routes_.n, routes_.n,
                grown.first_hop.data() + from * n);
    std::copy_n(routes_.hop_count.data() + from * routes_.n, routes_.n,
                grown.hop_count.data() + from * n);
  }
  routes_ = std::move(grown);
}

void BrokerNetwork::rebuild_route_row(BrokerId src) {
  // BFS from one broker (links are uniform cost), skipping the links in
  // that broker's own view.
  grow_routes();
  const auto& table = brokers_[src]->link_table_;
  const bool any_down = brokers_[src]->links_down_ != 0;
  const std::size_t row = std::size_t{src} * routes_.n;
  std::uint32_t* hops = routes_.first_hop.data() + row;
  int* dist = routes_.hop_count.data() + row;
  std::fill_n(hops, routes_.n, RouteTables::kNoHop);
  std::fill_n(dist, routes_.n, -1);
  dist[src] = 0;
  std::deque<BrokerId> queue{src};
  while (!queue.empty()) {
    BrokerId cur = queue.front();
    queue.pop_front();
    for (BrokerId nb : adjacency_.at(cur)) {
      if (dist[nb] >= 0) continue;
      if (any_down) {
        const auto it = table.find(std::minmax(cur, nb));
        if (it != table.end() && it->second.down()) continue;
      }
      dist[nb] = dist[cur] + 1;
      // First hop on the path: neighbor itself if cur==src, else
      // inherit cur's first hop.
      hops[nb] = (cur == src) ? nb : hops[cur];
      queue.push_back(nb);
    }
  }
}

bool BrokerNetwork::apply_report(BrokerId at, const LinkStateMessage& m) {
  BrokerNode& view = broker(at);
  const auto key = std::minmax(m.a, m.b);
  BrokerNode::LinkEntry& entry = view.link_table_[key];
  BrokerNode::LinkReport& report = entry.ends[m.origin == key.first ? 0 : 1];
  if (m.seq <= report.seq) return false;
  // Only the broker's own detector moves link_considered_up.
  const bool own = m.origin == at;
  const bool was_up = own && link_considered_up(m.a, m.b);
  const bool was_down = entry.down();
  report = {m.seq, m.up};
  if (entry.down() != was_down) {
    view.links_down_ = was_down ? view.links_down_ - 1 : view.links_down_ + 1;
    rebuild_route_row(at);
    ++route_recomputes_;
    ++epoch_;
  }
  if (own && route_listener_ && link_considered_up(m.a, m.b) != was_up) {
    route_listener_(key.first, key.second, !was_up, net_->loop().now());
  }
  return true;
}

void BrokerNetwork::set_address(BrokerId id, ClusterAddress addr) {
  addresses_[id] = addr;
}

ClusterAddress BrokerNetwork::address(BrokerId id) const {
  auto it = addresses_.find(id);
  return it == addresses_.end() ? ClusterAddress{} : it->second;
}

void BrokerNetwork::link_hierarchy() {
  // Group brokers by (super_cluster, cluster).
  std::map<std::pair<int, int>, std::vector<BrokerId>> clusters;
  std::map<int, std::vector<std::pair<int, BrokerId>>> supers;  // sc -> (cluster, leader)
  for (const auto& [id, addr] : addresses_) {
    clusters[{addr.super_cluster, addr.cluster}].push_back(id);
  }
  // Full mesh within each cluster; lowest id is the cluster leader.
  for (auto& [key, members] : clusters) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        link(members[i], members[j]);
      }
    }
    supers[key.first].push_back({key.second, members.front()});
  }
  // Cluster leaders form a ring inside each super-cluster; the first
  // leader of each super-cluster joins the inter-super ring.
  std::vector<BrokerId> super_leaders;
  for (auto& [sc, leaders] : supers) {
    for (std::size_t i = 0; i + 1 < leaders.size(); ++i) {
      link(leaders[i].second, leaders[i + 1].second);
    }
    if (leaders.size() > 2) link(leaders.back().second, leaders.front().second);
    super_leaders.push_back(leaders.front().second);
  }
  for (std::size_t i = 0; i + 1 < super_leaders.size(); ++i) {
    link(super_leaders[i], super_leaders[i + 1]);
  }
  if (super_leaders.size() > 2) link(super_leaders.back(), super_leaders.front());
  finalize();
}

void BrokerNetwork::advertise(const TopicFilter& filter, BrokerId origin, bool add) {
  if (add) {
    interest_.subscribe(origin, filter);
  } else {
    interest_.unsubscribe(origin, filter);
  }
  ++epoch_;
}

void RouteTables::throw_not_finalized() {
  throw std::logic_error("BrokerNetwork: finalize() not called");
}

void RouteTables::throw_no_route(std::uint32_t from, std::uint32_t to) {
  throw std::logic_error("BrokerNetwork: no route from " + std::to_string(from) + " to " +
                         std::to_string(to));
}

}  // namespace gmmcs::broker
