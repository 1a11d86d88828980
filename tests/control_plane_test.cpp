// The broker control plane (DESIGN.md §12): BrokerNetwork's one set of
// routing and interest tables, read in place, so a change is visible to the
// next read; and the dense RouteTables against the map-based BFS they
// replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/route_tables.hpp"
#include "broker/topic.hpp"
#include "common/random.hpp"
#include "property.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"

using namespace gmmcs;
using broker::BrokerId;

namespace {

/// 4-broker ring fabric on fresh hosts.
struct RingFixture {
  sim::EventLoop loop;
  sim::Network net{loop};
  broker::BrokerNetwork fabric{net};

  RingFixture() {
    for (int i = 0; i < 4; ++i) fabric.add_broker(net.add_host("b" + std::to_string(i)));
    for (int i = 0; i < 4; ++i) fabric.link(i, (i + 1) % 4);
    fabric.finalize();
    loop.run();  // settle peer-link handshakes
  }
};

/// Every reachable pair must be walkable: following next_hop from `from`
/// reaches `to` in exactly distance(from, to) steps. A half-built table
/// (cleared but not yet rebuilt) cannot pass this.
void expect_routes_complete(const broker::RouteTables& routes, BrokerId n) {
  for (BrokerId from = 0; from < n; ++from) {
    for (BrokerId to = 0; to < n; ++to) {
      if (from == to) continue;
      int d = routes.distance(from, to);
      ASSERT_GT(d, 0) << from << "->" << to;
      BrokerId cur = from;
      for (int hop = 0; hop < d; ++hop) cur = routes.next_hop(cur, to);
      EXPECT_EQ(cur, to) << "walk " << from << "->" << to;
    }
  }
}

}  // namespace

TEST(ControlPlane, UnfinalizedFabricHasNoRoutesOrInterest) {
  sim::EventLoop loop;
  sim::Network net(loop);
  broker::BrokerNetwork fabric(net);
  EXPECT_EQ(fabric.epoch(), 0u);
  EXPECT_EQ(fabric.routes().distance(0, 1), -1);
  EXPECT_THROW((void)fabric.routes().next_hop(0, 1), std::logic_error);
  EXPECT_TRUE(fabric.interested_brokers("/any/topic", 0).empty());
}

TEST(ControlPlane, RepairRoutesAroundTheDeadLink) {
  RingFixture f;
  const broker::RouteTables& routes = f.fabric.routes();
  expect_routes_complete(routes, 4);
  ASSERT_EQ(routes.distance(0, 1), 1);
  const std::uint64_t epoch0 = f.fabric.epoch();

  // Route repair rebuilds the one table in place: 0 -> 3 -> 2 -> 1.
  f.fabric.report_link(0, 1, /*up=*/false);
  EXPECT_EQ(f.fabric.epoch(), epoch0 + 1);
  EXPECT_EQ(routes.distance(0, 1), 3);
  EXPECT_EQ(routes.next_hop(0, 1), 3u);
  expect_routes_complete(routes, 4);
  // A duplicate report from the other end is no change.
  f.fabric.report_link(1, 0, /*up=*/false);
  EXPECT_EQ(f.fabric.epoch(), epoch0 + 1);

  f.fabric.report_link(0, 1, /*up=*/true);
  EXPECT_EQ(routes.distance(0, 1), 1);
  EXPECT_EQ(routes.next_hop(0, 1), 1u);
  expect_routes_complete(routes, 4);
}

TEST(ControlPlane, MutationInsideAnEventIsVisibleToTheNextRead) {
  RingFixture f;
  std::vector<BrokerId> seen_same_event;
  std::vector<BrokerId> seen_queued;
  int distance_same_event = 0;
  const SimTime t = f.loop.now() + duration_ms(1);
  f.loop.schedule_at(t, [&] {
    // A reader event queued at this instant before the mutations below.
    f.loop.schedule_at(t, [&] { seen_queued = f.fabric.interested_brokers("/conf/x", 0); });
    f.fabric.advertise(broker::TopicFilter("/conf/x"), /*origin=*/3, /*add=*/true);
    seen_same_event = f.fabric.interested_brokers("/conf/x", 0);
    f.fabric.report_link(0, 1, /*up=*/false);
    distance_same_event = f.fabric.distance(0, 1);
  });
  f.loop.run();
  EXPECT_EQ(seen_same_event, std::vector<BrokerId>{3u});
  EXPECT_EQ(seen_queued, std::vector<BrokerId>{3u});
  EXPECT_EQ(distance_same_event, 3);
}

TEST(ControlPlane, SubscribeDuringFanoutIsPerEventAtomic) {
  // A publish event that enters the broker before a subscription's
  // advertisement delivers to the old interest set; the next publish
  // delivers to the new one.
  RingFixture f;
  const char* topic = "/conf/atomic";
  broker::BrokerClient sub(f.net.add_host("sub"), f.fabric.broker(2).stream_endpoint(),
                           {.name = "sub"});
  broker::BrokerClient pub(f.net.add_host("pub"), f.fabric.broker(0).stream_endpoint(),
                           {.name = "pub"});
  int got = 0;
  sub.on_event([&](const broker::Event&) { ++got; });
  f.loop.run();  // settle hellos
  // Subscribe and publish racing: whether broker 0's routing job reads
  // interest before or after the advertisement is a fixed, deterministic
  // outcome — the event sees the subscription entirely or not at all (0
  // or 1 copies, never a duplicate from a half-applied table). A later
  // publish must then deliver exactly one more.
  sub.subscribe(topic);
  pub.publish(topic, Bytes(64, 1));
  f.loop.run();
  const int first = got;
  EXPECT_TRUE(first == 0 || first == 1) << first;
  pub.publish(topic, Bytes(64, 1));
  f.loop.run();
  EXPECT_EQ(got, first + 1);
}

// --- Dense RouteTables against the map-based BFS they replaced -------------

namespace {

using Link = std::pair<BrokerId, BrokerId>;  // (min, max)

/// Reference routing row: the pre-dense map-of-map BFS (ascending
/// neighbours, FIFO queue, first hop inherited from the parent node),
/// over `adj` minus the links `down` holds.
struct RefRow {
  std::map<BrokerId, BrokerId> hop;
  std::map<BrokerId, int> dist;
};

RefRow reference_row(const std::map<BrokerId, std::set<BrokerId>>& adj, const std::set<Link>& down,
                     BrokerId src) {
  RefRow row;
  row.dist[src] = 0;
  std::deque<BrokerId> queue{src};
  while (!queue.empty()) {
    const BrokerId cur = queue.front();
    queue.pop_front();
    for (BrokerId nb : adj.at(cur)) {
      if (row.dist.contains(nb) || down.contains(std::minmax(cur, nb))) continue;
      row.dist[nb] = row.dist[cur] + 1;
      row.hop[nb] = cur == src ? nb : row.hop[cur];
      queue.push_back(nb);
    }
  }
  return row;
}

/// Every (from, to) pair, plus one id past each end, answers exactly as the
/// reference row of `from` (computed over that broker's own down-set).
void expect_routes_match(const broker::RouteTables& routes,
                         const std::map<BrokerId, std::set<BrokerId>>& adj,
                         const std::map<BrokerId, std::set<Link>>& down_by_row,
                         const std::string& where) {
  const auto n = static_cast<BrokerId>(adj.size());
  for (BrokerId from = 0; from <= n; ++from) {
    const RefRow ref = from < n ? reference_row(adj, down_by_row.at(from), from) : RefRow{};
    for (BrokerId to = 0; to <= n; ++to) {
      if (from == n || to == n) {
        EXPECT_EQ(routes.distance(from, to), -1) << where << " " << from << "->" << to;
        EXPECT_THROW((void)routes.next_hop(from, to), std::logic_error) << where;
        continue;
      }
      const auto d = ref.dist.find(to);
      EXPECT_EQ(routes.distance(from, to), d == ref.dist.end() ? -1 : d->second)
          << where << " " << from << "->" << to;
      const auto h = ref.hop.find(to);
      if (h == ref.hop.end()) {
        EXPECT_THROW((void)routes.next_hop(from, to), std::logic_error)
            << where << " " << from << "->" << to;
      } else {
        EXPECT_EQ(routes.next_hop(from, to), h->second) << where << " " << from << "->" << to;
      }
    }
  }
}

/// The what() of the logic_error a next_hop call throws ("" if none).
std::string next_hop_error(const broker::RouteTables& routes, BrokerId from, BrokerId to) {
  try {
    (void)routes.next_hop(from, to);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return {};
}

}  // namespace

TEST(DenseRoutes, MatchMapBfsOnRandomTopologiesWithLinksDown) {
  prop::for_each_seed(24, [](std::uint64_t seed) {
    gmmcs::Rng rng(seed);
    sim::EventLoop loop;
    sim::Network net(loop);
    broker::BrokerNetwork fabric(net);
    const auto n = static_cast<BrokerId>(rng.uniform_int(2, 9));
    std::map<BrokerId, std::set<BrokerId>> adj;
    for (BrokerId i = 0; i < n; ++i) {
      fabric.add_broker(net.add_host("b" + std::to_string(i)));
      adj[i];
    }
    std::vector<Link> links;
    for (BrokerId a = 0; a < n; ++a) {
      for (BrokerId b = a + 1; b < n; ++b) {
        if (!rng.chance(0.35)) continue;
        fabric.link(a, b);
        adj[a].insert(b);
        adj[b].insert(a);
        links.emplace_back(a, b);
      }
    }
    fabric.finalize();
    std::map<BrokerId, std::set<Link>> shared;
    for (BrokerId i = 0; i < n; ++i) shared[i];
    expect_routes_match(fabric.routes(), adj, shared, "built");

    // Shared-table repair: links go down (and one comes back) one report
    // at a time; the tables must match the reference after each.
    std::set<Link> down;
    for (const Link& l : links) {
      if (!rng.chance(0.4)) continue;
      fabric.report_link(l.first, l.second, /*up=*/false);
      down.insert(l);
      for (auto& [row, set] : shared) set = down;
      expect_routes_match(fabric.routes(), adj, shared, "down");
    }
    if (!down.empty()) {
      const Link back = *down.begin();
      fabric.report_link(back.first, back.second, /*up=*/true);
      down.erase(back);
      for (auto& [row, set] : shared) set = down;
      expect_routes_match(fabric.routes(), adj, shared, "up");
    }
  });
}

TEST(DenseRoutes, MatchMapBfsWithGossipPerBrokerViews) {
  prop::for_each_seed(16, [](std::uint64_t seed) {
    gmmcs::Rng rng(seed);
    sim::EventLoop loop;
    sim::Network net(loop);
    broker::BrokerNetwork fabric(net);
    fabric.set_gossip(true);
    const auto n = static_cast<BrokerId>(rng.uniform_int(3, 8));
    std::map<BrokerId, std::set<BrokerId>> adj;
    std::vector<Link> links;
    for (BrokerId i = 0; i < n; ++i) {
      fabric.add_broker(net.add_host("b" + std::to_string(i)));
      adj[i];
    }
    // A ring keeps most views connected; chords give BFS ties to break.
    for (BrokerId a = 0; a < n; ++a) {
      const BrokerId b = (a + 1) % n;
      fabric.link(a, b);
      adj[a].insert(b);
      adj[b].insert(a);
      links.push_back(std::minmax(a, b));
    }
    for (int c = 0; c < 2; ++c) {
      const auto a = static_cast<BrokerId>(rng.uniform_int(0, n - 1));
      const auto b = static_cast<BrokerId>(rng.uniform_int(0, n - 1));
      if (a == b || adj[a].contains(b)) continue;
      fabric.link(a, b);
      adj[a].insert(b);
      adj[b].insert(a);
      links.push_back(std::minmax(a, b));
    }
    fabric.finalize();
    std::map<BrokerId, std::set<Link>> views;
    for (BrokerId i = 0; i < n; ++i) views[i];
    // Each step changes one broker's private view only: a detector report
    // at one end of a link, or a received advertisement anywhere.
    for (int step = 0; step < 8; ++step) {
      const Link l = links[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1))];
      const bool up = rng.chance(0.3);
      BrokerId at;
      if (rng.chance(0.5)) {
        at = rng.chance(0.5) ? l.first : l.second;
        fabric.report_link(at, at == l.first ? l.second : l.first, up);
      } else {
        at = static_cast<BrokerId>(rng.uniform_int(0, n - 1));
        fabric.apply_link_state(at, l.first, l.second, up);
      }
      if (up) {
        views[at].erase(l);
      } else {
        views[at].insert(l);
      }
      expect_routes_match(fabric.routes(), adj, views, "step " + std::to_string(step));
    }
  });
}

TEST(DenseRoutes, EdgeCasesKeepTheMapTablesBehaviour) {
  RingFixture f;
  sim::EventLoop loop;
  sim::Network net(loop);
  broker::BrokerNetwork unfinalized(net);
  unfinalized.add_broker(net.add_host("u0"));
  unfinalized.add_broker(net.add_host("u1"));
  unfinalized.link(0, 1);
  // Before finalize(): every next_hop throws "finalize() not called" and
  // every distance is -1.
  EXPECT_NE(next_hop_error(unfinalized.routes(), 0, 1).find("finalize() not called"),
            std::string::npos);
  EXPECT_EQ(unfinalized.distance(0, 1), -1);
  EXPECT_EQ(unfinalized.distance(0, 0), -1);

  const broker::RouteTables& routes = f.fabric.routes();
  // Out-of-range ids: -1, and next_hop throws (from: no row; to: no route).
  EXPECT_EQ(routes.distance(0, 4), -1);
  EXPECT_EQ(routes.distance(4, 0), -1);
  EXPECT_EQ(routes.distance(0xffffffffU, 0xffffffffU), -1);
  EXPECT_NE(next_hop_error(routes, 4, 0).find("finalize() not called"), std::string::npos);
  EXPECT_NE(next_hop_error(routes, 0, 4).find("no route from 0 to 4"), std::string::npos);
  // Self: distance 0, but no first hop.
  EXPECT_EQ(routes.distance(2, 2), 0);
  EXPECT_NE(next_hop_error(routes, 2, 2).find("no route from 2 to 2"), std::string::npos);

  // A broker added (and linked) after finalize() has no row and no column
  // until the next rebuild...
  f.fabric.add_broker(f.net.add_host("late"));
  f.fabric.link(3, 4);
  EXPECT_EQ(routes.distance(4, 0), -1);
  EXPECT_EQ(routes.distance(0, 4), -1);
  EXPECT_EQ(routes.distance(4, 4), -1);
  EXPECT_NE(next_hop_error(routes, 4, 0).find("finalize() not called"), std::string::npos);
  EXPECT_NE(next_hop_error(routes, 0, 4).find("no route from 0 to 4"), std::string::npos);
  // ...and finalize() again covers it.
  f.fabric.finalize();
  EXPECT_EQ(f.fabric.distance(0, 4), 2);
  EXPECT_EQ(f.fabric.next_hop(0, 4), 3u);
  EXPECT_EQ(f.fabric.next_hop(4, 1), 3u);
}

TEST(DenseRoutes, GossipRowRebuildWidensForALateBroker) {
  // Gossip repair rebuilds one row at a time; a broker that joined after
  // finalize() appears in the rebuilt row only, exactly as in the map
  // tables (whose other rows simply had no entry for it).
  sim::EventLoop loop;
  sim::Network net(loop);
  broker::BrokerNetwork fabric(net);
  fabric.set_gossip(true);
  for (int i = 0; i < 3; ++i) fabric.add_broker(net.add_host("b" + std::to_string(i)));
  fabric.link(0, 1);
  fabric.link(1, 2);
  fabric.finalize();
  fabric.add_broker(net.add_host("late"));
  fabric.link(2, 3);
  fabric.report_link(1, 0, /*up=*/false);  // rebuilds broker 1's row only
  EXPECT_EQ(fabric.distance(1, 3), 2);
  EXPECT_EQ(fabric.next_hop(1, 3), 2u);
  EXPECT_EQ(fabric.distance(1, 0), -1);
  EXPECT_EQ(fabric.distance(0, 3), -1);  // row 0 untouched: no column yet
  EXPECT_EQ(fabric.distance(0, 2), 2);
  EXPECT_EQ(fabric.distance(3, 2), -1);  // no row for the late broker
  EXPECT_NE(next_hop_error(fabric.routes(), 3, 2).find("finalize() not called"),
            std::string::npos);
}
