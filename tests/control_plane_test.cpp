// The broker control plane (DESIGN.md §12): BrokerNetwork's one set of
// routing and interest tables, read in place, so a change is visible to the
// next read; and the dense RouteTables against the map-based BFS they
// replaced.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
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
#include "sim/fault.hpp"
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

/// Every broker's own row still reaches every other broker. It reads one
/// row at a time, so unlike expect_routes_complete it holds while the
/// brokers' views disagree (a walk across rows can then circle).
void expect_every_row_reaches_all(const broker::RouteTables& routes, BrokerId n) {
  for (BrokerId from = 0; from < n; ++from) {
    for (BrokerId to = 0; to < n; ++to) {
      if (from == to) continue;
      EXPECT_GT(routes.distance(from, to), 0) << from << "->" << to;
    }
  }
}

/// `origin`'s report, numbered `seq`, that its link to `peer` is up or down.
broker::LinkStateMessage report(BrokerId origin, BrokerId peer, std::uint32_t seq, bool up) {
  return {.origin = origin, .seq = seq, .a = origin, .b = peer, .up = up};
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

  // A detector's report rebuilds the reporter's row only: 0 -> 3 -> 2 -> 1.
  // Broker 1 and broker 3 still route over the link until they learn of it.
  ASSERT_TRUE(f.fabric.apply_report(0, report(0, 1, 1, /*up=*/false)));
  EXPECT_EQ(f.fabric.epoch(), epoch0 + 1);
  EXPECT_EQ(f.fabric.route_recomputes(), 1u);
  EXPECT_FALSE(f.fabric.link_considered_up(0, 1));
  EXPECT_EQ(routes.distance(0, 1), 3);
  EXPECT_EQ(routes.next_hop(0, 1), 3u);
  EXPECT_EQ(routes.distance(1, 0), 1);
  EXPECT_EQ(routes.next_hop(3, 1), 0u);
  expect_every_row_reaches_all(routes, 4);
  // The other end's detector report rebuilds that broker's row.
  ASSERT_TRUE(f.fabric.apply_report(1, report(1, 0, 1, /*up=*/false)));
  EXPECT_EQ(f.fabric.epoch(), epoch0 + 2);
  EXPECT_EQ(f.fabric.route_recomputes(), 2u);
  EXPECT_EQ(routes.distance(1, 0), 3);
  EXPECT_EQ(routes.next_hop(1, 0), 2u);
  EXPECT_EQ(routes.next_hop(3, 1), 0u);
  expect_every_row_reaches_all(routes, 4);
  // A report no newer than its origin's last is refused and changes nothing.
  EXPECT_FALSE(f.fabric.apply_report(0, report(0, 1, 1, /*up=*/true)));
  EXPECT_EQ(f.fabric.epoch(), epoch0 + 2);

  // Broker 0's "up" brings the link back in its own view, which holds
  // only its own report; broker 1's detector still says down.
  ASSERT_TRUE(f.fabric.apply_report(0, report(0, 1, 2, /*up=*/true)));
  EXPECT_FALSE(f.fabric.link_considered_up(0, 1));
  EXPECT_EQ(routes.distance(0, 1), 1);
  EXPECT_EQ(routes.next_hop(0, 1), 1u);
  EXPECT_EQ(routes.distance(1, 0), 3);
  expect_every_row_reaches_all(routes, 4);
  // Broker 1's "down" reaching broker 0 puts the link down there again:
  // either endpoint's latest report says down.
  ASSERT_TRUE(f.fabric.apply_report(0, report(1, 0, 1, /*up=*/false)));
  EXPECT_EQ(routes.distance(0, 1), 3);
  // Once both ends report up, the link is up at both detectors and in
  // every view that heard both.
  ASSERT_TRUE(f.fabric.apply_report(1, report(1, 0, 2, /*up=*/true)));
  EXPECT_TRUE(f.fabric.link_considered_up(0, 1));
  EXPECT_EQ(routes.distance(1, 0), 1);
  EXPECT_EQ(routes.distance(0, 1), 3);
  ASSERT_TRUE(f.fabric.apply_report(0, report(1, 0, 2, /*up=*/true)));
  EXPECT_EQ(routes.distance(0, 1), 1);
  EXPECT_EQ(f.fabric.route_recomputes(), 6u);
  expect_routes_complete(routes, 4);
}

// Before the flood reaches it, a remote broker routes on what it last
// heard: only broker 1 runs a detector on chain 0-1-2, and when it reports
// the 1-2 link down, broker 0's row changes when 1's advertisement arrives,
// one link latency later, not at the report's instant.
TEST(ControlPlane, RemoteRowChangesWhenTheAdvertisementArrives) {
  sim::EventLoop loop;
  sim::Network net(loop);
  broker::BrokerNetwork fabric(net);
  sim::Host& b0 = net.add_host("b0");
  sim::Host& b1 = net.add_host("b1");
  sim::Host& b2 = net.add_host("b2");
  const SimDuration latency = duration_ms(20);
  net.set_path(b0.id(), b1.id(), {.latency = latency});
  broker::BrokerNode::Config watched;
  watched.idle = {duration_ms(50), 3};
  fabric.add_broker(b0);
  fabric.add_broker(b1, watched);
  fabric.add_broker(b2);
  fabric.link(0, 1);
  fabric.link(1, 2);
  fabric.finalize();
  loop.run_for(duration_ms(300));
  ASSERT_EQ(fabric.distance(0, 2), 2);

  // Broker 0's row read at the report's instant, just before the
  // advertisement can have crossed the 0-1 link, and just after.
  std::vector<int> remote;
  fabric.on_route_repair([&](BrokerId, BrokerId, bool up, SimTime at) {
    if (up) return;
    remote.push_back(fabric.distance(0, 2));
    for (const SimTime t : {at + latency - SimDuration{1}, at + latency + duration_us(10)}) {
      loop.schedule_at(t, [&] { remote.push_back(fabric.distance(0, 2)); });
    }
  });
  sim::FaultPlan plan;
  plan.partition({b1.id()}, {b2.id()}, loop.now());
  plan.install(net);
  loop.run_for(duration_ms(400));
  EXPECT_EQ(fabric.distance(1, 2), -1);
  EXPECT_EQ(remote, (std::vector<int>{2, 2, -1}));
  EXPECT_GT(fabric.broker(0).link_states_flooded(), 0u);
}

// A broker's own detector is the only word on its own links, and the far
// end's word cannot undo it anywhere. On chain 2-0-1, a flap of 0-1 first
// leaves both ends holding a report of their own (down, then up). Then a
// one-way cut 0 -> 1 loses broker 0's probes, so 0's fast detector
// (3 x 50 ms) reports 0-1 down; broker 1's slow one (20 x 50 ms) has not
// fired yet, and its periodic refresh floods its "up" across the working
// 1 -> 0 direction at 3.05 s. Broker 0 passes it on to broker 2, but both
// rows keep the link down: broker 0's report still says so. Once the cut
// heals both detectors bring the link back.
TEST(ControlPlane, OwnDetectorOutranksTheFarEndsRefresh) {
  sim::EventLoop loop;
  sim::Network net(loop);
  broker::BrokerNetwork fabric(net);
  sim::Host& h0 = net.add_host("b0");
  sim::Host& h1 = net.add_host("b1");
  broker::BrokerNode::Config fast;
  fast.idle = {duration_ms(50), 3};
  broker::BrokerNode::Config slow;
  slow.idle = {duration_ms(50), 20};
  broker::BrokerNode& b0 = fabric.add_broker(h0, fast);
  broker::BrokerNode& b1 = fabric.add_broker(h1, slow);
  fabric.add_broker(net.add_host("b2"), fast);
  fabric.link(0, 1);
  fabric.link(0, 2);
  fabric.finalize();
  sim::FaultPlan plan;
  plan.flap_link(h0.id(), h1.id(), SimTime{duration_ms(300).ns()},
                 SimTime{duration_ms(1600).ns()});
  plan.cut_oneway(h0.id(), h1.id(), SimTime{duration_ms(2500).ns()},
                  SimTime{duration_ms(4000).ns()});
  plan.install(net);

  loop.run_until(SimTime{duration_ms(2200).ns()});
  ASSERT_TRUE(fabric.link_considered_up(0, 1));
  loop.run_until(SimTime{duration_ms(2700).ns()});
  ASSERT_TRUE(b0.peer_considered_down(1));
  ASSERT_FALSE(fabric.link_considered_up(0, 1));
  ASSERT_EQ(fabric.distance(0, 1), -1);
  ASSERT_EQ(fabric.distance(2, 1), -1);
  const std::uint64_t b1_flooded = b1.link_states_flooded();
  const std::uint64_t b0_flooded = b0.link_states_flooded();
  // Until broker 1's detector fires (3.5 s), its refresh is the only
  // report of its own that broker 0 receives; sample both rows every 10 ms.
  std::vector<int> row0;
  std::vector<int> row2;
  for (int ms = 2710; ms <= 3300; ms += 10) {
    loop.schedule_at(SimTime{duration_ms(ms).ns()}, [&] {
      row0.push_back(fabric.distance(0, 1));
      row2.push_back(fabric.distance(2, 1));
    });
  }
  loop.run_until(SimTime{duration_ms(3300).ns()});
  EXPECT_FALSE(b1.peer_considered_down(0));
  EXPECT_EQ(b1.link_states_flooded(), b1_flooded + 1);  // the 3.05 s refresh
  // Broker 0 sent to both peers: its own down report at each refresh
  // (2.75 to 3.2 s) and broker 1's refresh once.
  EXPECT_EQ(b0.link_states_flooded(), b0_flooded + 2 * 4 + 2);
  EXPECT_EQ(row0, std::vector<int>(row0.size(), -1));
  EXPECT_EQ(row2, std::vector<int>(row2.size(), -1));

  loop.run_until(SimTime{duration_s(5).ns()});
  EXPECT_TRUE(fabric.link_considered_up(0, 1));
  EXPECT_EQ(fabric.distance(0, 1), 1);
  EXPECT_EQ(fabric.distance(1, 0), 1);
  EXPECT_EQ(fabric.distance(2, 1), 2);
}

// The race of a detector and the far end's refresh at one instant. On ring
// 0-1-2-3, a first flap of 1-2 leaves both ends holding a report of their
// own. The second flap starts at 5.0 s: both detectors (3 x 50 ms) fire at
// 5.15 s, the instant both brokers' refresh tasks run (every 150 ms from
// 50 ms). A refresh floods its broker's last report, "up", beside the
// detector's "down"; neither may flip a remote view back. Each of the four
// rows is rebuilt exactly once for the outage and once for the repair.
TEST(ControlPlane, DetectorAndFarEndRefreshAtOneInstantRebuildEachRowOnce) {
  sim::EventLoop loop;
  sim::Network net(loop);
  broker::BrokerNetwork fabric(net);
  broker::BrokerNode::Config cfg;
  cfg.idle = {duration_ms(50), 3};
  std::vector<sim::Host*> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(&net.add_host("b" + std::to_string(i)));
    fabric.add_broker(*hosts.back(), cfg);
  }
  for (int i = 0; i < 4; ++i) fabric.link(i, (i + 1) % 4);
  fabric.finalize();
  sim::FaultPlan plan;
  plan.flap_link(hosts[1]->id(), hosts[2]->id(), SimTime{duration_ms(1000).ns()},
                 SimTime{duration_ms(1500).ns()});
  plan.flap_link(hosts[1]->id(), hosts[2]->id(), SimTime{duration_ms(5000).ns()},
                 SimTime{duration_ms(5800).ns()});
  plan.install(net);
  std::vector<std::pair<bool, SimTime>> repairs;
  fabric.on_route_repair(
      [&](BrokerId, BrokerId, bool up, SimTime at) { repairs.emplace_back(up, at); });

  loop.run_until(SimTime{duration_ms(4900).ns()});
  ASSERT_EQ(repairs.size(), 2u);
  ASSERT_TRUE(fabric.link_considered_up(1, 2));
  const std::uint64_t before = fabric.route_recomputes();
  loop.run_until(SimTime{duration_ms(5600).ns()});
  ASSERT_EQ(repairs.size(), 3u);
  EXPECT_EQ(repairs.back(), std::make_pair(false, SimTime{duration_ms(5150).ns()}));
  EXPECT_EQ(fabric.route_recomputes(), before + 4);
  EXPECT_EQ(fabric.distance(0, 2), 2);
  EXPECT_EQ(fabric.next_hop(0, 2), 3u);
  EXPECT_EQ(fabric.next_hop(3, 1), 0u);
  loop.run_until(SimTime{duration_s(7).ns()});
  EXPECT_EQ(fabric.route_recomputes(), before + 8);
  EXPECT_TRUE(fabric.link_considered_up(1, 2));
  expect_routes_complete(fabric.routes(), 4);
}

// What keeps fault-free runs (perfbench, fig3, the capacity sweep) as they
// were: with both detectors off, a multi-broker fabric carrying traffic
// arms no refresh task and no probe, floods no link state, rebuilds no
// row after finalize(), and its loop drains.
TEST(ControlPlane, FaultFreeFabricCarriesNoLinkState) {
  sim::EventLoop loop;
  sim::Network net(loop);
  broker::BrokerNetwork fabric(net);
  for (int i = 0; i < 4; ++i) fabric.add_broker(net.add_host("b" + std::to_string(i)));
  for (int i = 0; i < 4; ++i) fabric.link(i, (i + 1) % 4);
  fabric.link(0, 2);
  fabric.finalize();
  std::vector<std::unique_ptr<broker::BrokerClient>> subs;
  int got = 0;
  for (BrokerId b = 0; b < 4; ++b) {
    subs.push_back(std::make_unique<broker::BrokerClient>(
        net.add_host("sub" + std::to_string(b)), fabric.broker(b).stream_endpoint()));
    subs.back()->subscribe("/conf/x");
    subs.back()->on_event([&](const broker::Event&) { ++got; });
  }
  broker::BrokerClient pub(net.add_host("pub"), fabric.broker(1).stream_endpoint());
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(SimTime{duration_ms(100 + 10 * i).ns()},
                     [&] { pub.publish("/conf/x", Bytes(64, 1)); });
  }
  loop.run_for(duration_s(10));
  EXPECT_EQ(got, 40);
  EXPECT_EQ(loop.pending(), 0u);  // nothing periodic was armed
  EXPECT_EQ(fabric.route_recomputes(), 0u);
  for (BrokerId b = 0; b < 4; ++b) {
    EXPECT_EQ(fabric.broker(b).link_states_flooded(), 0u) << b;
  }
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
    EXPECT_TRUE(f.fabric.apply_report(0, report(0, 1, 1, /*up=*/false)));
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

namespace {

/// A random fabric of 2..9 brokers: half the cases a ring with chords,
/// which keeps most views connected and gives BFS ties to break; the rest
/// a sparse random graph, often disconnected. Finalized, every table empty.
/// It applies each report to the fabric and to a reference copy of every
/// broker's table.
struct RandomFabric {
  /// One endpoint's latest report, as the reference keeps it.
  struct RefReport {
    std::uint32_t seq = 0;
    bool up = true;
  };
  using RefEntry = std::array<RefReport, 2>;  // the lower id's first

  sim::EventLoop loop;
  sim::Network net{loop};
  broker::BrokerNetwork fabric{net};
  BrokerId n = 0;
  std::map<BrokerId, std::set<BrokerId>> adj;
  std::vector<Link> links;
  std::map<BrokerId, std::map<Link, RefEntry>> tables;

  explicit RandomFabric(gmmcs::Rng& rng) : n(static_cast<BrokerId>(rng.uniform_int(2, 9))) {
    for (BrokerId i = 0; i < n; ++i) {
      fabric.add_broker(net.add_host("b" + std::to_string(i)));
      adj[i];
      tables[i];
    }
    const bool ring = rng.chance(0.5);
    for (BrokerId a = 0; a < n; ++a) {
      for (BrokerId b = a + 1; b < n; ++b) {
        const bool ring_link = b == a + 1 || (a == 0 && b == n - 1);
        if (!(ring ? ring_link || rng.chance(0.15) : rng.chance(0.35))) continue;
        fabric.link(a, b);
        adj[a].insert(b);
        adj[b].insert(a);
        links.emplace_back(a, b);
      }
    }
    fabric.finalize();
  }

  /// Whether `l` is down in the reference copy of broker `at`'s table.
  bool down(BrokerId at, const Link& l) {
    const RefEntry& e = tables[at][l];
    return !e[0].up || !e[1].up;
  }

  /// Broker `at` takes endpoint `origin`'s report numbered `seq` on `l`.
  /// The fabric must keep it exactly when the reference's LSA rule does,
  /// and rebuild `at`'s row exactly when the link's state there moved.
  void apply(BrokerId at, const Link& l, BrokerId origin, std::uint32_t seq, bool up) {
    const bool was_down = down(at, l);
    RefReport& r = tables[at][l][origin == l.first ? 0 : 1];
    const bool newer = seq > r.seq;
    if (newer) r = {seq, up};
    const std::uint64_t before = fabric.route_recomputes();
    const BrokerId peer = origin == l.first ? l.second : l.first;
    EXPECT_EQ(fabric.apply_report(at, report(origin, peer, seq, up)), newer);
    EXPECT_EQ(fabric.route_recomputes() - before, down(at, l) != was_down ? 1u : 0u);
  }

  /// Each broker's down-set in the reference.
  std::map<BrokerId, std::set<Link>> views() {
    std::map<BrokerId, std::set<Link>> out;
    for (BrokerId at = 0; at < n; ++at) {
      out[at];
      for (const Link& l : links) {
        if (down(at, l)) out[at].insert(l);
      }
    }
    return out;
  }

  /// link_considered_up reads each endpoint's own report in its own table.
  void expect_detectors_match() {
    for (const Link& l : links) {
      const bool up = tables[l.first][l][0].up && tables[l.second][l][1].up;
      EXPECT_EQ(fabric.link_considered_up(l.first, l.second), up) << l.first << "-" << l.second;
    }
  }
};

}  // namespace

TEST(DenseRoutes, MatchMapBfsOnRandomTopologiesWithLinksDown) {
  prop::for_each_seed(24, [](std::uint64_t seed) {
    gmmcs::Rng rng(seed);
    RandomFabric f(rng);
    expect_routes_match(f.fabric.routes(), f.adj, f.views(), "built");

    // Converged repair: both ends of a link report it and both reports
    // reach every broker, so every view holds the same down-set and each
    // transition rebuilds every row once (on the first "down", or on the
    // second "up"). Links go down (and one comes back) one transition at
    // a time; the tables must match the reference after each.
    std::uint32_t seq = 0;
    auto converge = [&](const Link& l, bool up) {
      const std::uint64_t before = f.fabric.route_recomputes();
      ++seq;
      for (BrokerId at = 0; at < f.n; ++at) {
        f.apply(at, l, l.first, seq, up);
        f.apply(at, l, l.second, seq, up);
      }
      EXPECT_EQ(f.fabric.route_recomputes(), before + f.n);
      EXPECT_EQ(f.fabric.link_considered_up(l.first, l.second), up);
    };
    std::set<Link> down;
    for (const Link& l : f.links) {
      if (!rng.chance(0.4)) continue;
      converge(l, /*up=*/false);
      down.insert(l);
      expect_routes_match(f.fabric.routes(), f.adj, f.views(), "down");
    }
    if (!down.empty()) {
      converge(*down.begin(), /*up=*/true);
      expect_routes_match(f.fabric.routes(), f.adj, f.views(), "up");
    }
  });
}

TEST(DenseRoutes, MatchMapBfsWithGossipPerBrokerViews) {
  prop::for_each_seed(24, [](std::uint64_t seed) {
    gmmcs::Rng rng(seed);
    RandomFabric f(rng);
    if (f.links.empty()) return;
    // Divergent views: each step gives one broker one endpoint's report,
    // its own detector's or one heard by flood, with a seq drawn from a
    // small range so that reports arrive stale, repeated and out of order.
    for (int step = 0; step < 12; ++step) {
      const Link l = f.links[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(f.links.size()) - 1))];
      const BrokerId origin = rng.chance(0.5) ? l.first : l.second;
      const BrokerId at =
          rng.chance(0.3) ? origin : static_cast<BrokerId>(rng.uniform_int(0, f.n - 1));
      const auto seq = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
      f.apply(at, l, origin, seq, /*up=*/rng.chance(0.3));
      expect_routes_match(f.fabric.routes(), f.adj, f.views(), "step " + std::to_string(step));
      f.expect_detectors_match();
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
  for (int i = 0; i < 3; ++i) fabric.add_broker(net.add_host("b" + std::to_string(i)));
  fabric.link(0, 1);
  fabric.link(1, 2);
  fabric.finalize();
  fabric.add_broker(net.add_host("late"));
  fabric.link(2, 3);
  // Rebuilds broker 1's row only.
  ASSERT_TRUE(fabric.apply_report(1, report(1, 0, 1, /*up=*/false)));
  EXPECT_EQ(fabric.distance(1, 3), 2);
  EXPECT_EQ(fabric.next_hop(1, 3), 2u);
  EXPECT_EQ(fabric.distance(1, 0), -1);
  EXPECT_EQ(fabric.distance(0, 3), -1);  // row 0 untouched: no column yet
  EXPECT_EQ(fabric.distance(0, 2), 2);
  EXPECT_EQ(fabric.distance(3, 2), -1);  // no row for the late broker
  EXPECT_NE(next_hop_error(fabric.routes(), 3, 2).find("finalize() not called"),
            std::string::npos);
}
