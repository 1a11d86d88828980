// Epoch-snapshot control plane (DESIGN.md §12): readers holding a stale
// epoch must see a complete, internally consistent control plane; writers
// publish each new epoch as one object, deferred to a deterministic
// (when, seq) position while events execute.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/control_snapshot.hpp"
#include "broker/subscription_index.hpp"
#include "broker/topic.hpp"
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

/// Every reachable pair in the snapshot must be walkable: following
/// next_hop from `from` reaches `to` in exactly distance(from, to) steps.
/// A half-built table (cleared but not yet rebuilt, or partially copied)
/// cannot pass this.
void expect_routes_complete(const broker::ControlSnapshot& snap, BrokerId n) {
  const broker::RouteTables& routes = snap.routes();
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

TEST(ControlSnapshot, EmptyEpochBehavesLikeUnfinalizedTables) {
  sim::EventLoop loop;
  sim::Network net(loop);
  broker::BrokerNetwork fabric(net);
  broker::ControlSnapshotPtr snap = fabric.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->routes().distance(0, 1), -1);
  EXPECT_THROW((void)snap->routes().next_hop(0, 1), std::logic_error);
  EXPECT_TRUE(fabric.interested_brokers("/any/topic", 0).empty());
}

TEST(ControlSnapshot, StaleReaderSeesCompleteRoutesAcrossRepair) {
  RingFixture f;
  broker::ControlSnapshotPtr before = f.fabric.snapshot();
  expect_routes_complete(*before, 4);
  ASSERT_EQ(before->routes().distance(0, 1), 1);

  // Route repair publishes a new epoch; the held snapshot must be the
  // unchanged old epoch, complete and consistent.
  f.fabric.report_link(0, 1, /*up=*/false);
  broker::ControlSnapshotPtr after = f.fabric.snapshot();
  ASSERT_NE(before.get(), after.get());
  EXPECT_GT(after->epoch(), before->epoch());
  EXPECT_EQ(before->routes().distance(0, 1), 1);
  EXPECT_EQ(before->routes().next_hop(0, 1), 1u);
  expect_routes_complete(*before, 4);
  // The new epoch routes around the dead link: 0 -> 3 -> 2 -> 1.
  EXPECT_EQ(after->routes().distance(0, 1), 3);
  EXPECT_EQ(after->routes().next_hop(0, 1), 3u);
  expect_routes_complete(*after, 4);
}

TEST(ControlSnapshot, InterestOnlyPublicationSharesRoutesPointer) {
  RingFixture f;
  broker::ControlSnapshotPtr before = f.fabric.snapshot();
  f.fabric.advertise(broker::TopicFilter("/conf/a"), /*origin=*/2, /*add=*/true);
  broker::ControlSnapshotPtr after = f.fabric.snapshot();
  ASSERT_NE(before.get(), after.get());
  // Two-level sharing: only the interest half was rebuilt.
  EXPECT_EQ(before->routes_ptr().get(), after->routes_ptr().get());
  EXPECT_NE(before->interest_ptr().get(), after->interest_ptr().get());
  EXPECT_TRUE(before->interest().matches("/conf/a", 0).empty());
  EXPECT_EQ(after->interest().matches("/conf/a", 0), std::vector<std::uint32_t>{2u});
}

TEST(ControlSnapshot, PublicationDefersToEventBoundaryDuringRun) {
  RingFixture f;
  const std::uint64_t epoch0 = f.fabric.snapshot()->epoch();
  std::uint64_t epoch_between = 0;
  std::vector<BrokerId> seen_same_event;
  std::vector<BrokerId> seen_between;
  std::vector<BrokerId> seen_after;
  const SimTime t = f.loop.now() + duration_ms(1);
  f.loop.schedule_at(t, [&] {
    // Reader event sequenced after the mutation below but before the
    // deferred publication: must still see the whole old epoch.
    f.loop.schedule_at(t, [&] {
      seen_between = f.fabric.interested_brokers("/conf/x", 0);
      epoch_between = f.fabric.snapshot()->epoch();
    });
    f.fabric.advertise(broker::TopicFilter("/conf/x"), /*origin=*/3, /*add=*/true);
    // Same event as the mutation: publication has not run yet either.
    seen_same_event = f.fabric.interested_brokers("/conf/x", 0);
  });
  f.loop.schedule_at(t + SimDuration{1}, [&] {
    seen_after = f.fabric.interested_brokers("/conf/x", 0);
  });
  f.loop.run();
  EXPECT_TRUE(seen_same_event.empty());
  EXPECT_TRUE(seen_between.empty());
  EXPECT_EQ(epoch_between, epoch0);
  EXPECT_EQ(seen_after, std::vector<BrokerId>{3u});
  EXPECT_GT(f.fabric.snapshot()->epoch(), epoch0);
}

TEST(ControlSnapshot, SubscribeDuringFanoutIsPerEventAtomic) {
  // End-to-end flavor of the visibility contract: a publish event that
  // enters the broker before a subscription's epoch flips delivers to the
  // old interest set; the next publish delivers to the new one.
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
  // interest before or after the advertisement's epoch flip is a fixed,
  // deterministic outcome — the event sees the subscription entirely or
  // not at all (0 or 1 copies, never a duplicate from a half-applied
  // table). A publish after the flip must then deliver exactly one more.
  sub.subscribe(topic);
  pub.publish(topic, Bytes(64, 1));
  f.loop.run();
  const int first = got;
  EXPECT_TRUE(first == 0 || first == 1) << first;
  pub.publish(topic, Bytes(64, 1));
  f.loop.run();
  EXPECT_EQ(got, first + 1);
}

TEST(ControlSnapshot, FlattenMatchesLiveIndex) {
  broker::SubscriptionIndex index;
  index.subscribe(1, broker::TopicFilter("/conf/a"));
  index.subscribe(2, broker::TopicFilter("/conf/a"));
  index.subscribe(2, broker::TopicFilter("/conf/a"));  // refcount 2
  index.subscribe(3, broker::TopicFilter("/conf/*"));
  index.subscribe(4, broker::TopicFilter("/conf/#"));
  index.subscribe(5, broker::TopicFilter("/other/b"));
  index.unsubscribe(2, broker::TopicFilter("/conf/a"));  // still referenced
  broker::InterestTable flat = index.flatten();
  const char* topics[] = {"/conf/a", "/conf/b", "/conf/a/b", "/other/b", "/nope"};
  for (const char* topic : topics) {
    for (std::uint32_t exclude = 0; exclude <= 5; ++exclude) {
      EXPECT_EQ(flat.matches(topic, exclude), index.matches(topic, exclude))
          << topic << " excl " << exclude;
    }
  }
}
