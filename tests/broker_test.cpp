// Tests for the messaging middleware: topics, event wire format,
// single-broker pub/sub, multi-broker routing, RTP proxy, firewall clients.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/rtp_proxy.hpp"
#include "broker/topic.hpp"
#include "common/random.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "transport/stream.hpp"

namespace gmmcs::broker {
namespace {

TEST(Topic, Normalization) {
  EXPECT_EQ(normalize_topic("session/42/"), "/session/42");
  EXPECT_EQ(normalize_topic("//a//b"), "/a/b");
  EXPECT_EQ(normalize_topic("/"), "/");
}

TEST(Topic, Validity) {
  EXPECT_TRUE(is_valid_topic("/xgsp/session/1/video"));
  EXPECT_FALSE(is_valid_topic("/a/*/b"));
  EXPECT_FALSE(is_valid_topic("/a/#"));
  EXPECT_FALSE(is_valid_topic(""));
  EXPECT_FALSE(is_valid_topic("/"));
}

TEST(Topic, ExactFilterMatch) {
  TopicFilter f("/xgsp/session/1/video");
  EXPECT_TRUE(f.matches("/xgsp/session/1/video"));
  EXPECT_FALSE(f.matches("/xgsp/session/1/audio"));
  EXPECT_FALSE(f.matches("/xgsp/session/1"));
  EXPECT_FALSE(f.matches("/xgsp/session/1/video/hd"));
}

TEST(Topic, StarMatchesOneSegment) {
  TopicFilter f("/xgsp/session/*/video");
  EXPECT_TRUE(f.matches("/xgsp/session/1/video"));
  EXPECT_TRUE(f.matches("/xgsp/session/99/video"));
  EXPECT_FALSE(f.matches("/xgsp/session/1/2/video"));
}

TEST(Topic, HashMatchesRest) {
  TopicFilter f("/xgsp/session/1/#");
  EXPECT_TRUE(f.matches("/xgsp/session/1/video"));
  EXPECT_TRUE(f.matches("/xgsp/session/1/audio/stereo"));
  EXPECT_FALSE(f.matches("/xgsp/session/2/video"));
  // '#' requires at least the prefix.
  EXPECT_FALSE(f.matches("/xgsp/session"));
}

TEST(Topic, HashMatchesPrefixItself) {
  TopicFilter f("/a/#");
  EXPECT_TRUE(f.matches("/a/b"));
  EXPECT_TRUE(f.matches("/a"));  // zero remaining segments
}

TEST(Topic, InvalidHashPlacementMatchesNothing) {
  TopicFilter f("/a/#/b");
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.matches("/a/x/b"));
}

TEST(EventWire, EventRoundTrip) {
  Event e;
  e.topic = "/s/1/video";
  e.payload = to_bytes("payload");
  e.qos = QoS::kReliable;
  e.origin = SimTime{123456789};
  e.seq = 42;
  e.hops = 3;
  auto f = decode(encode(e));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().type, MessageType::kEvent);
  const Event& d = f.value().event;
  EXPECT_EQ(d.topic, "/s/1/video");
  EXPECT_EQ(d.qos, QoS::kReliable);
  EXPECT_EQ(d.origin.ns(), 123456789);
  EXPECT_EQ(d.seq, 42u);
  EXPECT_EQ(d.hops, 3);
}

TEST(EventWire, PeerEventCarriesTargets) {
  PeerEventMessage m;
  m.event.topic = "/t";
  m.event.payload = Bytes(10, 1);
  m.targets = {3, 7, 9};
  auto f = decode(encode(m));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().type, MessageType::kPeerEvent);
  EXPECT_EQ(f.value().peer_event.targets, (std::vector<BrokerId>{3, 7, 9}));
}

TEST(EventWire, HelloRoundTrip) {
  auto f = decode(encode(HelloMessage{"alice", 5004}));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().hello.client_name, "alice");
  EXPECT_EQ(f.value().hello.udp_port, 5004);
  auto a = decode(encode(HelloAckMessage{17, 9001}));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().hello_ack.client_id, 17u);
}

TEST(EventWire, RejectsGarbage) {
  EXPECT_FALSE(decode(Bytes{}).ok());
  EXPECT_FALSE(decode(Bytes{99, 1, 2}).ok());
}

class BrokerTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  sim::Network net{loop, 21};

  sim::Host& host(const std::string& name) { return net.add_host(name); }
};

TEST_F(BrokerTest, SingleBrokerPubSub) {
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint(), {.name = "pub"});
  BrokerClient sub(host("sub"), broker.stream_endpoint(), {.name = "sub"});
  sub.subscribe("/session/1/video");
  std::vector<std::string> got;
  sub.on_event([&](const Event& e) { got.push_back(to_string(e.payload)); });
  loop.run();  // handshakes
  ASSERT_TRUE(pub.ready());
  ASSERT_TRUE(sub.ready());
  pub.publish("/session/1/video", to_bytes("frame1"));
  pub.publish("/session/1/audio", to_bytes("nope"));
  pub.publish("/session/1/video", to_bytes("frame2"));
  loop.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "frame1");
  EXPECT_EQ(got[1], "frame2");
  EXPECT_EQ(broker.events_in(), 3u);
  EXPECT_EQ(broker.copies_delivered(), 2u);
}

TEST_F(BrokerTest, PublishBeforeReadyIsQueued) {
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient sub(host("sub"), broker.stream_endpoint());
  sub.subscribe("/t");
  int got = 0;
  sub.on_event([&](const Event&) { ++got; });
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  pub.publish("/t", to_bytes("early"));  // before handshake completes
  loop.run();
  EXPECT_EQ(got, 1);
}

TEST_F(BrokerTest, WildcardSubscription) {
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  BrokerClient sub(host("sub"), broker.stream_endpoint());
  sub.subscribe("/session/1/#");
  int got = 0;
  sub.on_event([&](const Event&) { ++got; });
  loop.run();
  pub.publish("/session/1/video", to_bytes("a"));
  pub.publish("/session/1/audio", to_bytes("b"));
  pub.publish("/session/2/video", to_bytes("c"));
  loop.run();
  EXPECT_EQ(got, 2);
}

TEST_F(BrokerTest, UnsubscribeStopsDelivery) {
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  BrokerClient sub(host("sub"), broker.stream_endpoint());
  sub.subscribe("/t");
  int got = 0;
  sub.on_event([&](const Event&) { ++got; });
  loop.run();
  pub.publish("/t", to_bytes("one"));
  loop.run();
  sub.unsubscribe("/t");
  loop.run();
  pub.publish("/t", to_bytes("two"));
  loop.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(broker.subscription_count(), 0u);
}

TEST_F(BrokerTest, MultipleSubscribersEachGetACopy) {
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  std::vector<std::unique_ptr<BrokerClient>> subs;
  int got = 0;
  for (int i = 0; i < 10; ++i) {
    subs.push_back(std::make_unique<BrokerClient>(host("sub" + std::to_string(i)),
                                                  broker.stream_endpoint()));
    subs.back()->subscribe("/t");
    subs.back()->on_event([&](const Event&) { ++got; });
  }
  loop.run();
  pub.publish("/t", to_bytes("x"));
  loop.run();
  EXPECT_EQ(got, 10);
  EXPECT_EQ(broker.copies_delivered(), 10u);
}

TEST_F(BrokerTest, EventCarriesOriginTimestampEndToEnd) {
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  BrokerClient sub(host("sub"), broker.stream_endpoint());
  sub.subscribe("/t");
  SimTime origin, arrival;
  sub.on_event([&](const Event& e) {
    origin = e.origin;
    arrival = loop.now();
  });
  loop.run();
  SimTime published_at = loop.now();
  pub.publish("/t", Bytes(1000, 0));
  loop.run();
  EXPECT_EQ(origin, published_at);
  EXPECT_GT(arrival, origin);  // dispatch cost + two network legs
}

TEST_F(BrokerTest, ReliableQosDeliveredOverStreamDespiteLoss) {
  sim::Host& bh = host("broker");
  sim::Host& sh = host("sub");
  BrokerNode broker(bh, 0);
  // Lossy path: UDP events would vanish, stream traffic is reliable.
  net.set_path(bh.id(), sh.id(), sim::PathConfig{.latency = duration_us(100), .loss = 1.0});
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  BrokerClient sub(sh, broker.stream_endpoint(), {.udp_delivery = true});
  sub.subscribe("/t");
  int got = 0;
  sub.on_event([&](const Event&) { ++got; });
  loop.run();
  pub.publish("/t", to_bytes("lost"), QoS::kBestEffort);
  pub.publish("/t", to_bytes("kept"), QoS::kReliable);
  loop.run();
  EXPECT_EQ(got, 1);
}

TEST_F(BrokerTest, DispatchCostScalesWithFanout) {
  // With one dispatch thread, delivering to N clients takes ~N copy costs;
  // the last receiver's delay reflects the full fanout serialization.
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  std::vector<std::unique_ptr<BrokerClient>> subs;
  SimTime last_arrival;
  for (int i = 0; i < 50; ++i) {
    subs.push_back(std::make_unique<BrokerClient>(host("s" + std::to_string(i)),
                                                  broker.stream_endpoint()));
    subs.back()->subscribe("/t");
    subs.back()->on_event([&](const Event&) { last_arrival = loop.now(); });
  }
  loop.run();
  SimTime t0 = loop.now();
  pub.publish("/t", Bytes(1024, 0));
  loop.run();
  // 50 copies x ~30us = ~1.5ms minimum.
  EXPECT_GT((last_arrival - t0).us(), 1000);
}

TEST_F(BrokerTest, EncodeOnceRegardlessOfFanout) {
  // The encode-once fan-out: delivering one event to 400 subscribers must
  // serialize the kEvent frame exactly once process-wide — at the
  // publishing client. The broker adopts the arrival frame as the routed
  // event's wire image and shares it with every recipient.
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  std::vector<std::unique_ptr<BrokerClient>> subs;
  int got = 0;
  for (int i = 0; i < 400; ++i) {
    subs.push_back(std::make_unique<BrokerClient>(host("s" + std::to_string(i)),
                                                  broker.stream_endpoint()));
    subs.back()->subscribe("/t");
    subs.back()->on_event([&](const Event&) { ++got; });
  }
  loop.run();
  std::uint64_t enc0 = event_encode_count();
  pub.publish("/t", Bytes(1024, 0));
  loop.run();
  EXPECT_EQ(got, 400);
  EXPECT_EQ(broker.copies_delivered(), 400u);
  EXPECT_EQ(event_encode_count() - enc0, 1u);
}

TEST_F(BrokerTest, DeliveryOrderMatchesSubscriptionOrder) {
  // Regression vs the pre-index path: copy jobs are submitted in ascending
  // client-id order, so equal-latency receivers hear the event in the
  // order they subscribed.
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  std::vector<std::unique_ptr<BrokerClient>> subs;
  std::vector<int> arrivals;
  for (int i = 0; i < 8; ++i) {
    subs.push_back(std::make_unique<BrokerClient>(host("s" + std::to_string(i)),
                                                  broker.stream_endpoint()));
    subs.back()->subscribe("/t");
    subs.back()->on_event([&arrivals, i](const Event&) { arrivals.push_back(i); });
  }
  loop.run();
  pub.publish("/t", to_bytes("x"));
  loop.run();
  EXPECT_EQ(arrivals, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(BrokerTest, OverlappingFiltersDeliverSingleCopy) {
  // A client whose exact and wildcard filters both match still gets one
  // copy (the index deduplicates across its exact table and wildcard
  // list, like the old per-client break).
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  BrokerClient sub(host("sub"), broker.stream_endpoint());
  sub.subscribe("/s/1/video");
  sub.subscribe("/s/1/#");
  sub.subscribe("/s/*/video");
  int got = 0;
  sub.on_event([&](const Event&) { ++got; });
  loop.run();
  pub.publish("/s/1/video", to_bytes("x"));
  loop.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(broker.copies_delivered(), 1u);
}

TEST_F(BrokerTest, DuplicateHelloKeepsFirstIdentity) {
  // A second Hello on an identified connection must not mint a second
  // ClientRec (the old path leaked the first one and its udp_index entry).
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  sim::Host& ch = host("client");
  auto conn = transport::StreamConnection::connect(ch, broker.stream_endpoint());
  std::vector<ClientId> acks;
  conn->on_message([&](const Payload& data) {
    auto f = decode(data);
    if (f.ok() && f.value().type == MessageType::kHelloAck) {
      acks.push_back(f.value().hello_ack.client_id);
    }
  });
  conn->send(encode(HelloMessage{"dup", 5004}));
  conn->send(encode(HelloMessage{"dup-again", 5006}));
  loop.run();
  EXPECT_EQ(broker.client_count(), 1u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], 1u);
}

TEST_F(BrokerTest, ClientDisconnectCleansSubscriptions) {
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  {
    auto sub = std::make_unique<BrokerClient>(host("sub"), broker.stream_endpoint());
    sub->subscribe("/t");
    loop.run();
    EXPECT_EQ(broker.client_count(), 1u);
    EXPECT_EQ(broker.subscription_count(), 1u);
    // BrokerClient has no explicit close; dropping it closes the stream.
    sub.reset();
  }
  loop.run();
  EXPECT_EQ(broker.client_count(), 0u);
  EXPECT_EQ(broker.subscription_count(), 0u);
}

// Closing a client frees its inbound stream in O(1), whatever order the
// clients leave in. 1,000 clients leave in a seeded shuffled order, 100 at
// a time; after each batch the broker's tables hold exactly the survivors
// and every survivor still receives a published event.
TEST_F(BrokerTest, ThousandClientsLeavingInShuffledOrderLeaveExactlyTheSurvivors) {
  constexpr int kClients = 1000;
  constexpr int kPerHost = 100;
  constexpr int kBatch = 100;
  BrokerNode broker(host("broker"), 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint(), {.name = "pub"});
  std::vector<std::unique_ptr<BrokerClient>> subs;
  std::vector<int> got(kClients, 0);
  sim::Host* h = nullptr;
  for (int i = 0; i < kClients; ++i) {
    if (i % kPerHost == 0) h = &host("rx-" + std::to_string(i / kPerHost));
    subs.push_back(std::make_unique<BrokerClient>(
        *h, broker.stream_endpoint(), BrokerClient::Config{.name = "s" + std::to_string(i)}));
    subs.back()->subscribe("/t");
    subs.back()->on_event([&got, i](const Event&) { ++got[static_cast<std::size_t>(i)]; });
  }
  loop.run();
  std::vector<int> order(kClients);
  for (int i = 0; i < kClients; ++i) order[static_cast<std::size_t>(i)] = i;
  Rng rng(2026);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  int published = 0;
  for (int closed = 0; closed < kClients;) {
    for (int k = 0; k < kBatch; ++k) subs[static_cast<std::size_t>(order[closed++])].reset();
    loop.run();
    const auto survivors = static_cast<std::size_t>(kClients - closed);
    ASSERT_EQ(broker.client_count(), survivors + 1) << "after " << closed << " closes";
    ASSERT_EQ(broker.subscription_count(), survivors);
    pub.publish("/t", to_bytes("x"));
    ++published;
    loop.run();
    for (int i = 0; i < kClients; ++i) {
      if (subs[static_cast<std::size_t>(i)]) {
        ASSERT_EQ(got[static_cast<std::size_t>(i)], published) << "survivor " << i;
      }
    }
  }
  EXPECT_EQ(broker.client_count(), 1u);
}

// A departure unsubscribes exactly the client's own filters, whatever the
// table holds: 1,000 clients over 500 exact topics plus two wildcard
// filters leave in a seeded shuffled order, and after each batch the
// index holds exactly the survivors' entries and one publish per sampled
// topic reaches exactly the survivors whose filters match it.
TEST_F(BrokerTest, ClientsLeavingAcrossManyTopicsLeaveExactlyTheSurvivors) {
  constexpr int kClients = 1000;
  constexpr int kTopics = 500;
  constexpr int kPerHost = 100;
  constexpr int kBatch = 125;
  BrokerNode broker(host("broker"), 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint(), {.name = "pub"});
  auto topic = [](int t) { return "/t/" + std::to_string(t); };
  // Client i holds its exact topic; a few also hold "/t/*" or "/t/#".
  auto star = [](int i) { return i % 250 == 3; };
  auto hash = [](int i) { return i % 250 == 100; };
  std::vector<std::unique_ptr<BrokerClient>> subs;
  std::vector<int> got(kClients, 0);
  sim::Host* h = nullptr;
  for (int i = 0; i < kClients; ++i) {
    if (i % kPerHost == 0) h = &host("rx-" + std::to_string(i / kPerHost));
    subs.push_back(std::make_unique<BrokerClient>(
        *h, broker.stream_endpoint(), BrokerClient::Config{.name = "s" + std::to_string(i)}));
    subs.back()->subscribe(topic(i % kTopics));
    if (star(i)) subs.back()->subscribe("/t/*");
    if (hash(i)) subs.back()->subscribe("/t/#");
    subs.back()->on_event([&got, i](const Event&) { ++got[static_cast<std::size_t>(i)]; });
  }
  loop.run();
  ASSERT_EQ(broker.subscriptions().exact_topic_count(), static_cast<std::size_t>(kTopics));
  ASSERT_EQ(broker.subscriptions().wildcard_filter_count(), 2u);
  std::vector<int> order(kClients);
  for (int i = 0; i < kClients; ++i) order[static_cast<std::size_t>(i)] = i;
  Rng rng(2024);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  const std::vector<int> sampled = {0, 3, 100, 257, 499};
  std::vector<int> expected(kClients, 0);
  for (int closed = 0; closed < kClients;) {
    for (int k = 0; k < kBatch; ++k) subs[static_cast<std::size_t>(order[closed++])].reset();
    loop.run();
    std::size_t entries = 0;
    std::set<int> live_topics;
    bool any_star = false;
    bool any_hash = false;
    for (int i = 0; i < kClients; ++i) {
      if (!subs[static_cast<std::size_t>(i)]) continue;
      live_topics.insert(i % kTopics);
      entries += 1 + (star(i) ? 1 : 0) + (hash(i) ? 1 : 0);
      any_star = any_star || star(i);
      any_hash = any_hash || hash(i);
    }
    ASSERT_EQ(broker.subscription_count(), entries) << "after " << closed << " closes";
    ASSERT_EQ(broker.subscriptions().entry_count(), entries);
    ASSERT_EQ(broker.subscriptions().exact_topic_count(), live_topics.size());
    ASSERT_EQ(broker.subscriptions().wildcard_filter_count(),
              static_cast<std::size_t>(any_star) + static_cast<std::size_t>(any_hash));
    for (const int t : sampled) {
      pub.publish(topic(t), to_bytes("x"));
      for (int i = 0; i < kClients; ++i) {
        if (i % kTopics == t || star(i) || hash(i)) ++expected[static_cast<std::size_t>(i)];
      }
    }
    loop.run();
    for (int i = 0; i < kClients; ++i) {
      if (subs[static_cast<std::size_t>(i)]) {
        ASSERT_EQ(got[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)])
            << "survivor " << i << " after " << closed << " closes";
      }
    }
  }
  EXPECT_EQ(broker.subscriptions().entry_count(), 0u);
  EXPECT_EQ(broker.subscriptions().exact_topic_count(), 0u);
  EXPECT_EQ(broker.subscriptions().wildcard_filter_count(), 0u);
}

// Client ids are minted in order and never reused; a departed client's
// record slot is. A copy still queued for a departed client is dropped,
// not handed to the newcomer whose record took that slot.
TEST_F(BrokerTest, DepartedClientsQueuedCopyIsDroppedNotRedirected) {
  sim::Host& bh = host("broker");
  BrokerNode::Config cfg;
  cfg.dispatch.copy_fixed = duration_ms(20);  // copies wait long enough to race
  BrokerNode broker(bh, 0, cfg);
  BrokerClient pub(host("pub"), broker.stream_endpoint(), {.name = "pub"});
  std::vector<std::unique_ptr<BrokerClient>> subs;
  std::vector<std::string> got;
  auto add_sub = [&](const std::string& name) {
    subs.push_back(std::make_unique<BrokerClient>(host(name), broker.stream_endpoint(),
                                                  BrokerClient::Config{.name = name}));
    subs.back()->subscribe("/t");
    subs.back()->on_event([&got, name](const Event&) { got.push_back(name); });
  };
  add_sub("a");
  add_sub("b");
  add_sub("c");
  loop.run();
  const ClientId c_id = subs[2]->id();
  pub.publish("/t", to_bytes("x"));
  // One dispatch thread: the copies to a, b and c finish ~20, 40 and 60
  // ms after the event arrives. b leaves while its copy is queued, and
  // d connects (taking b's record slot) before that copy comes up.
  loop.run_until(loop.now() + duration_ms(5));
  subs[1].reset();
  add_sub("d");
  loop.run_until(loop.now() + duration_ms(10));
  EXPECT_EQ(subs[3]->id(), c_id + 1);
  EXPECT_EQ(broker.client_count(), 4u);  // pub, a, c, d
  loop.run();
  EXPECT_EQ(got, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(broker.subscription_count(), 3u);
  EXPECT_EQ(broker.copies_delivered(), 2u);
}

// The Event an on_event handler sees is client-owned decode storage, so
// the client must touch nothing of its own after the handler returns: the
// handler may publish, change its subscriptions or destroy the client.
// Runs on both delivery channels (UDP datagram and control stream).
TEST_F(BrokerTest, EventHandlerMayPublishResubscribeOrDestroyItsClient) {
  sim::Host& bh = host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(host("pub"), broker.stream_endpoint());
  BrokerClient echo_rx(host("echo-rx"), broker.stream_endpoint());
  echo_rx.subscribe("/echo");
  std::vector<std::string> echoed;
  echo_rx.on_event([&](const Event& e) { echoed.push_back(to_string(e.payload)); });

  std::vector<std::unique_ptr<BrokerClient>> subs;
  std::vector<std::string> seen;
  for (bool udp : {true, false}) {
    const std::string name = udp ? "udp-rx" : "stream-rx";
    BrokerClient::Config cfg{.name = name, .udp_delivery = udp};
    subs.push_back(std::make_unique<BrokerClient>(host(name), broker.stream_endpoint(), cfg));
    BrokerClient* self = subs.back().get();
    const std::size_t slot = subs.size() - 1;
    self->subscribe("/t");
    self->on_event([&, self, slot, name](const Event& e) {
      const std::string body = to_string(e.payload);
      seen.push_back(name + ":" + body);
      if (body == "publish") {
        self->publish("/echo", to_bytes(name + e.topic));
      } else if (body == "resubscribe") {
        self->unsubscribe("/t");
        self->subscribe("/t");
      } else if (body == "destroy") {
        subs[slot].reset();  // last statement: nothing touches `e` or `self` after
      }
    });
  }
  loop.run();
  for (const char* body : {"publish", "resubscribe", "after", "destroy", "gone"}) {
    pub.publish("/t", to_bytes(body));
    loop.run();
  }
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "udp-rx:publish", "stream-rx:publish", "udp-rx:resubscribe",
                      "stream-rx:resubscribe", "udp-rx:after", "stream-rx:after",
                      "udp-rx:destroy", "stream-rx:destroy"}));
  EXPECT_EQ(echoed, (std::vector<std::string>{"udp-rx/t", "stream-rx/t"}));
  EXPECT_EQ(subs[0], nullptr);
  EXPECT_EQ(subs[1], nullptr);
  EXPECT_EQ(broker.client_count(), 2u);  // the destroyed clients' records are gone
}

class BrokerNetTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  sim::Network net{loop, 33};
};

TEST_F(BrokerNetTest, TwoBrokerRouting) {
  BrokerNetwork fabric(net);
  BrokerNode& b0 = fabric.add_broker(net.add_host("b0"));
  BrokerNode& b1 = fabric.add_broker(net.add_host("b1"));
  fabric.link(0, 1);
  fabric.finalize();
  BrokerClient pub(net.add_host("pub"), b0.stream_endpoint());
  BrokerClient sub(net.add_host("sub"), b1.stream_endpoint());
  sub.subscribe("/conf/video");
  std::vector<std::uint8_t> hops;
  sub.on_event([&](const Event& e) { hops.push_back(e.hops); });
  loop.run();
  pub.publish("/conf/video", to_bytes("x"));
  loop.run();
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], 1);  // one broker-to-broker hop
  EXPECT_EQ(b0.peer_forwards(), 1u);
}

TEST_F(BrokerNetTest, ChainRoutingMultiHop) {
  BrokerNetwork fabric(net);
  for (int i = 0; i < 4; ++i) fabric.add_broker(net.add_host("b" + std::to_string(i)));
  fabric.link(0, 1);
  fabric.link(1, 2);
  fabric.link(2, 3);
  fabric.finalize();
  EXPECT_EQ(fabric.distance(0, 3), 3);
  EXPECT_EQ(fabric.next_hop(0, 3), 1u);
  BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint());
  BrokerClient sub(net.add_host("sub"), fabric.broker(3).stream_endpoint());
  sub.subscribe("/t");
  std::uint8_t seen_hops = 0;
  sub.on_event([&](const Event& e) { seen_hops = e.hops; });
  loop.run();
  pub.publish("/t", to_bytes("x"));
  loop.run();
  EXPECT_EQ(seen_hops, 3);
}

TEST_F(BrokerNetTest, NoDuplicateDeliveryOnSharedPaths) {
  // Chain b0-b1-b2 with subscribers at b1 and b2: b1 must both deliver
  // locally and forward, and b2's copy must arrive exactly once.
  BrokerNetwork fabric(net);
  for (int i = 0; i < 3; ++i) fabric.add_broker(net.add_host("b" + std::to_string(i)));
  fabric.link(0, 1);
  fabric.link(1, 2);
  fabric.finalize();
  BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint());
  BrokerClient sub1(net.add_host("s1"), fabric.broker(1).stream_endpoint());
  BrokerClient sub2(net.add_host("s2"), fabric.broker(2).stream_endpoint());
  sub1.subscribe("/t");
  sub2.subscribe("/t");
  int got1 = 0, got2 = 0;
  sub1.on_event([&](const Event&) { ++got1; });
  sub2.on_event([&](const Event&) { ++got2; });
  loop.run();
  pub.publish("/t", to_bytes("x"));
  loop.run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
  // b0 sent exactly one copy toward b1 (shared next hop for both targets).
  EXPECT_EQ(fabric.broker(0).peer_forwards(), 1u);
}

TEST_F(BrokerNetTest, PublisherLocalBrokerSubscribersUnaffectedByFabric) {
  BrokerNetwork fabric(net);
  fabric.add_broker(net.add_host("b0"));
  fabric.add_broker(net.add_host("b1"));
  fabric.link(0, 1);
  fabric.finalize();
  BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint());
  BrokerClient local_sub(net.add_host("ls"), fabric.broker(0).stream_endpoint());
  local_sub.subscribe("/t");
  int got = 0;
  local_sub.on_event([&](const Event& e) {
    ++got;
    EXPECT_EQ(e.hops, 0);
  });
  loop.run();
  pub.publish("/t", to_bytes("x"));
  loop.run();
  EXPECT_EQ(got, 1);
  // Nothing forwarded: the only interest is local.
  EXPECT_EQ(fabric.broker(0).peer_forwards(), 0u);
}

TEST_F(BrokerNetTest, HierarchyTopologyRoutesEverywhere) {
  BrokerNetwork fabric(net);
  // 2 super-clusters x 2 clusters x 2 nodes = 8 brokers.
  for (int sc = 0; sc < 2; ++sc) {
    for (int c = 0; c < 2; ++c) {
      for (int n = 0; n < 2; ++n) {
        BrokerNode& b = fabric.add_broker(
            net.add_host("b" + std::to_string(sc) + std::to_string(c) + std::to_string(n)));
        fabric.set_address(b.id(), ClusterAddress{sc, c, n});
      }
    }
  }
  fabric.link_hierarchy();
  for (BrokerId i = 0; i < 8; ++i) {
    for (BrokerId j = 0; j < 8; ++j) {
      EXPECT_GE(fabric.distance(i, j), 0) << i << "->" << j;
    }
  }
  // End-to-end across super-clusters.
  BrokerClient pub(net.add_host("pub"), fabric.broker(1).stream_endpoint());
  BrokerClient sub(net.add_host("sub"), fabric.broker(7).stream_endpoint());
  sub.subscribe("/x");
  int got = 0;
  sub.on_event([&](const Event&) { ++got; });
  loop.run();
  pub.publish("/x", to_bytes("x"));
  loop.run();
  EXPECT_EQ(got, 1);
}

TEST_F(BrokerNetTest, UnroutableTargetsCountedNotFatal) {
  // Two brokers with interest but no path between them: every event that
  // cannot reach its interested broker bumps unroutable_events() (and
  // warns once, not per event).
  BrokerNetwork fabric(net);
  BrokerNode& b0 = fabric.add_broker(net.add_host("b0"));
  fabric.add_broker(net.add_host("b1"));
  fabric.finalize();  // no links: b1 is unreachable from b0
  BrokerClient pub(net.add_host("pub"), b0.stream_endpoint());
  BrokerClient sub(net.add_host("sub"), fabric.broker(1).stream_endpoint());
  sub.subscribe("/t");
  int got = 0;
  sub.on_event([&](const Event&) { ++got; });
  loop.run();
  for (int i = 0; i < 5; ++i) pub.publish("/t", to_bytes("x"));
  loop.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(b0.unroutable_events(), 5u);
  EXPECT_EQ(b0.peer_forwards(), 0u);
}

TEST_F(BrokerNetTest, ClientViaProxyTraversesFirewall) {
  BrokerNetwork fabric(net);
  BrokerNode& b = fabric.add_broker(net.add_host("broker"));
  fabric.finalize();
  sim::Host& inside = net.add_host("inside");
  sim::Host& proxy_host = net.add_host("proxy");
  transport::Firewall fw(inside, transport::FirewallRules{});
  transport::ProxyServer proxy(proxy_host);
  BrokerClient pub(net.add_host("pub"), b.stream_endpoint());
  BrokerClient sub(inside, b.stream_endpoint(),
                   {.name = "tunneled", .via_proxy = proxy.endpoint()});
  sub.subscribe("/t");
  int got = 0;
  sub.on_event([&](const Event&) { ++got; });
  loop.run();
  ASSERT_TRUE(sub.ready());
  pub.publish("/t", to_bytes("through-the-wall"), QoS::kReliable);
  loop.run();
  EXPECT_EQ(got, 1);
}

TEST_F(BrokerNetTest, RtpProxyBridgesRawRtp) {
  BrokerNetwork fabric(net);
  BrokerNode& b = fabric.add_broker(net.add_host("broker"));
  fabric.finalize();
  RtpProxy proxy(net.add_host("proxy"), b.stream_endpoint(), {.topic = "/s/1/video"});
  // Raw RTP sender and receiver that know nothing about the broker.
  sim::Host& tx_host = net.add_host("tx");
  sim::Host& rx_host = net.add_host("rx");
  transport::DatagramSocket tx(tx_host);
  transport::DatagramSocket rx(rx_host);
  int got = 0;
  rx.on_receive([&](const sim::Datagram& d) {
    ++got;
    EXPECT_EQ(d.payload.size(), 200u);
  });
  proxy.add_receiver(rx.local());
  loop.run();  // proxy handshake
  tx.send_to(proxy.rtp_ingress(), Bytes(200, 7));
  loop.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(proxy.packets_published(), 1u);
  EXPECT_EQ(proxy.packets_fanned_out(), 1u);
}

}  // namespace
}  // namespace gmmcs::broker
