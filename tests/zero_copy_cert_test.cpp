// Zero-copy certification for the routed-event payload plane (DESIGN.md §15).
//
// The claim: a routed event's bytes are allocated exactly once — the wire
// frame built at the publishing client — and every hop from there to the
// last of 400 subscribers shares that buffer by refcount. Three
// independent instruments certify it on a warmed broker:
//
//   - payload_copy_count()/payload_bytes_copied(): the counted escape
//     hatches (Payload::copy_of / to_bytes) must not fire at all.
//   - event_encode_count(): exactly one kEvent serialization
//     process-wide (the broker adopts the publisher's frame).
//   - a counting global operator new: exactly one allocation of
//     payload size or larger — the frame itself. Fan-out to 400
//     subscribers adds zero.
//
// Own binary because it replaces global new/delete (like small_fn_test).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/event.hpp"
#include "common/payload.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "transport/stream.hpp"

namespace {

// Any single allocation this large is assumed to be a payload buffer:
// the sim's bookkeeping (deque blocks, hash nodes, topic strings) stays
// well under it, and the event payload is chosen well over it.
constexpr std::size_t kLargeAlloc = 4096;
constexpr std::size_t kPayloadBytes = 8192;

std::atomic<std::uint64_t> g_large_allocs{0};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting global new/delete: the test binary is single-process and the
// counters only ever diffed around deterministic single-threaded regions.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size >= kLargeAlloc) g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gmmcs::broker {
namespace {

TEST(ZeroCopyCert, WarmedFanoutTo400SubscribersAllocatesThePayloadOnce) {
  sim::EventLoop loop;
  sim::Network net{loop, 21};

  sim::Host& bh = net.add_host("broker");
  BrokerNode broker(bh, 0);
  BrokerClient pub(net.add_host("pub"), broker.stream_endpoint());
  std::vector<std::unique_ptr<BrokerClient>> subs;
  int got = 0;
  for (int i = 0; i < 400; ++i) {
    subs.push_back(std::make_unique<BrokerClient>(
        net.add_host("s" + std::to_string(i)), broker.stream_endpoint()));
    subs.back()->subscribe("/t");
    subs.back()->on_event([&](const Event& ev) {
      if (ev.payload.size() == kPayloadBytes) ++got;
    });
  }
  loop.run();

  // Warm rounds: grow the loop's job queues, the broker's subscription
  // index, and every stream's buffers to steady-state size so the
  // measured round sees only the traffic itself.
  for (int round = 0; round < 2; ++round) {
    pub.publish("/t", Bytes(kPayloadBytes, 0x5a));
    loop.run();
  }
  got = 0;

  // Build the payload before sampling so its own buffer isn't charged
  // to the measured region (it is moved, not copied, into the Payload).
  Bytes body(kPayloadBytes, 0x5a);
  const std::uint64_t copies0 = payload_copy_count();
  const std::uint64_t bytes0 = payload_bytes_copied();
  const std::uint64_t enc0 = event_encode_count();
  const std::uint64_t large0 = g_large_allocs.load(std::memory_order_relaxed);
  const std::uint64_t delivered0 = broker.copies_delivered();

  pub.publish("/t", std::move(body));
  loop.run();

  EXPECT_EQ(got, 400);
  EXPECT_EQ(broker.copies_delivered() - delivered0, 400u);
  // Zero deep copies publish→delivery: the escape hatches never fired...
  EXPECT_EQ(payload_copy_count() - copies0, 0u);
  EXPECT_EQ(payload_bytes_copied() - bytes0, 0u);
  // ...the frame was serialized once, at the publishing client...
  EXPECT_EQ(event_encode_count() - enc0, 1u);
  // ...and that serialization is the only payload-sized allocation in
  // the whole process. 400 deliveries cost refcount bumps, not buffers.
  EXPECT_EQ(g_large_allocs.load(std::memory_order_relaxed) - large0, 1u);
}

// The reliable stream path under every broker link, SIP, SOAP and RTSP
// session: a message costs only its segment frame. A FrameWriter-built
// message (every broker frame) IS its segment: the kData byte goes into
// its headroom, so sending it allocates nothing and copies nothing. A
// message without headroom (an adopted vector) is framed by one counted
// copy. Delivery hands the receiver a slice of the arriving segment, so
// no second buffer is allocated on the receiving side.
gmmcs::Payload written_frame() {
  FrameWriter w(kPayloadBytes);
  w.raw(Bytes(kPayloadBytes, 0x5a));
  return w.take();
}

TEST(ZeroCopyCert, StreamMessagesCostOnlyTheirSegmentFrame) {
  sim::EventLoop loop;
  sim::Network net{loop, 21};
  sim::Host& a = net.add_host("a");
  transport::StreamListener listener(net.add_host("b"), 9000);
  transport::StreamConnectionPtr accepted;
  int got = 0;
  listener.on_accept([&](transport::StreamConnectionPtr c) {
    accepted = std::move(c);
    accepted->on_message([&](const Payload& m) {
      if (m.size() == kPayloadBytes) ++got;
    });
  });
  auto conn = transport::StreamConnection::connect(a, listener.local());
  loop.run();
  ASSERT_TRUE(conn->established());

  constexpr int kMessages = 16;
  // Warm round: grow the NIC queue, the in-flight slots and the link FIFO.
  for (int i = 0; i < kMessages; ++i) conn->send(written_frame());
  loop.run();
  got = 0;

  std::vector<Payload> frames;
  for (int i = 0; i < kMessages; ++i) frames.push_back(written_frame());
  std::uint64_t copies0 = payload_copy_count();
  std::uint64_t large0 = g_large_allocs.load(std::memory_order_relaxed);
  for (Payload& m : frames) conn->send(std::move(m));
  loop.run();
  EXPECT_EQ(got, kMessages);
  EXPECT_EQ(payload_copy_count() - copies0, 0u);
  EXPECT_EQ(g_large_allocs.load(std::memory_order_relaxed) - large0, 0u);

  got = 0;
  std::vector<Payload> adopted;
  for (int i = 0; i < kMessages; ++i) adopted.emplace_back(Bytes(kPayloadBytes, 0x5a));
  copies0 = payload_copy_count();
  const std::uint64_t bytes0 = payload_bytes_copied();
  large0 = g_large_allocs.load(std::memory_order_relaxed);
  for (Payload& m : adopted) conn->send(std::move(m));
  loop.run();
  EXPECT_EQ(got, kMessages);
  EXPECT_EQ(conn->segments_dropped(), 0u);
  EXPECT_EQ(payload_copy_count() - copies0, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(payload_bytes_copied() - bytes0, kMessages * kPayloadBytes);
  EXPECT_EQ(g_large_allocs.load(std::memory_order_relaxed) - large0,
            static_cast<std::uint64_t>(kMessages));
}

// Host cost of one warmed UDP fan-out of a small event to n subscribers:
// heap allocations and executed loop events across the publish. The topic
// is longer than std::string's inline buffer, so a receiver that built a
// fresh topic string per event would show up as an allocation.
constexpr const char* kLongTopic = "/xgsp/session/42/video";

struct FanoutCost {
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
};

FanoutCost warmed_fanout_cost(int n, int threads = 1) {
  sim::EventLoop loop;
  sim::Network net{loop, 21};
  BrokerNode::Config cfg;
  cfg.dispatch.threads = threads;
  BrokerNode broker(net.add_host("broker"), 0, cfg);
  BrokerClient pub(net.add_host("pub"), broker.stream_endpoint());
  std::vector<std::unique_ptr<BrokerClient>> subs;
  int got = 0;
  for (int i = 0; i < n; ++i) {
    subs.push_back(std::make_unique<BrokerClient>(net.add_host("s" + std::to_string(i)),
                                                  broker.stream_endpoint()));
    subs.back()->subscribe(kLongTopic);
    subs.back()->on_event([&](const Event&) { ++got; });
  }
  loop.run();
  for (int round = 0; round < 2; ++round) {
    pub.publish(kLongTopic, Bytes(256, 0x5a));
    loop.run();
  }
  got = 0;
  Bytes body(256, 0x5a);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t events0 = loop.executed();
  pub.publish(kLongTopic, std::move(body));
  loop.run();
  FanoutCost cost{g_allocs.load(std::memory_order_relaxed) - allocs0, loop.executed() - events0};
  EXPECT_EQ(got, n);
  return cost;
}

// The marginal host cost of one more subscriber: its dispatch completion
// and its datagram's arrival are the only loop events, and neither the
// broker, the network nor the receiving client allocates for it.
TEST(ZeroCopyCert, EachAddedSubscriberCostsTwoEventsAndNoAllocation) {
  const FanoutCost at200 = warmed_fanout_cost(200);
  const FanoutCost at400 = warmed_fanout_cost(400);
  EXPECT_EQ(at400.allocs, at200.allocs) << "allocations per added subscriber: "
                                        << static_cast<double>(at400.allocs - at200.allocs) / 200;
  EXPECT_EQ(at400.events - at200.events, 2u * 200u);
}

// The batched fan-out's own state (recipient list, batch record, slot-
// indexed completion callable) is recycled: a warmed fan-out to 400 local
// subscribers costs exactly the allocations of a publish no one
// subscribes to, i.e. zero per event, whether one dispatch thread serves
// the batch or eight.
TEST(ZeroCopyCert, WarmedBatchedFanoutAllocatesNothingAtOneAndEightThreads) {
  for (int threads : {1, 8}) {
    const FanoutCost none = warmed_fanout_cost(0, threads);
    const FanoutCost fan = warmed_fanout_cost(400, threads);
    EXPECT_EQ(fan.allocs, none.allocs) << threads << " dispatch threads";
  }
}

// Host cost of one warmed publish of a `body`-byte event across a line of
// `hops` + 1 brokers: the publisher sits at broker 0 and the only
// subscriber at the last, so every broker in between is a pure
// peer-forwarding hop.
struct LineCost {
  std::uint64_t allocs = 0;
  std::uint64_t large_allocs = 0;
  std::uint64_t events = 0;
  std::uint64_t copies = 0;
};

LineCost warmed_line_cost(int hops, std::size_t body = 256) {
  sim::EventLoop loop;
  sim::Network net{loop, 21};
  BrokerNetwork fabric(net);
  for (int i = 0; i <= hops; ++i) fabric.add_broker(net.add_host("b" + std::to_string(i)));
  for (int i = 0; i < hops; ++i) {
    fabric.link(static_cast<BrokerId>(i), static_cast<BrokerId>(i + 1));
  }
  fabric.finalize();
  BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint());
  BrokerClient sub(net.add_host("sub"),
                   fabric.broker(static_cast<BrokerId>(hops)).stream_endpoint());
  int got = 0;
  sub.subscribe(kLongTopic);
  sub.on_event([&](const Event&) { ++got; });
  loop.run();
  for (int round = 0; round < 2; ++round) {
    pub.publish(kLongTopic, Bytes(body, 0x5a));
    loop.run();
  }
  got = 0;
  Bytes payload(body, 0x5a);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t large0 = g_large_allocs.load(std::memory_order_relaxed);
  const std::uint64_t copies0 = payload_copy_count();
  const std::uint64_t events0 = loop.executed();
  pub.publish(kLongTopic, std::move(payload));
  loop.run();
  LineCost cost{g_allocs.load(std::memory_order_relaxed) - allocs0,
                g_large_allocs.load(std::memory_order_relaxed) - large0,
                loop.executed() - events0, payload_copy_count() - copies0};
  EXPECT_EQ(got, 1) << hops << " hops";
  return cost;
}

// The marginal host cost of one more broker-to-broker hop: the route job,
// the forward job and the peer frame's arrival are its only loop events,
// and its one allocation is the hop's kPeerEvent frame. The stream's kData
// byte goes into that frame's headroom, and the receiving broker decodes
// into a recycled RoutedEvent whose topic keeps its capacity.
TEST(ZeroCopyCert, EachAddedPeerHopCostsThreeEventsAndAtMostOneAllocation) {
  LineCost prev = warmed_line_cost(1);
  for (int hops = 2; hops <= 4; ++hops) {
    const LineCost cur = warmed_line_cost(hops);
    EXPECT_EQ(cur.events - prev.events, 3u) << "hop " << hops;
    EXPECT_LE(cur.allocs - prev.allocs, 1u) << "hop " << hops;
    prev = cur;
  }
}

// The fabric zero-copy certificate: across a line of brokers an event's
// body is copied only into each hop's kPeerEvent frame. Per added hop that
// is exactly one payload-sized allocation and no counted copy. A hop that
// framed its stream segment by copying the frame (a raw insert or memcpy
// of the body, or a Payload::copy_of) adds a second payload-sized
// allocation per hop, and a copy through the counted paths also moves
// payload_copy_count().
TEST(ZeroCopyCert, FabricHopsCopyTheBodyOnlyIntoTheirPeerFrame) {
  LineCost prev = warmed_line_cost(1, kPayloadBytes);
  EXPECT_EQ(prev.copies, 0u);
  for (int hops = 2; hops <= 4; ++hops) {
    const LineCost cur = warmed_line_cost(hops, kPayloadBytes);
    EXPECT_EQ(cur.copies, 0u) << "hop " << hops;
    EXPECT_EQ(cur.large_allocs - prev.large_allocs, 1u) << "hop " << hops;
    prev = cur;
  }
}

// route_remote groups targets by next hop and submits one forward per hop
// in ascending hop order, whatever order the targets arrive in. Star of
// three next hops where the target order is the reverse of the hop order
// (target 4 behind hop 3, 5 behind 2, 6 behind 1): with one dispatch
// thread the forwards complete in submission order, so the subscribers
// hear the event in hop order 1, 2, 3 — that is, at brokers 6, 5, 4.
TEST(ZeroCopyCert, ForwardsAreSubmittedInAscendingHopOrder) {
  sim::EventLoop loop;
  sim::Network net{loop, 21};
  BrokerNetwork fabric(net);
  for (int i = 0; i < 7; ++i) fabric.add_broker(net.add_host("b" + std::to_string(i)));
  fabric.link(0, 1);
  fabric.link(0, 2);
  fabric.link(0, 3);
  fabric.link(3, 4);
  fabric.link(2, 5);
  fabric.link(1, 6);
  fabric.finalize();
  BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint());
  std::vector<std::unique_ptr<BrokerClient>> subs;
  std::vector<BrokerId> heard_at;
  for (BrokerId b = 4; b <= 6; ++b) {
    subs.push_back(std::make_unique<BrokerClient>(net.add_host("s" + std::to_string(b)),
                                                  fabric.broker(b).stream_endpoint()));
    subs.back()->subscribe(kLongTopic);
    subs.back()->on_event([&heard_at, b](const Event&) { heard_at.push_back(b); });
  }
  loop.run();
  pub.publish(kLongTopic, Bytes(256, 0x5a));
  loop.run();
  EXPECT_EQ(fabric.broker(0).peer_forwards(), 3u);
  EXPECT_EQ(heard_at, (std::vector<BrokerId>{6, 5, 4}));
}

TEST(ZeroCopyCert, InstrumentationIsLive) {
  // Guard against a vacuous certification: prove the counters actually
  // fire when a deep copy does happen.
  const std::uint64_t copies0 = payload_copy_count();
  const std::uint64_t bytes0 = payload_bytes_copied();
  const std::uint64_t large0 = g_large_allocs.load(std::memory_order_relaxed);

  Bytes original(kPayloadBytes, 0x5a);
  Payload p = Payload::copy_of(original);
  Bytes back = p.to_bytes();

  EXPECT_EQ(payload_copy_count() - copies0, 2u);
  EXPECT_EQ(payload_bytes_copied() - bytes0, 2u * kPayloadBytes);
  EXPECT_GE(g_large_allocs.load(std::memory_order_relaxed) - large0, 2u);
  EXPECT_EQ(back.size(), original.size());
}

}  // namespace
}  // namespace gmmcs::broker
