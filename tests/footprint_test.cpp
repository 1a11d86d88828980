// Endpoint footprint (DESIGN.md "Endpoint footprint"): the live heap one
// handshaken media receiver costs, counted byte for byte.
//
// The shape is batched_video_1200's: one broker on 8 dispatch threads,
// 100 receivers per host, every receiver a BrokerClient subscribed to one
// 4-segment topic. Each receiver costs a BrokerClient (its UDP socket and
// the connector end of its control stream), the acceptor end of that
// stream at the broker, the broker's client record and its
// SubscriptionIndex entry, plus a hundredth of a host.
//
// Own binary because it replaces global new/delete (like
// zero_copy_cert_test). The counter is exact and works under ASan, where
// mallinfo reads nothing: each block carries its requested size in a
// 16-byte header, so delete can subtract what new added.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/event.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"

namespace {

constexpr std::size_t kHeader = alignof(std::max_align_t);
std::int64_t g_live_bytes = 0;

}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc{};
  *static_cast<std::size_t*>(base) = size;
  g_live_bytes += static_cast<std::int64_t>(size);
  return static_cast<std::byte*>(base) + kHeader;
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<std::byte*>(p) - kHeader;
  g_live_bytes -= static_cast<std::int64_t>(*static_cast<std::size_t*>(base));
  std::free(base);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace gmmcs::broker {
namespace {

constexpr int kReceivers = 1200;
constexpr int kPerHost = 100;
constexpr const char* kTopic = "/xgsp/session/lecture/video";
/// Live heap bytes one receiver may hold: this shape reads 1,445 B, and
/// read 1,459 B while the broker's client record kept a last-heard stamp
/// for its keepalive sweep. It read 2,013 B while the client and each stream end held their
/// reconnect, keepalive and connect-only state inline and the broker
/// kept a tree node per subscription, and 5,436 B while they also kept
/// empty std::deques, a heap-held handler and per-filter segment strings
/// (DESIGN.md §17).
constexpr std::int64_t kMaxBytesPerReceiver = 1550;

TEST(EndpointFootprint, HandshakenReceiverHoldsAtMost1550HeapBytes) {
  sim::EventLoop loop;
  sim::Network net{loop, 2003};
  sim::Host& server = net.add_host("server-machine");
  BrokerNode::Config cfg;
  cfg.dispatch = DispatchConfig::snapshot();
  BrokerNode broker(server, 0, cfg);
  std::vector<std::unique_ptr<BrokerClient>> rx;
  rx.reserve(kReceivers);
  std::uint64_t got = 0;
  loop.run();

  const std::int64_t before = g_live_bytes;
  sim::Host* host = nullptr;
  for (int i = 0; i < kReceivers; ++i) {
    if (i % kPerHost == 0) host = &net.add_host("rx-machine-" + std::to_string(i / kPerHost));
    rx.push_back(std::make_unique<BrokerClient>(
        *host, broker.stream_endpoint(), BrokerClient::Config{.name = "rx-" + std::to_string(i)}));
    rx.back()->subscribe(kTopic);
    rx.back()->on_event([&got](const Event&) { ++got; });
  }
  loop.run();
  const std::int64_t per_receiver = (g_live_bytes - before) / kReceivers;

  ASSERT_EQ(broker.client_count(), static_cast<std::size_t>(kReceivers));
  ASSERT_EQ(broker.subscription_count(), static_cast<std::size_t>(kReceivers));
  for (const auto& r : rx) ASSERT_TRUE(r->ready());
  RecordProperty("heap_bytes_per_receiver", std::to_string(per_receiver));
  std::printf("live heap per receiver: %lld B\n", static_cast<long long>(per_receiver));
  EXPECT_LE(per_receiver, kMaxBytesPerReceiver);

  // The fleet is live, not just allocated: one published event reaches
  // every receiver.
  BrokerClient pub(net.add_host("sender-machine"), broker.stream_endpoint());
  loop.run();
  pub.publish(kTopic, Payload(Bytes(64, 0xAB)));
  loop.run();
  EXPECT_EQ(got, static_cast<std::uint64_t>(kReceivers));
}

}  // namespace
}  // namespace gmmcs::broker
