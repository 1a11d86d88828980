// Tests for the broker link monitoring service: probe RTTs, smoothing,
// and sensitivity to dispatch load.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "broker/broker_network.hpp"
#include "broker/client.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"

namespace gmmcs::broker {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : fabric(net) {
    b0 = &fabric.add_broker(net.add_host("b0"));
    b1 = &fabric.add_broker(net.add_host("b1"));
    net.set_path(b0->host().id(), b1->host().id(),
                 sim::PathConfig{.latency = duration_ms(3)});
    fabric.link(0, 1);
    fabric.finalize();
    loop.run();  // settle the peer-link handshakes
  }

  sim::EventLoop loop;
  sim::Network net{loop, 131};
  BrokerNetwork fabric;
  BrokerNode* b0 = nullptr;
  BrokerNode* b1 = nullptr;
};

TEST_F(MonitorTest, ProbeMeasuresLinkRtt) {
  SimDuration rtt{};
  b0->probe_peer(1, [&](SimDuration d) { rtt = d; });
  loop.run();
  // ~2 x 3 ms propagation + route cost + serialization.
  EXPECT_GT(rtt.ms(), 5);
  EXPECT_LT(rtt.ms(), 10);
  ASSERT_TRUE(b0->link_rtts().contains(1));
  EXPECT_EQ(b0->link_rtts().at(1), rtt);
}

TEST_F(MonitorTest, SmoothedRttConverges) {
  for (int i = 0; i < 10; ++i) {
    b0->probe_peer(1, nullptr);
    loop.run();
  }
  SimDuration srtt = b0->link_rtts().at(1);
  SimDuration sample{};
  b0->probe_peer(1, [&](SimDuration d) { sample = d; });
  loop.run();
  // On an idle link, smoothed and instantaneous values agree closely.
  EXPECT_NEAR(static_cast<double>(srtt.ns()), static_cast<double>(sample.ns()),
              static_cast<double>(sample.ns()) * 0.1);
}

TEST_F(MonitorTest, LoadedBrokerAnswersSlowly) {
  SimDuration idle_rtt{};
  b0->probe_peer(1, [&](SimDuration d) { idle_rtt = d; });
  loop.run();

  // Pile fanout work onto b1: many subscribers, a burst of large events.
  std::vector<std::unique_ptr<BrokerClient>> subs;
  for (int i = 0; i < 50; ++i) {
    subs.push_back(std::make_unique<BrokerClient>(net.add_host("s" + std::to_string(i)),
                                                  b1->stream_endpoint()));
    subs.back()->subscribe("/t");
  }
  BrokerClient pub(net.add_host("pub"), b1->stream_endpoint());
  loop.run();
  for (int i = 0; i < 100; ++i) pub.publish("/t", Bytes(2048, 0));
  // Probe while the burst is queued (don't drain the loop first).
  SimDuration busy_rtt{};
  b0->probe_peer(1, [&](SimDuration d) { busy_rtt = d; });
  loop.run();
  EXPECT_GT(busy_rtt.ns(), idle_rtt.ns() * 3)
      << "idle=" << to_string(idle_rtt) << " busy=" << to_string(busy_rtt);
}

TEST_F(MonitorTest, ProbeToUnlinkedPeerIsNoop) {
  BrokerNode& b2 = fabric.add_broker(net.add_host("b2"));
  (void)b2;
  bool called = false;
  b0->probe_peer(2, [&](SimDuration) { called = true; });
  loop.run();
  EXPECT_FALSE(called);
}

// A kPing's pong is deferred to a dispatch job. If the stream it came on
// closes meanwhile, the job must drop the pong: it must not reach the
// freed connection (ASan reports the raw-capture form of the handler
// here).
TEST_F(MonitorTest, PongForAStreamThatClosedMeanwhileIsDropped) {
  auto conn = transport::StreamConnection::connect(net.add_host("prober"),
                                                   b1->stream_endpoint());
  loop.run();
  ASSERT_TRUE(conn->established());
  const std::uint64_t jobs = b1->dispatch().completed();
  conn->send(encode(PingMessage{7, loop.now()}, /*pong=*/false));
  // The FIN follows the kPing and closes the broker's end before the
  // pong job has run, dropping the stream's last owner.
  conn.reset();
  loop.run();
  EXPECT_EQ(b1->dispatch().completed(), jobs + 1);
}

}  // namespace
}  // namespace gmmcs::broker
