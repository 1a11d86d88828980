// Failure-injection tests: hosts going down, signaling connections
// dropping mid-call, NIC and dispatch overload, and recovery behaviour.
#include <gtest/gtest.h>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "h323/gatekeeper.hpp"
#include "h323/gateway.hpp"
#include "h323/terminal.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "xgsp/session_server.hpp"

namespace gmmcs {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  sim::Network net{loop, 101};
};

TEST_F(FailureTest, BrokerOutageStopsDeliveryAndRecovers) {
  sim::Host& bh = net.add_host("broker");
  broker::BrokerNode node(bh, 0);
  broker::BrokerClient pub(net.add_host("pub"), node.stream_endpoint());
  broker::BrokerClient sub(net.add_host("sub"), node.stream_endpoint());
  sub.subscribe("/t");
  int got = 0;
  sub.on_event([&](const broker::Event&) { ++got; });
  loop.run();
  pub.publish("/t", Bytes(10, 0));
  loop.run();
  EXPECT_EQ(got, 1);

  // Broker machine goes dark: published events vanish.
  bh.set_up(false);
  pub.publish("/t", Bytes(10, 0));
  pub.publish("/t", Bytes(10, 0));
  loop.run();
  EXPECT_EQ(got, 1);

  // Power restored: state (clients, subscriptions) survived the outage
  // model (packets were dropped, the process did not crash) and media
  // publishing resumes without re-registration.
  bh.set_up(true);
  pub.publish("/t", Bytes(10, 0));
  loop.run();
  EXPECT_EQ(got, 2);
}

TEST_F(FailureTest, MiddleBrokerOutagePartitionsChain) {
  broker::BrokerNetwork fabric(net);
  sim::Host& b0 = net.add_host("b0");
  sim::Host& b1 = net.add_host("b1");
  sim::Host& b2 = net.add_host("b2");
  fabric.add_broker(b0);
  fabric.add_broker(b1);
  fabric.add_broker(b2);
  fabric.link(0, 1);
  fabric.link(1, 2);
  fabric.finalize();
  broker::BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint());
  broker::BrokerClient near_sub(net.add_host("near"), fabric.broker(0).stream_endpoint());
  broker::BrokerClient far_sub(net.add_host("far"), fabric.broker(2).stream_endpoint());
  near_sub.subscribe("/t");
  far_sub.subscribe("/t");
  int near_got = 0, far_got = 0;
  near_sub.on_event([&](const broker::Event&) { ++near_got; });
  far_sub.on_event([&](const broker::Event&) { ++far_got; });
  loop.run();
  b1.set_up(false);  // the relay broker dies
  pub.publish("/t", Bytes(10, 0));
  loop.run();
  // Local delivery unaffected; the far side is partitioned.
  EXPECT_EQ(near_got, 1);
  EXPECT_EQ(far_got, 0);
  b1.set_up(true);
  pub.publish("/t", Bytes(10, 0));
  loop.run();
  EXPECT_EQ(near_got, 2);
  EXPECT_EQ(far_got, 1);
}

TEST_F(FailureTest, DisconnectedBrokerIsSkippedNotFatal) {
  // A subscriber sits on a broker with no links at all. Publishing at a
  // connected broker must still serve reachable subscribers and must not
  // fault the dispatch path on the unreachable one.
  broker::BrokerNetwork fabric(net);
  fabric.add_broker(net.add_host("b0"));
  fabric.add_broker(net.add_host("b1"));
  fabric.add_broker(net.add_host("island"));  // never linked
  fabric.link(0, 1);
  fabric.finalize();
  broker::BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint());
  broker::BrokerClient reachable(net.add_host("r"), fabric.broker(1).stream_endpoint());
  broker::BrokerClient marooned(net.add_host("m"), fabric.broker(2).stream_endpoint());
  reachable.subscribe("/t");
  marooned.subscribe("/t");
  int reachable_got = 0, marooned_got = 0;
  reachable.on_event([&](const broker::Event&) { ++reachable_got; });
  marooned.on_event([&](const broker::Event&) { ++marooned_got; });
  loop.run();
  pub.publish("/t", Bytes(10, 0));
  loop.run();
  EXPECT_EQ(reachable_got, 1);
  EXPECT_EQ(marooned_got, 0);
}

TEST_F(FailureTest, H323SignalingDropReleasesCall) {
  broker::BrokerNode node(net.add_host("broker"), 0);
  xgsp::SessionServer sessions(net.add_host("xgsp"), node.stream_endpoint());
  h323::Gatekeeper gk(net.add_host("gk"));
  h323::H323Gateway gateway(net.add_host("gw"), sessions, node.stream_endpoint());
  gk.set_conference_target(gateway.call_signal_endpoint());
  xgsp::Message created = sessions.handle(xgsp::Message::create_session(
      "s", "x", xgsp::SessionMode::kAdHoc, {{"video", "H261"}}));
  std::string sid = created.sessions.front().id();

  sim::Host& th = net.add_host("terminal");
  auto term = std::make_unique<h323::H323Terminal>(th, "flaky", gk.ras_endpoint());
  transport::DatagramSocket rtp(th);
  term->register_endpoint([](bool) {});
  loop.run();
  bool connected = false;
  term->call("conf-" + sid, 1000, {{"video", 31, rtp.local()}},
             [&](bool ok, const h323::H323Terminal::MediaTargets&) { connected = ok; });
  loop.run();
  ASSERT_TRUE(connected);
  EXPECT_EQ(gateway.active_calls(), 1u);
  EXPECT_TRUE(sessions.find(sid)->has_member("flaky"));

  // The terminal process crashes: its connections close without BYE-ish
  // signaling. The gateway must clean the call and the XGSP membership.
  term.reset();
  loop.run();
  EXPECT_EQ(gateway.active_calls(), 0u);
  EXPECT_FALSE(sessions.find(sid)->has_member("flaky"));
}

TEST_F(FailureTest, NicOverloadDropsButRecovers) {
  // A tiny NIC queue on the sender: a burst overflows it; spaced traffic
  // then flows fine.
  sim::Host& a = net.add_host("a", sim::NicConfig{.egress_bps = 1e6, .queue_bytes = 3000,
                                                  .overhead_bytes = 0});
  sim::Host& b = net.add_host("b");
  int received = 0;
  b.bind(1, [&](const sim::Datagram&) { ++received; });
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.send(sim::Endpoint{b.id(), 1}, 2, Bytes(1000, 0))) ++accepted;
  }
  loop.run();
  EXPECT_LT(accepted, 10);
  EXPECT_EQ(received, accepted);
  EXPECT_GT(a.nic_dropped(), 0u);
  // After draining, sends succeed again.
  EXPECT_TRUE(a.send(sim::Endpoint{b.id(), 1}, 2, Bytes(1000, 0)));
  loop.run();
  EXPECT_EQ(received, accepted + 1);
}

TEST_F(FailureTest, DispatchOverloadShedsAndRecovers) {
  broker::BrokerNode::Config cfg;
  cfg.dispatch.queue_limit = 64;  // tiny dispatch queue
  broker::BrokerNode node(net.add_host("broker"), 0, cfg);
  broker::BrokerClient pub(net.add_host("pub"), node.stream_endpoint());
  broker::BrokerClient sub(net.add_host("sub"), node.stream_endpoint());
  sub.subscribe("/t");
  int got = 0;
  sub.on_event([&](const broker::Event&) { ++got; });
  loop.run();
  // A burst of 500 large events far exceeds the queue: some are shed.
  for (int i = 0; i < 500; ++i) pub.publish("/t", Bytes(2048, 0));
  loop.run();
  EXPECT_GT(node.jobs_dropped(), 0u);
  EXPECT_LT(got, 500);
  int after_burst = got;
  // Under light load the broker is healthy again.
  pub.publish("/t", Bytes(100, 0));
  loop.run();
  EXPECT_EQ(got, after_burst + 1);
}

// NOTE for the self-healing tests below: idle-detector probes and
// reconnect retries are periodic, so the event queue never drains — always settle with
// run_for()/run_until(), never loop.run().

TEST_F(FailureTest, BrokerCrashMidStreamReroutesAroundDeadNode) {
  // 4-broker ring 0-1-2-3-0; the 0->2 route initially relays via broker 1.
  // Crashing broker 1 mid-stream must be detected by the idle detector and
  // repaired to the 0->3->2 path without any manual finalize().
  broker::BrokerNetwork fabric(net);
  broker::BrokerNode::Config bcfg;
  bcfg.idle = {duration_ms(50), 3};
  sim::Host& b1 = net.add_host("b1");
  fabric.add_broker(net.add_host("b0"), bcfg);
  fabric.add_broker(b1, bcfg);
  fabric.add_broker(net.add_host("b2"), bcfg);
  fabric.add_broker(net.add_host("b3"), bcfg);
  fabric.link(0, 1);
  fabric.link(1, 2);
  fabric.link(2, 3);
  fabric.link(3, 0);
  fabric.finalize();
  ASSERT_EQ(fabric.next_hop(0, 2), 1u);

  broker::BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint());
  broker::BrokerClient far_sub(net.add_host("far"), fabric.broker(2).stream_endpoint());
  far_sub.subscribe("/t");
  int far_got = 0;
  far_sub.on_event([&](const broker::Event&) { ++far_got; });
  loop.run_for(duration_ms(200));
  pub.publish("/t", Bytes(10, 0));
  loop.run_for(duration_ms(200));
  EXPECT_EQ(far_got, 1);

  sim::FaultPlan plan;
  plan.crash_host(b1.id(), loop.now());  // permanent crash
  plan.install(net);
  // 3 unanswered 50 ms probes ≈ 200 ms to detection; give it 400 ms.
  loop.run_for(duration_ms(400));
  EXPECT_GE(fabric.route_recomputes(), 1u);
  EXPECT_FALSE(fabric.link_considered_up(0, 1));
  EXPECT_EQ(fabric.next_hop(0, 2), 3u);  // repaired around the dead node

  pub.publish("/t", Bytes(10, 0));
  loop.run_for(duration_ms(200));
  EXPECT_EQ(far_got, 2);
}

TEST_F(FailureTest, PartitionHealsAndSubscriptionsResume) {
  // Chain 0-1-2 with the network partitioned between brokers 1 and 2 for
  // a while. During the partition events to the far side are unroutable;
  // after healing, answered probes re-declare the link and the far subscriber
  // resumes receiving without resubscribing.
  broker::BrokerNetwork fabric(net);
  broker::BrokerNode::Config bcfg;
  bcfg.idle.interval = duration_ms(50);
  sim::Host& b1 = net.add_host("b1");
  sim::Host& b2 = net.add_host("b2");
  fabric.add_broker(net.add_host("b0"), bcfg);
  fabric.add_broker(b1, bcfg);
  fabric.add_broker(b2, bcfg);
  fabric.link(0, 1);
  fabric.link(1, 2);
  fabric.finalize();

  broker::BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint());
  broker::BrokerClient far_sub(net.add_host("far"), fabric.broker(2).stream_endpoint());
  far_sub.subscribe("/t");
  int far_got = 0;
  far_sub.on_event([&](const broker::Event&) { ++far_got; });
  loop.run_for(duration_ms(200));

  sim::FaultPlan plan;
  plan.partition({b1.id()}, {b2.id()}, SimTime{duration_s(1).ns()},
                 SimTime{duration_s(2).ns()});
  plan.install(net);
  loop.run_until(SimTime{duration_ms(1500).ns()});
  EXPECT_FALSE(fabric.link_considered_up(1, 2));
  EXPECT_EQ(fabric.distance(0, 2), -1);
  pub.publish("/t", Bytes(10, 0));
  loop.run_for(duration_ms(200));
  EXPECT_EQ(far_got, 0);  // partitioned: counted unroutable, not delivered
  EXPECT_GT(fabric.broker(0).unroutable_events(), 0u);

  // Heal; probes are answered again and routes come back within a beat or two.
  loop.run_until(SimTime{duration_ms(2500).ns()});
  EXPECT_TRUE(fabric.link_considered_up(1, 2));
  EXPECT_EQ(fabric.distance(0, 2), 2);
  EXPECT_GE(fabric.route_recomputes(), 2u);  // one down, one up
  pub.publish("/t", Bytes(10, 0));
  loop.run_for(duration_ms(200));
  EXPECT_EQ(far_got, 1);  // subscription survived the partition
}

TEST_F(FailureTest, ClientOutlivesBrokerRestartViaBackoffReconnect) {
  sim::Host& bh = net.add_host("broker");
  broker::BrokerNode node(bh, 0);
  broker::BrokerClient::Config ccfg;
  ccfg.reconnect.enabled = true;
  ccfg.reconnect.backoff_base = duration_ms(100);
  ccfg.reconnect.idle = {duration_ms(100), 3};
  ccfg.name = "pub";
  broker::BrokerClient pub(net.add_host("pub"), node.stream_endpoint(), ccfg);
  ccfg.name = "sub";
  broker::BrokerClient sub(net.add_host("sub"), node.stream_endpoint(), ccfg);
  sub.subscribe("/t");
  int got = 0;
  sub.on_event([&](const broker::Event&) { ++got; });
  loop.run_for(duration_ms(500));
  pub.publish("/t", Bytes(10, 0));
  loop.run_for(duration_ms(200));
  EXPECT_EQ(got, 1);

  sim::FaultPlan plan;
  plan.crash_host(bh.id(), SimTime{duration_s(1).ns()}, SimTime{duration_s(2).ns()});
  plan.install(net);
  // Mid-outage: the idle detectors have missed and both clients are in backoff.
  loop.run_until(SimTime{duration_ms(1800).ns()});
  EXPECT_FALSE(sub.ready());
  EXPECT_GE(sub.disconnects(), 1u);

  // After the broker returns, backoff retries land, the handshake redoes
  // and the subscription set is replayed automatically.
  loop.run_until(SimTime{duration_ms(3500).ns()});
  EXPECT_TRUE(sub.ready());
  EXPECT_GE(sub.reconnects(), 1u);
  EXPECT_GE(pub.reconnects(), 1u);
  pub.publish("/t", Bytes(10, 0));
  loop.run_for(duration_ms(200));
  // Exactly one more delivery: the ghost record of the pre-crash
  // incarnation was evicted, so nothing is delivered twice.
  EXPECT_EQ(got, 2);
}

TEST_F(FailureTest, GatekeeperRecoversBandwidthFromDisengagedCalls) {
  h323::Gatekeeper::Config gkcfg;
  gkcfg.bandwidth_budget = 2000;
  h323::Gatekeeper gk(net.add_host("gk"), gkcfg);
  broker::BrokerNode node(net.add_host("broker"), 0);
  xgsp::SessionServer sessions(net.add_host("xgsp"), node.stream_endpoint());
  h323::H323Gateway gateway(net.add_host("gw"), sessions, node.stream_endpoint());
  gk.set_conference_target(gateway.call_signal_endpoint());
  xgsp::Message created = sessions.handle(
      xgsp::Message::create_session("s", "x", xgsp::SessionMode::kAdHoc, {{"video", "H261"}}));
  std::string sid = created.sessions.front().id();
  h323::H323Terminal t(net.add_host("t"), "t", gk.ras_endpoint());
  transport::DatagramSocket rtp(net.add_host("media"));
  t.register_endpoint([](bool) {});
  loop.run();
  for (int round = 0; round < 5; ++round) {
    bool ok = false;
    t.call("conf-" + sid, 2000, {{"video", 31, rtp.local()}},
           [&](bool r, const h323::H323Terminal::MediaTargets&) { ok = r; });
    loop.run();
    ASSERT_TRUE(ok) << "round " << round << ": " << t.last_reject_reason();
    EXPECT_EQ(gk.bandwidth_in_use(), 2000u);
    bool hung = false;
    t.hangup([&](bool r) { hung = r; });
    loop.run();
    ASSERT_TRUE(hung);
    EXPECT_EQ(gk.bandwidth_in_use(), 0u);
  }
}

}  // namespace
}  // namespace gmmcs
