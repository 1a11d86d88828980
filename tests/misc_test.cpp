// Coverage for smaller paths not exercised elsewhere: sim utilities,
// dispatch cost math, RTP session management, SIP/gatekeeper edges, SOAP
// reconnects, XGSP floor queueing over the broker.
#include <gtest/gtest.h>

#include "broker/broker_node.hpp"
#include "h323/gatekeeper.hpp"
#include "h323/terminal.hpp"
#include "rtp/session.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "sip/endpoint.hpp"
#include "sip/proxy.hpp"
#include "soap/soap.hpp"
#include "xgsp/client.hpp"
#include "xgsp/session_server.hpp"

namespace gmmcs {
namespace {

TEST(SimMisc, PeriodicTaskStartAfterPhase) {
  sim::EventLoop loop;
  std::vector<std::int64_t> at;
  sim::PeriodicTask task(loop, duration_ms(10),
                         [&](std::uint64_t) { at.push_back(loop.now().ns()); });
  task.start_after(duration_ms(3));
  loop.run_until(SimTime{duration_ms(25).ns()});
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], duration_ms(3).ns());
  EXPECT_EQ(at[1], duration_ms(13).ns());
  EXPECT_TRUE(task.running());
  task.stop();
  EXPECT_FALSE(task.running());
  EXPECT_THROW(sim::PeriodicTask(loop, SimDuration{0}, [](std::uint64_t) {}),
               std::invalid_argument);
}

TEST(SimMisc, NicBacklogDelayReflectsQueuedBytes) {
  sim::EventLoop loop;
  sim::Network net(loop, 1);
  sim::Host& a = net.add_host("a", sim::NicConfig{.egress_bps = 8e6, .overhead_bytes = 0});
  sim::Host& b = net.add_host("b");
  EXPECT_EQ(a.nic_backlog_delay().ns(), 0);
  for (int i = 0; i < 4; ++i) (void)a.send(sim::Endpoint{b.id(), 1}, 2, Bytes(1000, 0));
  // 4 x 1ms serialization queued.
  EXPECT_EQ(a.nic_backlog_delay().ms(), 4);
  loop.run();
  EXPECT_EQ(a.nic_backlog_delay().ns(), 0);
  EXPECT_EQ(a.nic_queued_bytes(), 0u);
}

// A packet's bytes leave the egress queue at its departure instant, and
// same-instant events split by when they were scheduled: one scheduled
// before the packet was enqueued still sees the bytes queued, one
// scheduled after sees them gone.
TEST(SimMisc, NicReleaseTiesFollowSchedulingOrder) {
  sim::EventLoop loop;
  sim::Network net(loop, 1);
  sim::Host& a = net.add_host(
      "a", sim::NicConfig{.egress_bps = 8e6, .queue_bytes = 2000, .overhead_bytes = 0});
  sim::Host& b = net.add_host("b");
  const sim::Endpoint dst{b.id(), 1};
  const SimTime t1{duration_ms(1).ns()};
  bool early_sent = true;
  bool late_sent = false;
  std::size_t early_queued = 0;
  std::size_t late_queued = 0;
  // Scheduled before the queue fills.
  loop.schedule_at(t1, [&] {
    early_queued = a.nic_queued_bytes();
    early_sent = a.send(dst, 2, Bytes(1000, 0));
  });
  loop.schedule_at(SimTime{0}, [&] {
    // 2 x 1000 B at 8 Mb/s: the queue is full; they depart at 1 and 2 ms.
    ASSERT_TRUE(a.send(dst, 2, Bytes(1000, 0)));
    ASSERT_TRUE(a.send(dst, 2, Bytes(1000, 0)));
    EXPECT_EQ(a.nic_queued_bytes(), 2000u);
    // Scheduled after the queue filled.
    loop.schedule_at(t1, [&] {
      late_queued = a.nic_queued_bytes();
      late_sent = a.send(dst, 2, Bytes(1000, 0));
    });
  });
  loop.run();
  EXPECT_EQ(early_queued, 2000u);
  EXPECT_FALSE(early_sent);
  EXPECT_EQ(late_queued, 1000u);
  EXPECT_TRUE(late_sent);
  EXPECT_EQ(a.nic_dropped(), 1u);
  EXPECT_EQ(a.nic_sent(), 3u);
  EXPECT_EQ(a.nic_queued_bytes(), 0u);
}

TEST(SimMisc, EventLoopExecutedCounter) {
  sim::EventLoop loop;
  for (int i = 0; i < 5; ++i) loop.schedule_after(duration_ms(i), [] {});
  loop.run();
  EXPECT_EQ(loop.executed(), 5u);
  EXPECT_FALSE(loop.step());
}

TEST(DispatchCost, CopyCostComposition) {
  broker::DispatchConfig cfg;
  cfg.copy_fixed = duration_us(8);
  cfg.copy_per_kb = duration_us(22);
  EXPECT_EQ(cfg.copy_cost(0).ns(), duration_us(8).ns());
  EXPECT_EQ(cfg.copy_cost(1024).ns(), duration_us(30).ns());
  EXPECT_EQ(cfg.copy_cost(512).ns(), duration_us(19).ns());
  // Unoptimized is strictly more expensive at every size.
  auto opt = broker::DispatchConfig::optimized();
  auto naive = broker::DispatchConfig::unoptimized();
  for (std::size_t size : {0u, 160u, 960u, 4096u}) {
    EXPECT_GT(naive.copy_cost(size).ns(), opt.copy_cost(size).ns()) << size;
  }
}

TEST(RtpSessionMisc, DestinationManagement) {
  sim::EventLoop loop;
  sim::Network net(loop, 3);
  sim::Host& a = net.add_host("a");
  rtp::RtpSession tx(a, {.ssrc = 1});
  tx.add_destination({9, 100});
  tx.add_destination({9, 100});  // duplicate ignored
  tx.add_destination({9, 200});
  EXPECT_EQ(tx.destinations().size(), 2u);
  tx.clear_destinations();
  EXPECT_TRUE(tx.destinations().empty());
  // Sending with no destinations still feeds the tap.
  int tapped = 0;
  tx.on_send([&](const Payload&) { ++tapped; });
  tx.send_media(Bytes(10, 0), 0);
  EXPECT_EQ(tapped, 1);
  EXPECT_EQ(tx.packets_sent(), 1u);
}

TEST(SipMisc, UnregisteredCalleeAfterUnregister) {
  sim::EventLoop loop;
  sim::Network net(loop, 5);
  sip::SipProxy proxy(net.add_host("proxy"));
  sip::SipEndpoint alice(net.add_host("alice"), "sip:alice@x", proxy.endpoint());
  sip::SipEndpoint bob(net.add_host("bob"), "sip:bob@y", proxy.endpoint());
  alice.register_with_proxy([](bool) {});
  bob.register_with_proxy([](bool) {});
  loop.run();
  bob.unregister([](bool) {});
  loop.run();
  bool ok = true;
  alice.invite("sip:bob@y", sip::Sdp{}, [&](bool r, const sip::SipEndpoint::Call&) { ok = r; });
  loop.run();
  EXPECT_FALSE(ok);
}

TEST(SipMisc, ByeWithoutCallFails) {
  sim::EventLoop loop;
  sim::Network net(loop, 5);
  sip::SipProxy proxy(net.add_host("proxy"));
  sip::SipEndpoint alice(net.add_host("alice"), "sip:alice@x", proxy.endpoint());
  bool ok = true;
  alice.bye([&](bool r) { ok = r; });
  EXPECT_FALSE(ok);
}

TEST(GatekeeperMisc, UnknownDirectDestinationRejected) {
  sim::EventLoop loop;
  sim::Network net(loop, 7);
  h323::Gatekeeper gk(net.add_host("gk"));
  h323::H323Terminal t(net.add_host("t"), "t1", gk.ras_endpoint());
  t.register_endpoint([](bool) {});
  loop.run();
  bool ok = true;
  t.call("nonexistent-terminal", 100, {}, [&](bool r, const h323::H323Terminal::MediaTargets&) {
    ok = r;
  });
  loop.run();
  EXPECT_FALSE(ok);
  EXPECT_NE(t.last_reject_reason().find("unknown destination"), std::string::npos);
}

TEST(GatekeeperMisc, DirectTerminalToTerminalResolution) {
  sim::EventLoop loop;
  sim::Network net(loop, 7);
  h323::Gatekeeper gk(net.add_host("gk"));
  h323::H323Terminal t1(net.add_host("t1"), "alpha", gk.ras_endpoint());
  h323::H323Terminal t2(net.add_host("t2"), "beta", gk.ras_endpoint());
  t1.register_endpoint([](bool) {});
  t2.register_endpoint([](bool) {});
  loop.run();
  // Admission toward a registered alias resolves to its call signal addr.
  EXPECT_TRUE(gk.resolve("beta").has_value());
  EXPECT_EQ(gk.registrations(), 2u);
}

TEST(SoapMisc, TwoClientsShareOneServer) {
  sim::EventLoop loop;
  sim::Network net(loop, 9);
  soap::SoapServer server(net.add_host("server"), 8080);
  server.register_operation("Ping", [](const xml::Element&) -> Result<xml::Element> {
    return xml::Element("Pong");
  });
  soap::SoapClient c1(net.add_host("c1"), server.endpoint());
  soap::SoapClient c2(net.add_host("c2"), server.endpoint());
  int pongs = 0;
  for (auto* c : {&c1, &c2}) {
    c->call(xml::Element("Ping"), [&](Result<xml::Element> r) {
      if (r.ok() && r.value().name() == "Pong") ++pongs;
    });
  }
  loop.run();
  EXPECT_EQ(pongs, 2);
  EXPECT_EQ(server.calls(), 2u);
}

TEST(XgspMisc, FloorQueueAcrossRemoteClients) {
  sim::EventLoop loop;
  sim::Network net(loop, 11);
  broker::BrokerNode node(net.add_host("broker"), 0);
  xgsp::SessionServer server(net.add_host("xgsp"), node.stream_endpoint());
  xgsp::XgspClient a(net.add_host("a"), node.stream_endpoint(), "a");
  xgsp::XgspClient b(net.add_host("b"), node.stream_endpoint(), "b");
  std::string sid;
  a.create_session("floor", xgsp::SessionMode::kAdHoc, {}, [&](const xgsp::Message& r) {
    sid = r.sessions.front().id();
  });
  loop.run();
  a.join(sid, [](const xgsp::Message&) {});
  b.join(sid, [](const xgsp::Message&) {});
  loop.run();
  std::string holder_after_a, holder_after_b, holder_after_release;
  std::vector<std::string> queue_after_b;
  a.request_floor(sid, [&](const xgsp::Message& r) { holder_after_a = r.floor_holder; });
  loop.run();
  b.request_floor(sid, [&](const xgsp::Message& r) {
    holder_after_b = r.floor_holder;
    queue_after_b = r.floor_queue;
  });
  loop.run();
  EXPECT_EQ(holder_after_a, "a");
  EXPECT_EQ(holder_after_b, "a");
  ASSERT_EQ(queue_after_b.size(), 1u);
  EXPECT_EQ(queue_after_b[0], "b");
  a.release_floor(sid, [&](const xgsp::Message& r) { holder_after_release = r.floor_holder; });
  loop.run();
  EXPECT_EQ(holder_after_release, "b");
}

TEST(BrokerMisc, StreamOnlyClientReceivesEverythingOverStream) {
  sim::EventLoop loop;
  sim::Network net(loop, 13);
  sim::Host& bh = net.add_host("broker");
  sim::Host& sh = net.add_host("sub");
  broker::BrokerNode node(bh, 0);
  // Even best-effort events go over the stream when the client opted out
  // of UDP delivery — so a fully lossy UDP path doesn't matter.
  net.set_path(bh.id(), sh.id(), sim::PathConfig{.latency = duration_us(100), .loss = 0.0});
  broker::BrokerClient pub(net.add_host("pub"), node.stream_endpoint());
  broker::BrokerClient sub(sh, node.stream_endpoint(),
                           broker::BrokerClient::Config{.udp_delivery = false});
  sub.subscribe("/t");
  int got = 0;
  sub.on_event([&](const broker::Event&) { ++got; });
  loop.run();
  for (int i = 0; i < 10; ++i) pub.publish("/t", Bytes(100, 0));
  loop.run();
  EXPECT_EQ(got, 10);
}

TEST(BrokerMisc, PublisherSubscriberDoesNotHearItself) {
  sim::EventLoop loop;
  sim::Network net(loop, 15);
  broker::BrokerNode node(net.add_host("broker"), 0);
  broker::BrokerClient self(net.add_host("self"), node.stream_endpoint());
  broker::BrokerClient other(net.add_host("other"), node.stream_endpoint());
  self.subscribe("/t");
  other.subscribe("/t");
  int self_got = 0, other_got = 0;
  self.on_event([&](const broker::Event&) { ++self_got; });
  other.on_event([&](const broker::Event&) { ++other_got; });
  loop.run();
  // Over UDP (media path) and over the stream (reliable path).
  self.publish("/t", Bytes(10, 0), broker::QoS::kBestEffort);
  self.publish("/t", Bytes(10, 0), broker::QoS::kReliable);
  loop.run();
  EXPECT_EQ(self_got, 0);
  EXPECT_EQ(other_got, 2);
}

TEST(StatsMisc, RunningStatsSumAndSingleValue) {
  RunningStats s;
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.sum(), 7.5);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), s.max());
}

}  // namespace
}  // namespace gmmcs
