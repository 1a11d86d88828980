// Tests for the transport layer: datagram sockets, streams, firewall, proxy.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "transport/datagram_socket.hpp"
#include "transport/firewall.hpp"
#include "transport/stream.hpp"

namespace gmmcs::transport {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  sim::Network net{loop, 42};
};

TEST_F(TransportTest, DatagramSocketSendReceive) {
  sim::Host& a = net.add_host("a");
  sim::Host& b = net.add_host("b");
  DatagramSocket sa(a);
  DatagramSocket sb(b, 5000);
  std::string got;
  sb.on_receive([&](const sim::Datagram& d) { got = to_string(d.payload); });
  sa.send_to(sim::Endpoint{b.id(), 5000}, to_bytes("ping"));
  loop.run();
  EXPECT_EQ(got, "ping");
}

TEST_F(TransportTest, DatagramSocketUnbindsOnDestruction) {
  sim::Host& a = net.add_host("a");
  std::uint16_t port;
  {
    DatagramSocket s(a);
    port = s.local().port;
    EXPECT_TRUE(a.is_bound(port));
  }
  EXPECT_FALSE(a.is_bound(port));
}

TEST_F(TransportTest, DatagramMulticastViaSocket) {
  sim::Host& s = net.add_host("s");
  sim::Host& r = net.add_host("r");
  DatagramSocket ss(s);
  DatagramSocket rs(r);
  sim::GroupId g = net.create_group();
  rs.join_group(g);
  int got = 0;
  rs.on_receive([&](const sim::Datagram&) { ++got; });
  ss.send_group(g, to_bytes("m"));
  loop.run();
  EXPECT_EQ(got, 1);
  rs.leave_group(g);
  ss.send_group(g, to_bytes("m"));
  loop.run();
  EXPECT_EQ(got, 1);
}

TEST_F(TransportTest, StreamHandshakeAndExchange) {
  sim::Host& server = net.add_host("server");
  sim::Host& client = net.add_host("client");
  StreamListener listener(server, 80);
  std::vector<std::string> server_got;
  StreamConnectionPtr server_conn;
  listener.on_accept([&](StreamConnectionPtr c) {
    server_conn = std::move(c);
    // Capture the slot, not the shared_ptr: a handler owning its own
    // connection is a reference cycle (LeakSanitizer flags it).
    server_conn->on_message([&](const Payload& m) {
      server_got.push_back(to_string(m));
      server_conn->send("reply:" + to_string(m));
    });
  });
  auto conn = StreamConnection::connect(client, sim::Endpoint{server.id(), 80});
  std::vector<std::string> client_got;
  conn->on_message([&](const Payload& m) { client_got.push_back(to_string(m)); });
  bool connected = false;
  conn->on_connect([&] { connected = true; });
  conn->send("hello");
  conn->send("world");
  loop.run();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(conn->established());
  ASSERT_EQ(server_got.size(), 2u);
  EXPECT_EQ(server_got[0], "hello");
  ASSERT_EQ(client_got.size(), 2u);
  EXPECT_EQ(client_got[1], "reply:world");
}

TEST_F(TransportTest, StreamPreservesOrderUnderLoad) {
  sim::Host& server = net.add_host("server");
  sim::Host& client = net.add_host("client");
  StreamListener listener(server, 80);
  std::vector<int> order;
  StreamConnectionPtr sc;
  listener.on_accept([&](StreamConnectionPtr c) {
    sc = c;
    c->on_message([&](const Payload& m) { order.push_back(std::stoi(to_string(m))); });
  });
  auto conn = StreamConnection::connect(client, sim::Endpoint{server.id(), 80});
  for (int i = 0; i < 50; ++i) conn->send(std::to_string(i));
  loop.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(TransportTest, StreamSurvivesLossyPath) {
  sim::Host& server = net.add_host("server");
  sim::Host& client = net.add_host("client");
  net.set_path(server.id(), client.id(),
               sim::PathConfig{.latency = duration_us(100), .loss = 0.5});
  StreamListener listener(server, 80);
  int got = 0;
  StreamConnectionPtr sc;
  listener.on_accept([&](StreamConnectionPtr c) {
    sc = c;
    c->on_message([&](const Payload&) { ++got; });
  });
  auto conn = StreamConnection::connect(client, sim::Endpoint{server.id(), 80});
  for (int i = 0; i < 20; ++i) conn->send("x");
  loop.run();
  EXPECT_EQ(got, 20);  // reliable: loss model does not apply
}

// A reliable segment the sender's NIC drops is lost (nothing retransmits
// yet), so it must at least be counted. Both send paths are covered:
// messages buffered before the handshake (flushed at SYN-ACK) and
// messages sent on the open connection.
TEST_F(TransportTest, StreamCountsSegmentsDroppedAtAFullNic) {
  sim::Host& server = net.add_host("server");
  sim::Host& client =
      net.add_host("client", sim::NicConfig{.egress_bps = 1e6, .queue_bytes = 4000});
  StreamListener listener(server, 80);
  std::uint64_t got = 0;
  StreamConnectionPtr sc;
  listener.on_accept([&](StreamConnectionPtr c) {
    sc = c;
    c->on_message([&](const Payload&) { ++got; });
  });
  const std::string message(1000, 'm');
  auto conn = StreamConnection::connect(client, sim::Endpoint{server.id(), 80});
  const std::uint64_t dropped_before = client.nic_dropped();
  for (int i = 0; i < 10; ++i) conn->send(message);  // buffered until SYN-ACK
  loop.run();
  ASSERT_TRUE(conn->established());
  const std::uint64_t flushed_drops = conn->segments_dropped();
  EXPECT_GT(flushed_drops, 0u);
  EXPECT_EQ(flushed_drops, client.nic_dropped() - dropped_before);

  for (int i = 0; i < 10; ++i) conn->send(message);
  loop.run();
  EXPECT_GT(conn->segments_dropped(), flushed_drops);
  EXPECT_EQ(conn->segments_dropped(), client.nic_dropped() - dropped_before);
  EXPECT_EQ(conn->messages_sent(), 20u);
  EXPECT_EQ(got, conn->messages_sent() - conn->segments_dropped());
}

TEST_F(TransportTest, StreamCloseNotifiesPeer) {
  sim::Host& server = net.add_host("server");
  sim::Host& client = net.add_host("client");
  StreamListener listener(server, 80);
  StreamConnectionPtr sc;
  bool server_saw_close = false;
  listener.on_accept([&](StreamConnectionPtr c) {
    sc = c;
    c->on_close([&] { server_saw_close = true; });
  });
  auto conn = StreamConnection::connect(client, sim::Endpoint{server.id(), 80});
  loop.run();
  conn->close();
  loop.run();
  EXPECT_TRUE(server_saw_close);
  EXPECT_TRUE(sc->closed());
  EXPECT_TRUE(conn->closed());
}

TEST_F(TransportTest, StreamBuffersInboxUntilHandlerSet) {
  sim::Host& server = net.add_host("server");
  sim::Host& client = net.add_host("client");
  StreamListener listener(server, 80);
  StreamConnectionPtr sc;
  listener.on_accept([&](StreamConnectionPtr c) { sc = c; });
  auto conn = StreamConnection::connect(client, sim::Endpoint{server.id(), 80});
  conn->send("early1");
  conn->send("early2");
  loop.run();
  ASSERT_NE(sc, nullptr);
  std::vector<std::string> got;
  sc->on_message([&](const Payload& m) { got.push_back(to_string(m)); });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "early1");
}

// Message-handler safety. The connection pins the running handler and
// itself, so a callback may replace its own handler, close its connection
// or drop the connection's last owner, and the closure and connection it
// runs in stay alive until it returns. Each case touches its captures
// after the hazardous call; under AddressSanitizer a freed closure or
// connection would be a use-after-free. The long capture strings keep
// every closure on the heap.

/// A server whose client has sent `messages` ("m0", "m1", ...) that have
/// all arrived; with `buffered` they sit in the accepted connection's
/// inbox (no handler set yet), otherwise `install` runs at accept time.
struct StreamPair {
  StreamListener listener;
  StreamConnectionPtr client;
  StreamConnectionPtr server;

  StreamPair(sim::Network& net, const std::function<void(StreamPair&)>& install)
      : listener(net.add_host("server"), 80) {
    listener.on_accept([this, install](StreamConnectionPtr c) {
      server = std::move(c);
      if (install) install(*this);
    });
    client = StreamConnection::connect(net.add_host("client"), listener.local());
  }
  void send(int messages) {
    for (int i = 0; i < messages; ++i) client->send("m" + std::to_string(i));
  }
};

TEST_F(TransportTest, StreamHandlerMayReplaceItself) {
  std::vector<std::string> got;
  StreamPair p(net, [&got](StreamPair& pair) {
    pair.server->on_message([&got, &pair, tag = std::string(64, 'a')](const Payload& m) {
      got.push_back(tag.substr(0, 1) + to_string(m));
      pair.server->on_message([&got, tag2 = std::string(64, 'b')](const Payload& m2) {
        got.push_back(tag2.substr(0, 1) + to_string(m2));
      });
      got.push_back(tag.substr(0, 1) + "!");  // the replaced closure is still alive
    });
  });
  p.send(3);
  loop.run();
  EXPECT_EQ(got, (std::vector<std::string>{"am0", "a!", "bm1", "bm2"}));
}

TEST_F(TransportTest, StreamHandlerMayCloseItsConnection) {
  std::vector<std::string> got;
  bool closed_seen = false;
  StreamPair p(net, [&](StreamPair& pair) {
    pair.server->on_close([&closed_seen] { closed_seen = true; });
    pair.server->on_message([&got, &pair, tag = std::string(64, 'c')](const Payload& m) {
      pair.server->close();
      got.push_back(tag.substr(0, 1) + to_string(m));
    });
  });
  p.send(3);
  loop.run();
  EXPECT_EQ(got, (std::vector<std::string>{"cm0"}));
  EXPECT_TRUE(closed_seen);
  EXPECT_TRUE(p.client->closed());
}

TEST_F(TransportTest, StreamHandlerMayDropItsConnectionsLastOwner) {
  std::vector<std::string> got;
  StreamPair p(net, [&got](StreamPair& pair) {
    pair.server->on_message([&got, &pair, tag = std::string(64, 'd')](const Payload& m) {
      pair.server.reset();  // the listener only holds a weak_ptr
      got.push_back(tag.substr(0, 1) + to_string(m));
    });
  });
  p.send(3);
  loop.run();
  EXPECT_EQ(got, (std::vector<std::string>{"dm0"}));
  EXPECT_EQ(p.server, nullptr);
  EXPECT_TRUE(p.client->closed());  // the dying connection sent its FIN
}

TEST_F(TransportTest, StreamInboxReplayIsSafeAgainstTheSameHazards) {
  // The same three hazards, hit while on_message() replays a buffered
  // inbox instead of from a live arrival.
  {
    StreamPair p(net, nullptr);
    p.send(3);
    loop.run();
    ASSERT_NE(p.server, nullptr);
    std::vector<std::string> got;
    p.server->on_message([&got, &p, tag = std::string(64, 'a')](const Payload& m) {
      got.push_back(tag.substr(0, 1) + to_string(m));
      p.server->on_message([&got, tag2 = std::string(64, 'b')](const Payload& m2) {
        got.push_back(tag2.substr(0, 1) + to_string(m2));
      });
      got.push_back(tag.substr(0, 1) + "!");
    });
    // Setting the new handler replays the rest of the inbox to it at once,
    // inside the old handler's call.
    EXPECT_EQ(got, (std::vector<std::string>{"am0", "bm1", "bm2", "a!"}));
  }
  {
    StreamPair p(net, nullptr);
    p.send(3);
    loop.run();
    ASSERT_NE(p.server, nullptr);
    std::vector<std::string> got;
    p.server->on_message([&got, &p, tag = std::string(64, 'c')](const Payload& m) {
      p.server->close();
      got.push_back(tag.substr(0, 1) + to_string(m));
    });
    // Messages already received still replay after the close.
    EXPECT_EQ(got, (std::vector<std::string>{"cm0", "cm1", "cm2"}));
    EXPECT_TRUE(p.server->closed());
  }
  {
    StreamPair p(net, nullptr);
    p.send(3);
    loop.run();
    ASSERT_NE(p.server, nullptr);
    std::vector<std::string> got;
    p.server->on_message([&got, &p, tag = std::string(64, 'd')](const Payload& m) {
      p.server.reset();
      got.push_back(tag.substr(0, 1) + to_string(m));
    });
    // The replay finishes on the pinned connection, then it dies.
    EXPECT_EQ(got, (std::vector<std::string>{"dm0", "dm1", "dm2"}));
    EXPECT_EQ(p.server, nullptr);
    loop.run();
    EXPECT_TRUE(p.client->closed());
  }
}

TEST_F(TransportTest, FirewallBlocksUnsolicitedDatagrams) {
  sim::Host& inside = net.add_host("inside");
  sim::Host& outside = net.add_host("outside");
  Firewall fw(inside, FirewallRules{});
  DatagramSocket si(inside, 100);
  DatagramSocket so(outside, 200);
  int got = 0;
  si.on_receive([&](const sim::Datagram&) { ++got; });
  so.send_to(sim::Endpoint{inside.id(), 100}, to_bytes("attack"));
  loop.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(fw.blocked(), 1u);
}

TEST_F(TransportTest, FirewallAllowsReplyTraffic) {
  sim::Host& inside = net.add_host("inside");
  sim::Host& outside = net.add_host("outside");
  Firewall fw(inside, FirewallRules{});
  DatagramSocket si(inside, 100);
  DatagramSocket so(outside, 200);
  int got = 0;
  si.on_receive([&](const sim::Datagram&) { ++got; });
  // Inside initiates; outside replies to the same flow.
  si.send_to(so.local(), to_bytes("hello"));
  so.on_receive([&](const sim::Datagram& d) { so.send_to(d.src, to_bytes("reply")); });
  loop.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(fw.passed(), 1u);
}

TEST_F(TransportTest, FirewallBlocksInboundStreamButAllowsOutbound) {
  sim::Host& inside = net.add_host("inside");
  sim::Host& outside = net.add_host("outside");
  Firewall fw(inside, FirewallRules{});
  // Inbound connection to a listener behind the firewall: blocked.
  StreamListener inside_listener(inside, 80);
  bool accepted_inbound = false;
  inside_listener.on_accept([&](StreamConnectionPtr) { accepted_inbound = true; });
  auto in_conn = StreamConnection::connect(outside, sim::Endpoint{inside.id(), 80});
  loop.run();
  EXPECT_FALSE(accepted_inbound);
  EXPECT_FALSE(in_conn->established());
  // Outbound connection from behind the firewall: works.
  StreamListener outside_listener(outside, 80);
  StreamConnectionPtr sc;
  outside_listener.on_accept([&](StreamConnectionPtr c) { sc = c; });
  auto out_conn = StreamConnection::connect(inside, sim::Endpoint{outside.id(), 80});
  int inside_got = 0;
  out_conn->on_message([&](const Payload&) { ++inside_got; });
  loop.run();
  ASSERT_TRUE(out_conn->established());
  sc->send("data-back");
  loop.run();
  EXPECT_EQ(inside_got, 1);
}

TEST_F(TransportTest, ProxyTunnelsThroughFirewall) {
  sim::Host& inside = net.add_host("inside");     // client behind firewall
  sim::Host& proxy_host = net.add_host("proxy");  // in the DMZ
  sim::Host& broker = net.add_host("broker");     // the real target
  Firewall fw(inside, FirewallRules{});
  ProxyServer proxy(proxy_host);
  StreamListener broker_listener(broker, 9000);
  std::vector<std::string> broker_got;
  StreamConnectionPtr bc;
  broker_listener.on_accept([&](StreamConnectionPtr c) {
    bc = std::move(c);
    bc->on_message([&](const Payload& m) {
      broker_got.push_back(to_string(m));
      bc->send("ack:" + to_string(m));
    });
  });
  auto tunnel = connect_via_proxy(inside, proxy.endpoint(), sim::Endpoint{broker.id(), 9000});
  std::vector<std::string> client_got;
  tunnel->on_message([&](const Payload& m) { client_got.push_back(to_string(m)); });
  tunnel->send("subscribe:topic1");
  loop.run();
  ASSERT_EQ(broker_got.size(), 1u);
  EXPECT_EQ(broker_got[0], "subscribe:topic1");
  ASSERT_EQ(client_got.size(), 1u);
  EXPECT_EQ(client_got[0], "ack:subscribe:topic1");
  EXPECT_EQ(proxy.active_tunnels(), 1u);
  EXPECT_GE(proxy.relayed_messages(), 2u);
}

TEST_F(TransportTest, ProxyRejectsMalformedConnect) {
  sim::Host& client = net.add_host("client");
  sim::Host& proxy_host = net.add_host("proxy");
  ProxyServer proxy(proxy_host);
  auto conn = StreamConnection::connect(client, proxy.endpoint());
  bool closed = false;
  conn->on_close([&] { closed = true; });
  conn->send("GARBAGE");
  loop.run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(proxy.active_tunnels(), 0u);
}

TEST_F(TransportTest, ProxyClosePropagates) {
  sim::Host& client = net.add_host("client");
  sim::Host& proxy_host = net.add_host("proxy");
  sim::Host& target = net.add_host("target");
  ProxyServer proxy(proxy_host);
  StreamListener listener(target, 7);
  StreamConnectionPtr tc;
  listener.on_accept([&](StreamConnectionPtr c) { tc = c; });
  auto tunnel = connect_via_proxy(client, proxy.endpoint(), sim::Endpoint{target.id(), 7});
  tunnel->send("x");
  loop.run();
  ASSERT_NE(tc, nullptr);
  bool target_closed = false;
  tc->on_close([&] { target_closed = true; });
  tunnel->close();
  loop.run();
  EXPECT_TRUE(target_closed);
}

}  // namespace
}  // namespace gmmcs::transport
