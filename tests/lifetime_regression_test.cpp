// Deferred-capture lifetime regression (DESIGN.md §14).
//
// Reconstructs the PR 7 deferred-kPing use-after-free in a minimal
// harness: BrokerNode's ping handler (broker_node.cpp, kPing case)
// originally deferred the pong with a raw `StreamConnection*` capture,
// and a client crash whose reconnect Hello evicted the ghost record
// dropped the last shared_ptr — freeing the connection before the
// deferred job ran. Only ASan could see it (DESIGN.md §13); the fix
// captures a weak_ptr and drops the pong when the stream died, like a
// write to a closed socket.
//
// These tests execute that exact interleaving — pong deferred, owner
// table erased, loop run — against the real StreamConnection over the
// simulator. With the weak_ptr shape they pass everywhere and the
// sanitized jobs (scripts/check.sh asan, the chaos CI job) prove the
// freed-before-run window is genuinely exercised: swap the capture
// below for `raw = conn.get()` and ASan reports heap-use-after-free in
// DeferredPongAfterEvictionIsDropped.
//
// On the real broker, MonitorTest.PongForAStreamThatClosedMeanwhileIsDropped
// is what catches the bug class: put the raw capture back into
// BrokerNode's kPing handler and it reports the heap-use-after-free under
// scripts/check.sh asan. This file pins the same interleaving in a
// minimal harness.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "transport/stream.hpp"

namespace gmmcs::transport {
namespace {

// BrokerNode's client table and ping handler, reduced to the lifetime
// essentials: accepted connections are owned by a table keyed like
// udp_index_, pings are answered by a deferred job (a loaded broker
// pongs late), and ghost eviction erases the owning entry while that
// job may still be queued.
class PongServer {
 public:
  PongServer(sim::EventLoop& loop, sim::Host& host, std::uint16_t port)
      : loop_(loop), listener_(host, port) {
    listener_.on_accept([this](StreamConnectionPtr conn) {
      const int id = next_id_++;
      auto* raw = conn.get();
      clients_.emplace(id, std::move(conn));
      raw->on_message([this, id](const Payload& msg) { handle(id, msg); });
    });
  }

  [[nodiscard]] sim::Endpoint local() const { return listener_.local(); }

  /// Ghost eviction: drop the owning shared_ptr. If the deferred pong
  /// held a raw pointer this would free the memory out from under it.
  void evict(int id) { clients_.erase(id); }

  [[nodiscard]] int pongs_dropped() const { return pongs_dropped_; }

  /// Schedule eviction of client `id` this long after its next ping —
  /// inside the pong delay, so the connection dies with the job queued.
  void evict_after_ping(int id, SimDuration delay) {
    evict_victim_ = id;
    evict_delay_ = delay;
  }

 private:
  void handle(int id, const Payload& msg) {
    if (to_string(msg) != "ping") return;
    auto it = clients_.find(id);
    if (it == clients_.end()) return;
    // The PR 7 kPing shape: the deferred reply must not keep the
    // connection alive (that would resurrect ghosts) and must not
    // dangle (that was the bug) — so it holds a weak_ptr and checks.
    std::weak_ptr<StreamConnection> weak_conn = it->second;
    loop_.schedule_after(kPongDelay, [this, weak_conn] {
      if (auto conn = weak_conn.lock()) {
        conn->send("pong");
      } else {
        ++pongs_dropped_;
      }
    });
    if (evict_victim_ == id) {
      loop_.schedule_after(evict_delay_, [this, id] { evict(id); });
      evict_victim_ = -1;
    }
  }

  static constexpr SimDuration kPongDelay = duration_ms(50);

  sim::EventLoop& loop_;
  StreamListener listener_;
  std::map<int, StreamConnectionPtr> clients_;
  int next_id_ = 0;
  int evict_victim_ = -1;
  SimDuration evict_delay_{};
  int pongs_dropped_ = 0;
};

class LifetimeRegressionTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  sim::Network net{loop, 7};
};

TEST_F(LifetimeRegressionTest, DeferredPongOnLiveConnectionDelivers) {
  sim::Host& server_host = net.add_host("server");
  sim::Host& client_host = net.add_host("client");
  PongServer server(loop, server_host, 5000);

  StreamConnectionPtr client =
      StreamConnection::connect(client_host, server.local());
  int pongs = 0;
  client->on_message([&](const Payload& msg) {
    if (to_string(msg) == "pong") ++pongs;
  });
  client->on_connect([&] { client->send("ping"); });
  loop.run();

  EXPECT_EQ(pongs, 1);
  EXPECT_EQ(server.pongs_dropped(), 0);
}

TEST_F(LifetimeRegressionTest, DeferredPongAfterEvictionIsDropped) {
  sim::Host& server_host = net.add_host("server");
  sim::Host& client_host = net.add_host("client");
  PongServer server(loop, server_host, 5000);
  // Eviction lands 10 ms after the ping, well inside the 50 ms pong
  // delay: the owning shared_ptr is gone while the job is still queued.
  server.evict_after_ping(0, duration_ms(10));

  StreamConnectionPtr client =
      StreamConnection::connect(client_host, server.local());
  int pongs = 0;
  client->on_message([&](const Payload& msg) {
    if (to_string(msg) == "pong") ++pongs;
  });
  client->on_connect([&] { client->send("ping"); });
  // With a raw capture this run is a heap-use-after-free (the deferred
  // job touches the freed acceptor connection); ASan builds catch it.
  // With the weak_ptr shape the job observes the death and no-ops.
  loop.run();

  EXPECT_EQ(pongs, 0);
  EXPECT_EQ(server.pongs_dropped(), 1);
}

TEST_F(LifetimeRegressionTest, EvictionFreesConnectionWhileJobQueued) {
  // Proves the freed-before-run window is real (i.e. the raw-capture
  // variant of the previous test would genuinely dangle, not merely
  // reply to a closed-but-alive stream): observe the acceptor
  // connection through an independent weak_ptr and assert it expires
  // at eviction time, strictly before the pong job's due time.
  sim::Host& server_host = net.add_host("server");
  sim::Host& client_host = net.add_host("client");

  StreamListener listener(server_host, 5000);
  std::map<int, StreamConnectionPtr> table;
  std::weak_ptr<StreamConnection> observer;
  listener.on_accept([&](StreamConnectionPtr conn) {
    observer = conn;
    table.emplace(0, std::move(conn));
  });

  StreamConnectionPtr client =
      StreamConnection::connect(client_host, {server_host.id(), 5000});
  loop.run();
  ASSERT_FALSE(observer.expired());

  bool expired_at_pong_time = false;
  loop.schedule_after(duration_ms(10), [&] { table.erase(0); });
  loop.schedule_after(duration_ms(50),
                      [&] { expired_at_pong_time = observer.expired(); });
  loop.run();

  EXPECT_TRUE(expired_at_pong_time);
  EXPECT_TRUE(observer.expired());
}

}  // namespace
}  // namespace gmmcs::transport
