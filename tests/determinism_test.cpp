// Determinism certification: a run is a pure function of (config, seed),
// byte-identical across repeats (DESIGN.md §9).
// All comparisons are exact — including doubles — because "close" is not
// reproducible; the metrics must come out bit-for-bit equal.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "core/experiments.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

using namespace gmmcs;

namespace {

struct ChaosMetrics {
  std::set<std::uint32_t> sub_a_seqs;
  std::set<std::uint32_t> sub_b_seqs;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t executed = 0;
  std::uint64_t route_recomputes = 0;
  std::int64_t end_ns = 0;
  bool operator==(const ChaosMetrics&) const = default;
};

/// A condensed fabric_chaos bench: 4-broker ring under a crash and a link
/// flap, steady publish stream, two subscribers. Returns every simulated
/// metric the bench reports. Broker-heavy by design: fan-out, control-table
/// reads and control-plane writes under route repair.
ChaosMetrics run_chaos(std::uint64_t seed) {
  sim::EventLoop loop;
  sim::Network net(loop, seed);
  // Lossy paths so the seeded RNG actually shapes the run.
  net.set_default_path(sim::PathConfig{.latency = duration_us(200), .loss = 0.05});
  broker::BrokerNetwork fabric(net);
  broker::BrokerNode::Config bcfg;
  bcfg.idle = {duration_ms(50), 3};
  std::vector<sim::Host*> hosts;
  for (int i = 0; i < 4; ++i) {
    sim::Host& h = net.add_host("b" + std::to_string(i));
    hosts.push_back(&h);
    fabric.add_broker(h, bcfg);
  }
  for (int i = 0; i < 4; ++i) fabric.link(i, (i + 1) % 4);
  fabric.finalize();

  const char* topic = "/conf/det";
  broker::BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint(),
                           {.name = "pub"});
  broker::BrokerClient sub_a(net.add_host("subA"), fabric.broker(1).stream_endpoint(),
                             {.name = "subA"});
  broker::BrokerClient sub_b(net.add_host("subB"), fabric.broker(2).stream_endpoint(),
                             {.name = "subB"});
  ChaosMetrics m;
  sub_a.subscribe(topic);
  sub_b.subscribe(topic);
  sub_a.on_event([&](const broker::Event& ev) { m.sub_a_seqs.insert(ev.seq); });
  sub_b.on_event([&](const broker::Event& ev) { m.sub_b_seqs.insert(ev.seq); });

  sim::FaultPlan plan;
  plan.crash_host(hosts[3]->id(), SimTime{duration_ms(800).ns()},
                  SimTime{duration_ms(1500).ns()});
  plan.flap_link(hosts[1]->id(), hosts[2]->id(), SimTime{duration_ms(1800).ns()},
                 SimTime{duration_ms(2200).ns()});
  plan.install(net);

  for (int i = 0; i < 120; ++i) {
    loop.schedule_at(SimTime{duration_ms(300 + i * 20).ns()},
                     [&pub, topic] { pub.publish(topic, Bytes(128, 1)); });
  }
  loop.run_until(SimTime{duration_s(3).ns()});

  m.delivered = net.delivered();
  m.lost = net.lost();
  m.executed = loop.executed();
  m.route_recomputes = fabric.route_recomputes();
  m.end_ns = loop.now().ns();
  return m;
}

void expect_series_identical(const Series& a, const Series& b) {
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << "point " << i;
    EXPECT_EQ(a.points()[i].y, b.points()[i].y) << "point " << i;
  }
}

}  // namespace

TEST(Determinism, ChaosFabricDoubleRunByteIdentical) {
  ChaosMetrics first = run_chaos(4242);
  ChaosMetrics second = run_chaos(4242);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.delivered, 0u);
  EXPECT_FALSE(first.sub_a_seqs.empty());
}

TEST(Determinism, ChaosFabricSeedActuallyMatters) {
  // Guards against the double-run test passing vacuously (e.g. metrics
  // all zero): a different seed must perturb at least the event count.
  ChaosMetrics a = run_chaos(4242);
  ChaosMetrics b = run_chaos(777);
  EXPECT_NE(a, b);
}

TEST(Determinism, Fig3DoubleRunByteIdentical) {
  // Pins the per-packet delay and jitter series, not just their averages.
  core::Fig3Config cfg;
  cfg.receivers = 24;
  cfg.measured = 4;
  cfg.packets = 50;
  cfg.seed = 2003;
  core::Fig3Result a = run_fig3(cfg);
  core::Fig3Result b = run_fig3(cfg);

  expect_series_identical(a.delay_ms, b.delay_ms);
  expect_series_identical(a.jitter_ms, b.jitter_ms);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.avg_jitter_ms, b.avg_jitter_ms);
  EXPECT_EQ(a.loss_ratio, b.loss_ratio);
  EXPECT_EQ(a.dispatch_jobs_dropped, b.dispatch_jobs_dropped);
  ASSERT_FALSE(a.delay_ms.points().empty());
}

TEST(Determinism, CapacityDoubleRunByteIdentical) {
  core::CapacityConfig cfg;
  cfg.clients = 30;
  cfg.seconds = 1.0;
  cfg.seed = 99;
  core::CapacityPoint a = run_capacity(cfg);
  core::CapacityPoint b = run_capacity(cfg);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.mean_max_delay_ms, b.mean_max_delay_ms);
  EXPECT_EQ(a.loss_ratio, b.loss_ratio);
  EXPECT_EQ(a.offered_mbps, b.offered_mbps);
}
