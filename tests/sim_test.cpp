// Tests for the discrete-event simulator: event loop, service centers,
// network hosts / NIC queueing / paths / multicast.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/service_center.hpp"

namespace gmmcs::sim {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime{30}, [&] { order.push_back(3); });
  loop.schedule_at(SimTime{10}, [&] { order.push_back(1); });
  loop.schedule_at(SimTime{20}, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().ns(), 30);
}

TEST(EventLoop, EqualTimesRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(SimTime{100}, [&, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ScheduleAfterUsesNow) {
  EventLoop loop;
  SimTime inner;
  loop.schedule_after(duration_ms(5), [&] {
    loop.schedule_after(duration_ms(7), [&] { inner = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(inner.ns(), duration_ms(12).ns());
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  TaskId id = loop.schedule_after(duration_ms(1), [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(SimTime{10}, [&] { ++count; });
  loop.schedule_at(SimTime{20}, [&] { ++count; });
  loop.schedule_at(SimTime{30}, [&] { ++count; });
  loop.run_until(SimTime{20});
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now().ns(), 20);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, RunUntilAdvancesTimeWithEmptyQueue) {
  EventLoop loop;
  loop.run_until(SimTime{500});
  EXPECT_EQ(loop.now().ns(), 500);
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.schedule_at(SimTime{100}, [] {});
  loop.run();
  bool ran = false;
  loop.schedule_at(SimTime{50}, [&] { ran = true; });  // in the past
  loop.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now().ns(), 100);
}

TEST(EventLoop, SameTimestampEventsTraceInSeqOrder) {
  EventLoop loop;
  std::vector<std::uint64_t> seqs;
  loop.set_trace([&seqs](SimTime, std::uint64_t seq) { seqs.push_back(seq); });
  std::vector<int> order;
  const SimTime t{duration_ms(1).ns()};
  for (int i = 0; i < 8; ++i) {
    loop.schedule_at(t, [&loop, &order, t, i] {
      order.push_back(i);
      // A same-timestamp child queues behind every event already pending.
      if (i == 0) loop.schedule_at(t, [&order] { order.push_back(8); });
    });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  ASSERT_EQ(seqs.size(), 9u);
  for (std::size_t i = 1; i < seqs.size(); ++i) EXPECT_LT(seqs[i - 1], seqs[i]);
}

TEST(EventLoop, CancelFromInsideEvent) {
  EventLoop loop;
  bool doomed_ran = false, child_ran = false, kept_ran = false;
  // A task pending since before the run, and one scheduled by the
  // cancelling event itself, are both cancelled from inside that event.
  TaskId doomed = loop.schedule_at(SimTime{duration_ms(5).ns()}, [&] { doomed_ran = true; });
  const SimTime t{duration_ms(1).ns()};
  loop.schedule_at(t, [&] {
    TaskId child = loop.schedule_after(duration_ms(1), [&child_ran] { child_ran = true; });
    loop.cancel(child);
    loop.cancel(doomed);
  });
  loop.schedule_at(t, [&] { kept_ran = true; });
  loop.run();
  EXPECT_FALSE(doomed_ran);
  EXPECT_FALSE(child_ran);
  EXPECT_TRUE(kept_ran);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopCompaction, CancelHeavyChurnKeepsHeapBounded) {
  EventLoop loop;
  // Schedule far-future tasks and cancel almost all of them, repeatedly —
  // the PeriodicTask / heartbeat pattern. Without compaction the heap
  // grows with every cancel; with it, stale entries stay within 2x live.
  std::vector<TaskId> ids;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 100; ++i) {
      ids.push_back(loop.schedule_at(SimTime{duration_s(1000).ns()}, [] {}));
    }
    for (TaskId id : ids) loop.cancel(id);
    ids.clear();
  }
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_LT(loop.heap_entries(), 128u);  // 2x live + compaction floor
  // And the loop still works.
  bool ran = false;
  loop.schedule_at(SimTime{duration_s(1).ns()}, [&ran] { ran = true; });
  loop.run();
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------------------
// In-place callbacks: the loop builds a callback in its parked slot and
// runs it there, so a running callback's captures must survive whatever
// it schedules, and every capture must be destroyed exactly once.
// ---------------------------------------------------------------------------

TEST(EventLoopInPlace, RunningCallbackSurvivesSlotGrowth) {
  EventLoop loop;
  int ran = 0;
  std::uint64_t seen = 0;
  // 3 references + 40 bytes of values: a 64-byte closure, stored inline.
  loop.schedule_at(SimTime{1}, [&loop, &ran, &seen,
                                vals = std::array<std::uint64_t, 5>{1, 2, 3, 4, 5}]() mutable {
    for (int i = 0; i < 10'000; ++i) {
      loop.schedule_after(duration_us(1 + i % 7), [&ran] { ++ran; });
    }
    // The slot storage grew by several chunks while this ran; the closure
    // is still where it was, so its captures read and write in place.
    for (std::uint64_t& v : vals) {
      seen += v;
      v *= 10;
    }
    for (std::uint64_t v : vals) seen += v;
  });
  loop.run();
  EXPECT_EQ(ran, 10'000);
  EXPECT_EQ(seen, 15u + 150u);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopInPlace, CancellingItsOwnIdWhileRunningIsANoOp) {
  EventLoop loop;
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  TaskId self = 0;
  int read = 0;
  int sibling = 0;
  self = loop.schedule_at(SimTime{10}, [&loop, &self, &read, token = std::move(token)] {
    loop.cancel(self);
    read = *token;  // the cancel destroyed nothing
  });
  loop.schedule_at(SimTime{10}, [&sibling] { ++sibling; });
  loop.run();
  EXPECT_EQ(read, 7);
  EXPECT_EQ(sibling, 1);
  EXPECT_EQ(loop.executed(), 2u);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(watch.expired());  // destroyed once the callback returned
}

/// Counts the destruction of the one instance it is moved along.
struct DtorProbe {
  int* destroyed;
  explicit DtorProbe(int* d) : destroyed(d) {}
  DtorProbe(DtorProbe&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)) {}
  DtorProbe& operator=(DtorProbe&&) = delete;
  ~DtorProbe() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

enum class Fate { kRuns, kCancelledBeforeRunning, kCancelledByAnotherEvent, kPendingAtDestruction };

/// Schedules a callback holding `capture` and gives it `fate`; returns
/// how many times the callback ran.
template <class MakeCapture>
int give_fate(Fate fate, MakeCapture make_capture, int* destroyed) {
  int ran = 0;
  EventLoop loop;
  const TaskId victim = loop.schedule_at(
      SimTime{20}, [c = make_capture(destroyed), &ran] { ran += c.size() > 0 ? 1 : 0; });
  switch (fate) {
    case Fate::kRuns:
      loop.run();
      break;
    case Fate::kCancelledBeforeRunning:
      loop.cancel(victim);
      EXPECT_EQ(*destroyed, 1);  // eagerly, at the cancel
      loop.run();
      break;
    case Fate::kCancelledByAnotherEvent:
      loop.schedule_at(SimTime{10}, [&loop, victim] { loop.cancel(victim); });
      loop.run();
      break;
    case Fate::kPendingAtDestruction:
      break;
  }
  return ran;
}

TEST(EventLoopInPlace, CapturesAreDestroyedExactlyOnce) {
  // A move-only capture (stored inline) and one over SmallFn's 64-byte
  // buffer (spilled to one heap cell).
  struct MoveOnly {
    std::unique_ptr<DtorProbe> probe;
    [[nodiscard]] std::size_t size() const { return 1; }
  };
  struct Big {
    DtorProbe probe;
    std::array<std::uint64_t, 9> pad{};
    [[nodiscard]] std::size_t size() const { return pad.size(); }
  };
  const auto move_only = [](int* d) { return MoveOnly{std::make_unique<DtorProbe>(d)}; };
  const auto big = [](int* d) { return Big{DtorProbe(d)}; };
  for (const Fate fate : {Fate::kRuns, Fate::kCancelledBeforeRunning,
                          Fate::kCancelledByAnotherEvent, Fate::kPendingAtDestruction}) {
    const int expect_ran = fate == Fate::kRuns ? 1 : 0;
    int destroyed = 0;
    EXPECT_EQ(give_fate(fate, move_only, &destroyed), expect_ran);
    EXPECT_EQ(destroyed, 1) << "move-only capture, fate " << static_cast<int>(fate);
    destroyed = 0;
    EXPECT_EQ(give_fate(fate, big, &destroyed), expect_ran);
    EXPECT_EQ(destroyed, 1) << "over-64-byte capture, fate " << static_cast<int>(fate);
  }
}

TEST(ServiceCenterInPlace, RunningJobSurvivesNestedSubmits) {
  EventLoop loop;
  ServiceCenter sc(loop, /*servers=*/1);
  int nested = 0;
  std::uint64_t seen = 0;
  auto job = [&, vals = std::array<std::uint64_t, 4>{1, 2, 3, 4}]() mutable {
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_TRUE(sc.submit(duration_us(1), [&nested] { ++nested; }));
    }
    // The parked callables grew by several chunks; this one has not moved.
    for (std::uint64_t& v : vals) seen += v++;
    for (std::uint64_t v : vals) seen += v;
  };
  ASSERT_TRUE(sc.submit(duration_us(5), std::move(job)));
  loop.run();
  EXPECT_EQ(nested, 1'000);
  EXPECT_EQ(seen, 10u + 14u);
  EXPECT_EQ(sc.completed(), 1'001u);
}

TEST(NetworkInPlace, HandlerReadsItsDatagramAfterSendingMore) {
  EventLoop loop;
  Network net(loop, 7);
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int echoes = 0;
  std::string first;
  a.bind(9, [&](const Datagram&) { ++echoes; });
  b.bind(100, [&](const Datagram& d) {
    if (!first.empty()) return;
    // Park 500 more datagrams while this one is delivered from its slot.
    for (int i = 0; i < 500; ++i) b.send(Endpoint{a.id(), 9}, 100, Bytes(10, 0x01));
    first = to_string(d.payload);
    EXPECT_EQ(d.src, (Endpoint{a.id(), 50}));
  });
  a.send(Endpoint{b.id(), 100}, 50, to_bytes("hello"));
  loop.run();
  EXPECT_EQ(first, "hello");
  EXPECT_EQ(echoes, 500);
}

TEST(PeriodicTask, TicksAtPeriod) {
  EventLoop loop;
  std::vector<std::int64_t> at;
  PeriodicTask task(loop, duration_ms(10), [&](std::uint64_t) { at.push_back(loop.now().ns()); });
  task.start();
  loop.run_until(SimTime{duration_ms(35).ns()});
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], duration_ms(10).ns());
  EXPECT_EQ(at[2], duration_ms(30).ns());
}

TEST(PeriodicTask, StopHalts) {
  EventLoop loop;
  int ticks = 0;
  PeriodicTask task(loop, duration_ms(1), [&](std::uint64_t t) {
    ++ticks;
    if (t == 4) task.stop();
  });
  task.start();
  loop.run();
  EXPECT_EQ(ticks, 5);
}

TEST(PeriodicTask, TickIndexIncrements) {
  EventLoop loop;
  std::vector<std::uint64_t> idx;
  PeriodicTask task(loop, duration_ms(2), [&](std::uint64_t t) { idx.push_back(t); });
  task.start();
  loop.run_until(SimTime{duration_ms(7).ns()});
  EXPECT_EQ(idx, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(ServiceCenter, SingleServerSerializes) {
  EventLoop loop;
  ServiceCenter sc(loop, 1);
  std::vector<std::int64_t> done_at;
  for (int i = 0; i < 3; ++i) {
    sc.submit(duration_ms(10), [&] { done_at.push_back(loop.now().ns()); });
  }
  loop.run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_EQ(done_at[0], duration_ms(10).ns());
  EXPECT_EQ(done_at[1], duration_ms(20).ns());
  EXPECT_EQ(done_at[2], duration_ms(30).ns());
  EXPECT_EQ(sc.completed(), 3u);
}

TEST(ServiceCenter, ParallelServersOverlap) {
  EventLoop loop;
  ServiceCenter sc(loop, 2);
  std::vector<std::int64_t> done_at;
  for (int i = 0; i < 4; ++i) {
    sc.submit(duration_ms(10), [&] { done_at.push_back(loop.now().ns()); });
  }
  loop.run();
  ASSERT_EQ(done_at.size(), 4u);
  // Two at t=10, two at t=20.
  EXPECT_EQ(done_at[1], duration_ms(10).ns());
  EXPECT_EQ(done_at[3], duration_ms(20).ns());
}

TEST(ServiceCenter, QueueLimitRejects) {
  EventLoop loop;
  ServiceCenter sc(loop, 1, 2);
  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    sc.submit(duration_ms(1), [&] { ++completed; });
  }
  loop.run();
  EXPECT_EQ(completed, 3);  // 1 in service + 2 queued
  EXPECT_EQ(sc.rejected(), 2u);
}

TEST(ServiceCenter, MeanWaitAccounting) {
  EventLoop loop;
  ServiceCenter sc(loop, 1);
  // Jobs of 10ms each, submitted together: waits are 0, 10, 20 -> mean 10.
  for (int i = 0; i < 3; ++i) sc.submit(duration_ms(10), [] {});
  loop.run();
  EXPECT_EQ(sc.mean_wait().ms(), 10);
}

class NetworkTest : public ::testing::Test {
 protected:
  EventLoop loop;
  Network net{loop, 1234};
};

TEST_F(NetworkTest, DeliversWithLatencyAndSerialization) {
  Host& a = net.add_host("a", NicConfig{.egress_bps = 8e6, .overhead_bytes = 0});
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(), PathConfig{.latency = duration_ms(3)});
  SimTime arrival;
  b.bind(100, [&](const Datagram& d) {
    arrival = loop.now();
    EXPECT_EQ(d.payload.size(), 1000u);
    EXPECT_EQ(d.src.node, 0u);
  });
  a.send(Endpoint{b.id(), 100}, 50, Bytes(1000, 0xFF));
  loop.run();
  // 1000 bytes at 8 Mbps = 1ms serialization + 3ms latency.
  EXPECT_EQ(arrival.ns(), duration_ms(4).ns());
}

TEST_F(NetworkTest, NicQueueAddsDelayForBackToBackPackets) {
  Host& a = net.add_host("a", NicConfig{.egress_bps = 8e6, .overhead_bytes = 0});
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(), PathConfig{.latency = SimDuration{0}});
  std::vector<std::int64_t> arrivals;
  b.bind(1, [&](const Datagram&) { arrivals.push_back(loop.now().ns()); });
  for (int i = 0; i < 3; ++i) a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0));
  loop.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], duration_ms(1).ns());
  EXPECT_EQ(arrivals[1], duration_ms(2).ns());
  EXPECT_EQ(arrivals[2], duration_ms(3).ns());
}

TEST_F(NetworkTest, DropTailWhenQueueFull) {
  Host& a = net.add_host("a", NicConfig{.egress_bps = 8e6, .queue_bytes = 2500,
                                        .overhead_bytes = 0});
  Host& b = net.add_host("b");
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    if (a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0))) ++accepted;
  }
  loop.run();
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(received, 2);
  EXPECT_EQ(a.nic_dropped(), 3u);
}

TEST_F(NetworkTest, QueueDrainsAndAcceptsAgain) {
  Host& a = net.add_host("a", NicConfig{.egress_bps = 8e6, .queue_bytes = 1000,
                                        .overhead_bytes = 0});
  Host& b = net.add_host("b");
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0));
  loop.run();  // fully drains
  EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0)));
  loop.run();
  EXPECT_EQ(received, 2);
}

TEST_F(NetworkTest, RandomLossDropsExpectedFraction) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(), PathConfig{.latency = duration_us(10), .loss = 0.3});
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) a.send(Endpoint{b.id(), 1}, 2, Bytes(100, 0));
  loop.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.7, 0.03);
}

TEST_F(NetworkTest, ReliableTrafficExemptFromLoss) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(), PathConfig{.latency = duration_us(10), .loss = 1.0});
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  for (int i = 0; i < 10; ++i) a.send(Endpoint{b.id(), 1}, 2, Bytes(100, 0), /*reliable=*/true);
  loop.run();
  EXPECT_EQ(received, 10);
}

TEST_F(NetworkTest, UnboundPortDiscardsSilently) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  a.send(Endpoint{b.id(), 999}, 1, Bytes(10, 0));
  loop.run();  // no crash, nothing delivered
  SUCCEED();
}

TEST_F(NetworkTest, EphemeralPortsAreDistinct) {
  Host& a = net.add_host("a");
  auto p1 = a.bind_ephemeral([](const Datagram&) {});
  auto p2 = a.bind_ephemeral([](const Datagram&) {});
  EXPECT_NE(p1, p2);
  EXPECT_TRUE(a.is_bound(p1));
  a.unbind(p1);
  EXPECT_FALSE(a.is_bound(p1));
}

TEST_F(NetworkTest, DoubleBindThrows) {
  Host& a = net.add_host("a");
  a.bind(5, [](const Datagram&) {});
  EXPECT_THROW(a.bind(5, [](const Datagram&) {}), std::logic_error);
}

TEST_F(NetworkTest, MulticastFansOutToMembers) {
  Host& sender = net.add_host("s");
  Host& r1 = net.add_host("r1");
  Host& r2 = net.add_host("r2");
  GroupId g = net.create_group();
  int got1 = 0, got2 = 0;
  r1.bind(10, [&](const Datagram& d) {
    ++got1;
    EXPECT_EQ(d.group, g);
  });
  r2.bind(10, [&](const Datagram&) { ++got2; });
  net.join_group(g, Endpoint{r1.id(), 10});
  net.join_group(g, Endpoint{r2.id(), 10});
  sender.send_multicast(g, 99, Bytes(500, 1));
  loop.run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
  // One serialization at the sender regardless of fan-out.
  EXPECT_EQ(sender.nic_sent(), 1u);
}

TEST_F(NetworkTest, MulticastSkipsSelfAndLeavers) {
  Host& s = net.add_host("s");
  Host& r = net.add_host("r");
  GroupId g = net.create_group();
  int self_got = 0, r_got = 0;
  s.bind(7, [&](const Datagram&) { ++self_got; });
  r.bind(7, [&](const Datagram&) { ++r_got; });
  net.join_group(g, Endpoint{s.id(), 7});
  net.join_group(g, Endpoint{r.id(), 7});
  s.send_multicast(g, 7, Bytes(10, 0));
  loop.run();
  EXPECT_EQ(self_got, 0);
  EXPECT_EQ(r_got, 1);
  net.leave_group(g, Endpoint{r.id(), 7});
  s.send_multicast(g, 7, Bytes(10, 0));
  loop.run();
  EXPECT_EQ(r_got, 1);
}

TEST_F(NetworkTest, DownHostDropsTraffic) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  b.set_up(false);
  a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));
  loop.run();
  EXPECT_EQ(received, 0);
  b.set_up(true);
  a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));
  loop.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, DefaultPathApplies) {
  net.set_default_path(PathConfig{.latency = duration_ms(50)});
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  SimTime arrival;
  b.bind(1, [&](const Datagram&) { arrival = loop.now(); });
  a.send(Endpoint{b.id(), 1}, 2, Bytes(1, 0));
  loop.run();
  EXPECT_GE((arrival - SimTime::zero()).ms(), 50);
}

TEST_F(NetworkTest, GilbertLossMatchesStationaryRate) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(),
               PathConfig{.latency = duration_us(10), .loss = 0.2, .burst_length = 5.0});
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));
  loop.run();
  // Correlated losses, but the long-run rate matches the configured 20%.
  EXPECT_NEAR(static_cast<double>(n - received) / n, 0.2, 0.02);
}

TEST_F(NetworkTest, GilbertLossesComeInBursts) {
  auto mean_burst = [&](double burst_cfg, std::uint64_t seed) {
    EventLoop loop2;
    Network net2(loop2, seed);
    Host& a = net2.add_host("a");
    Host& b = net2.add_host("b");
    net2.set_path(a.id(), b.id(), PathConfig{.latency = duration_us(10), .loss = 0.2,
                                             .burst_length = burst_cfg});
    // Sequence-stamped packets reveal loss runs at the receiver.
    std::vector<int> got;
    b.bind(1, [&](const Datagram& d) {
      ByteReader r(d.payload);
      got.push_back(static_cast<int>(r.u32()));
    });
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      ByteWriter w;
      w.u32(static_cast<std::uint32_t>(i));
      a.send(Endpoint{b.id(), 1}, 2, w.take());
    }
    loop2.run();
    // Mean length of gaps in the received sequence.
    double bursts = 0, lost = 0;
    for (std::size_t i = 1; i < got.size(); ++i) {
      int gap = got[i] - got[i - 1] - 1;
      if (gap > 0) {
        bursts += 1;
        lost += gap;
      }
    }
    return bursts > 0 ? lost / bursts : 0.0;
  };
  double bernoulli = mean_burst(1.0, 5);
  double gilbert = mean_burst(8.0, 5);
  EXPECT_LT(bernoulli, 1.6);           // independent: mostly isolated drops
  EXPECT_GT(gilbert, bernoulli * 3.0);  // correlated: long runs
  EXPECT_NEAR(gilbert, 8.0, 3.0);
}

TEST_F(NetworkTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    EventLoop loop2;
    Network net2(loop2, seed);
    Host& a = net2.add_host("a");
    Host& b = net2.add_host("b");
    net2.set_path(a.id(), b.id(), PathConfig{.latency = duration_us(100), .loss = 0.5});
    int received = 0;
    b.bind(1, [&](const Datagram&) { ++received; });
    for (int i = 0; i < 100; ++i) a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));
    loop2.run();
    return received;
  };
  EXPECT_EQ(run_once(77), run_once(77));
}

TEST_F(NetworkTest, DownedHostDropsQueuedEgress) {
  // Crash semantics: bytes still sitting in the NIC queue at power-off
  // must never reach the wire. 1000 bytes at 1 Mbps = 8 ms serialization
  // each, so of 5 back-to-back sends only the two that departed before
  // the 20 ms crash may arrive.
  Host& a = net.add_host("a", NicConfig{.egress_bps = 1e6, .overhead_bytes = 0});
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(), PathConfig{.latency = duration_us(10)});
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  for (int i = 0; i < 5; ++i) a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0));
  loop.schedule_at(SimTime{duration_ms(20).ns()}, [&] { a.set_up(false); });
  loop.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(net.lost(), 3u);
}

TEST_F(NetworkTest, RestartedHostStartsWithEmptyNicQueue) {
  Host& a = net.add_host("a", NicConfig{.egress_bps = 1e6, .overhead_bytes = 0});
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(), PathConfig{.latency = duration_us(10)});
  std::vector<std::int64_t> arrivals;
  b.bind(1, [&](const Datagram&) { arrivals.push_back(loop.now().ns()); });
  for (int i = 0; i < 5; ++i) a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0));
  loop.schedule_at(SimTime{duration_ms(1).ns()}, [&] { a.set_up(false); });
  loop.schedule_at(SimTime{duration_ms(50).ns()}, [&] {
    a.set_up(true);
    // The pre-crash queue was wiped, so this send serializes immediately
    // (8 ms) instead of behind 5 queued packets.
    a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0));
  });
  loop.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], duration_ms(58).ns() + duration_us(10).ns());
}

TEST_F(NetworkTest, BindWhileDownThrows) {
  Host& a = net.add_host("a");
  a.set_up(false);
  EXPECT_THROW(a.bind(5, [](const Datagram&) {}), std::logic_error);
  a.set_up(true);
  EXPECT_NO_THROW(a.bind(5, [](const Datagram&) {}));
}

TEST_F(NetworkTest, AdministrativeLinkDownBlocksBothDirections) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int at_a = 0, at_b = 0;
  a.bind(1, [&](const Datagram&) { ++at_a; });
  b.bind(1, [&](const Datagram&) { ++at_b; });
  net.set_link_up(a.id(), b.id(), false);
  EXPECT_FALSE(net.link_up(a.id(), b.id()));
  EXPECT_FALSE(net.link_up(b.id(), a.id()));
  a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));
  b.send(Endpoint{a.id(), 1}, 2, Bytes(10, 0));
  loop.run();
  EXPECT_EQ(at_a, 0);
  EXPECT_EQ(at_b, 0);
  net.set_link_up(a.id(), b.id(), true);
  a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));
  b.send(Endpoint{a.id(), 1}, 2, Bytes(10, 0));
  loop.run();
  EXPECT_EQ(at_a, 1);
  EXPECT_EQ(at_b, 1);
}

TEST_F(NetworkTest, FaultPlanSchedulesCrashWindow) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  FaultPlan plan;
  plan.crash_host(b.id(), SimTime{duration_ms(10).ns()}, SimTime{duration_ms(20).ns()});
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.active_at(SimTime{duration_ms(15).ns()}));
  EXPECT_FALSE(plan.active_at(SimTime{duration_ms(25).ns()}));
  plan.install(net);
  // One packet before, one during, one after the outage window.
  for (std::int64_t ms : {5, 15, 25}) {
    loop.schedule_at(SimTime{duration_ms(ms).ns()},
                     [&] { a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
  }
  loop.run();
  EXPECT_EQ(received, 2);
}

TEST_F(NetworkTest, FaultPlanPartitionBlocksCrossTraffic) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  Host& c = net.add_host("c");
  int at_b = 0, at_c = 0;
  b.bind(1, [&](const Datagram&) { ++at_b; });
  c.bind(1, [&](const Datagram&) { ++at_c; });
  FaultPlan plan;
  plan.partition({a.id()}, {b.id(), c.id()}, SimTime{duration_ms(10).ns()},
                 SimTime{duration_ms(20).ns()});
  plan.install(net);
  auto send_both = [&] {
    a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));
    b.send(Endpoint{c.id(), 1}, 2, Bytes(10, 0));  // same side: unaffected
  };
  loop.schedule_at(SimTime{duration_ms(15).ns()}, send_both);
  loop.schedule_at(SimTime{duration_ms(25).ns()}, send_both);
  loop.run();
  EXPECT_EQ(at_b, 1);  // only the post-heal cross-partition packet
  EXPECT_EQ(at_c, 2);  // intra-side traffic flows throughout
}

TEST_F(NetworkTest, FaultPlanOverlappingCrashesRestoreAtLatestUntil) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  FaultPlan plan;
  // [10, 30) and [20, 50) overlap: the host must stay down until 50 even
  // though the first window's restore fires at 30.
  plan.crash_host(b.id(), SimTime{duration_ms(10).ns()}, SimTime{duration_ms(30).ns()})
      .crash_host(b.id(), SimTime{duration_ms(20).ns()}, SimTime{duration_ms(50).ns()});
  plan.install(net);
  for (std::int64_t ms : {5, 25, 35, 45, 55}) {
    loop.schedule_at(SimTime{duration_ms(ms).ns()},
                     [&] { a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
  }
  loop.run();
  EXPECT_EQ(received, 2);  // only the 5ms and 55ms packets
}

TEST_F(NetworkTest, FaultPlanPermanentCrashPinsHostDown) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  FaultPlan plan;
  // A temporary crash overlapping a permanent one must not revive the
  // host when its own window ends.
  plan.crash_host(b.id(), SimTime{duration_ms(10).ns()})
      .crash_host(b.id(), SimTime{duration_ms(20).ns()}, SimTime{duration_ms(30).ns()});
  plan.install(net);
  for (std::int64_t ms : {5, 35, 100}) {
    loop.schedule_at(SimTime{duration_ms(ms).ns()},
                     [&] { a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
  }
  loop.run();
  EXPECT_EQ(received, 1);
  EXPECT_FALSE(net.host(b.id()).up());
}

TEST_F(NetworkTest, FaultPlanFlapInsidePartitionStaysCut) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  FaultPlan plan;
  // The flap's restore at 20 lands inside the partition window; the pair
  // reconnects only when the partition heals at 40.
  plan.flap_link(a.id(), b.id(), SimTime{duration_ms(10).ns()}, SimTime{duration_ms(20).ns()})
      .partition({a.id()}, {b.id()}, SimTime{duration_ms(15).ns()},
                 SimTime{duration_ms(40).ns()});
  plan.install(net);
  for (std::int64_t ms : {5, 25, 35, 45}) {
    loop.schedule_at(SimTime{duration_ms(ms).ns()},
                     [&] { a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
  }
  loop.run();
  EXPECT_EQ(received, 2);  // 5ms and 45ms
}

TEST_F(NetworkTest, FaultPlanOverlappingBurstsRestoreOriginalPath) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  const PathConfig base{.latency = duration_us(10), .loss = 0.0};
  net.set_path(a.id(), b.id(), base);
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  FaultPlan plan;
  // Two total-loss bursts, [10, 30) and [20, 50): traffic is dark for the
  // whole union and the base (lossless) model reappears only at 50.
  plan.loss_burst(a.id(), b.id(), SimTime{duration_ms(10).ns()}, SimTime{duration_ms(30).ns()},
                  1.0)
      .loss_burst(a.id(), b.id(), SimTime{duration_ms(20).ns()}, SimTime{duration_ms(50).ns()},
                  1.0);
  plan.install(net);
  for (std::int64_t ms : {5, 25, 35, 45, 55, 60}) {
    loop.schedule_at(SimTime{duration_ms(ms).ns()},
                     [&] { a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
  }
  loop.run();
  EXPECT_EQ(received, 3);  // 5ms, then 55ms and 60ms after full restore
  EXPECT_EQ(net.path(a.id(), b.id()).loss, base.loss);
}

TEST_F(NetworkTest, FaultPlanOneWayCutIsDirectional) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int at_a = 0, at_b = 0;
  a.bind(1, [&](const Datagram&) { ++at_a; });
  b.bind(1, [&](const Datagram&) { ++at_b; });
  FaultPlan plan;
  plan.cut_oneway(a.id(), b.id(), SimTime{duration_ms(10).ns()}, SimTime{duration_ms(30).ns()});
  plan.install(net);
  auto send_both = [&] {
    a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0), /*reliable=*/true);
    b.send(Endpoint{a.id(), 1}, 2, Bytes(10, 0), /*reliable=*/true);
  };
  loop.schedule_at(SimTime{duration_ms(20).ns()}, send_both);
  loop.schedule_at(SimTime{duration_ms(35).ns()}, send_both);
  loop.run();
  // During the cut only a -> b is dark (even for reliable traffic); the
  // reverse direction keeps flowing, and both work after restore.
  EXPECT_EQ(at_b, 1);
  EXPECT_EQ(at_a, 2);
}

TEST_F(NetworkTest, FaultPlanGrayHostDropsBestEffortEgressOnly) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int at_a = 0, at_b = 0;
  a.bind(1, [&](const Datagram&) { ++at_a; });
  b.bind(1, [&](const Datagram&) { ++at_b; });
  FaultPlan plan;
  plan.gray_host(a.id(), SimTime{duration_ms(10).ns()}, SimTime{duration_ms(30).ns()}, 1.0);
  plan.install(net);
  loop.schedule_at(SimTime{duration_ms(20).ns()}, [&] {
    a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));                    // dropped (gray egress)
    a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0), /*reliable=*/true); // control survives
    b.send(Endpoint{a.id(), 1}, 2, Bytes(10, 0));                    // ingress unaffected
  });
  loop.schedule_at(SimTime{duration_ms(35).ns()},
                   [&] { a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
  loop.run();
  EXPECT_EQ(at_b, 2);  // the reliable packet and the post-restore one
  EXPECT_EQ(at_a, 1);
}

TEST_F(NetworkTest, FaultPlanStackedGrayDegradesRestoreCleanly) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  FaultPlan plan;
  // Overlapping gray windows [10, 30) and [20, 50): egress stays dark for
  // the union; a clean host reappears only after the last one pops.
  plan.gray_host(a.id(), SimTime{duration_ms(10).ns()}, SimTime{duration_ms(30).ns()}, 1.0)
      .gray_host(a.id(), SimTime{duration_ms(20).ns()}, SimTime{duration_ms(50).ns()}, 1.0);
  plan.install(net);
  for (std::int64_t ms : {5, 25, 35, 45, 55}) {
    loop.schedule_at(SimTime{duration_ms(ms).ns()},
                     [&] { a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
  }
  loop.run();
  EXPECT_EQ(received, 2);  // 5ms and 55ms
}

TEST_F(NetworkTest, FaultPlanDeterministicAcrossRuns) {
  // The same seed with the same fault plan (crash + flap + loss burst)
  // must reproduce delivery exactly.
  auto run_once = [](std::uint64_t seed) {
    EventLoop loop2;
    Network net2{loop2, seed};
    Host& a = net2.add_host("a");
    Host& b = net2.add_host("b");
    net2.set_path(a.id(), b.id(), PathConfig{.latency = duration_us(100), .loss = 0.1});
    FaultPlan plan;
    plan.crash_host(b.id(), SimTime{duration_ms(40).ns()}, SimTime{duration_ms(60).ns()})
        .flap_link(a.id(), b.id(), SimTime{duration_ms(100).ns()},
                   SimTime{duration_ms(120).ns()})
        .loss_burst(a.id(), b.id(), SimTime{duration_ms(150).ns()},
                    SimTime{duration_ms(170).ns()}, 0.8);
    plan.install(net2);
    int received = 0;
    b.bind(1, [&](const Datagram&) { ++received; });
    for (int i = 0; i < 200; ++i) {
      loop2.schedule_at(SimTime{duration_ms(i).ns()},
                        [&] { a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
    }
    loop2.run();
    return received;
  };
  int first = run_once(99);
  EXPECT_EQ(first, run_once(99));
  EXPECT_LT(first, 200);  // the plan really dropped something
}

}  // namespace
}  // namespace gmmcs::sim
