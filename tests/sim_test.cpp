// Tests for the discrete-event simulator: event loop, service centers,
// network hosts / NIC queueing / paths / multicast.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/random.hpp"
#include "property.hpp"
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

/// A direct-event target that hands each fired arg to `on_fire`.
struct FnTarget : EventTarget {
  std::function<void(std::uint64_t)> on_fire;
  explicit FnTarget(std::function<void(std::uint64_t)> fn)
      : EventTarget{[](EventTarget& t, std::uint64_t arg) { static_cast<FnTarget&>(t).on_fire(arg); }},
        on_fire(std::move(fn)) {}
};

// A direct event takes its seq where a callable would, and runs among
// callables in (when, seq) order, with its own arg.
TEST(EventLoop, DirectEventsRunInSeqOrderAmongCallables) {
  EventLoop loop;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order;  // (seq, tag)
  FnTarget target([&](std::uint64_t arg) { order.emplace_back(loop.current_seq(), arg); });
  const SimTime t{duration_ms(1).ns()};
  loop.schedule_at(t, [&] { order.emplace_back(loop.current_seq(), 0); });
  loop.schedule_at(t, target, 1);
  loop.schedule_at(SimTime{0}, target, 2);  // earlier time: runs first
  loop.schedule_at(t, [&] {
    order.emplace_back(loop.current_seq(), 3);
    loop.schedule_at(SimTime{0}, target, 4);  // clamped to now(): runs next
  });
  EXPECT_EQ(loop.pending(), 4u);
  loop.run();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {3, 2}, {1, 0}, {2, 1}, {4, 3}, {5, 4}};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(loop.executed(), 5u);
  EXPECT_EQ(loop.pending(), 0u);
}

// reserve_seq() takes the number the next schedule_at() would have
// taken, and an event scheduled later under that key runs exactly where
// a schedule_at() at the reservation would have put it.
TEST(EventLoop, ReserveSeqConsumesTheNumberScheduleAtWould) {
  const SimTime t{duration_ms(1).ns()};
  std::vector<std::pair<int, std::uint64_t>> eager;  // (tag, seq)
  std::vector<std::pair<int, std::uint64_t>> lazy;
  {
    EventLoop loop;
    loop.schedule_at(t, [&] { eager.emplace_back(0, loop.current_seq()); });
    loop.schedule_at(t, [&] { eager.emplace_back(1, loop.current_seq()); });
    loop.schedule_at(t, [&] { eager.emplace_back(2, loop.current_seq()); });
    loop.run();
  }
  {
    EventLoop loop;
    FnTarget target(
        [&](std::uint64_t tag) { lazy.emplace_back(static_cast<int>(tag), loop.current_seq()); });
    loop.schedule_at(t, [&] { lazy.emplace_back(0, loop.current_seq()); });
    const std::uint64_t before = loop.next_seq();
    const std::uint64_t seq = loop.reserve_seq();
    EXPECT_EQ(seq, before);
    EXPECT_EQ(loop.next_seq(), before + 1);
    EXPECT_EQ(loop.pending(), 1u);  // a reservation is not an event
    loop.schedule_at(t, [&] { lazy.emplace_back(2, loop.current_seq()); });
    loop.schedule_reserved(t, seq, target, 1);
    EXPECT_EQ(loop.pending(), 3u);
    loop.run();
  }
  EXPECT_EQ(lazy, eager);
}

TEST(EventLoop, ScheduleReservedRejectsPassedOrUnreservedKeys) {
  EventLoop loop;
  const std::uint64_t early = loop.reserve_seq();
  const std::uint64_t late = loop.reserve_seq();
  std::vector<std::uint64_t> fired;
  FnTarget target([&](std::uint64_t arg) { fired.push_back(arg); });
  loop.schedule_at(SimTime{10}, [&] {
    // (10, early) and (5, late) are behind the running event (10, 3);
    // (10, late) is not, nor is any later time.
    EXPECT_THROW(loop.schedule_reserved(SimTime{10}, early, target, 1), std::logic_error);
    EXPECT_THROW(loop.schedule_reserved(SimTime{5}, late, target, 2), std::logic_error);
    loop.schedule_reserved(SimTime{20}, early, target, 3);
  });
  EXPECT_THROW(loop.schedule_reserved(SimTime{10}, loop.next_seq(), target, 4), std::logic_error);
  loop.run();
  EXPECT_EQ(fired, std::vector<std::uint64_t>{3});
  // Drained up to now(): every key at now() has passed.
  EXPECT_THROW(loop.schedule_reserved(loop.now(), late, target, 5), std::logic_error);
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

// A direct event whose cancels trigger compaction while its own spent
// entry still holds the heap root runs once: compaction drops that entry
// (a direct event's entry cannot be told from a pending one).
TEST(EventLoopCompaction, CompactionDuringADirectEventDropsItsSpentEntry) {
  EventLoop loop;
  std::vector<TaskId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(loop.schedule_at(SimTime{1000}, [] {}));
  int fired = 0;
  FnTarget target([&](std::uint64_t) {
    ++fired;
    const std::size_t before = loop.heap_entries();
    for (const TaskId id : ids) loop.cancel(id);
    EXPECT_LT(loop.heap_entries(), before);  // compacted
  });
  loop.schedule_at(SimTime{10}, target, 0);
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.executed(), 1u);
  EXPECT_EQ(loop.heap_entries(), 0u);
}

// A step() nested in a direct event runs the next event, not the running
// one again, and the outer event's spent entry is gone afterwards.
TEST(EventLoop, StepNestedInADirectEventRunsTheNextEvent) {
  EventLoop loop;
  std::vector<std::uint64_t> fired;
  FnTarget target([&](std::uint64_t arg) {
    fired.push_back(arg);
    if (arg == 1) {
      EXPECT_TRUE(loop.step());
    }
  });
  loop.schedule_at(SimTime{10}, target, 1);
  loop.schedule_at(SimTime{20}, target, 2);
  loop.schedule_at(SimTime{30}, target, 3);
  loop.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(loop.executed(), 3u);
  EXPECT_EQ(loop.heap_entries(), 0u);
}

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
    for (int i = 0; i < 500; ++i) (void)b.send(Endpoint{a.id(), 9}, 100, Bytes(10, 0x01));
    first = to_string(d.payload);
    EXPECT_EQ(d.src, (Endpoint{a.id(), 50}));
  });
  EXPECT_TRUE(a.send(Endpoint{b.id(), 100}, 50, to_bytes("hello")));
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

// A completion event carries its batch item index in 32 bits, so a batch
// too large for that is refused whole.
TEST(ServiceCenter, BatchBeyondThirtyTwoBitItemsIsRefused) {
  EventLoop loop;
  ServiceCenter sc(loop, 2);
  EXPECT_THROW(sc.submit_batch(std::size_t{UINT32_MAX}, duration_ms(1), [](std::size_t) {}),
               std::length_error);
  EXPECT_EQ(sc.busy_servers(), 0);
  EXPECT_EQ(sc.rejected(), 0u);
  EXPECT_EQ(loop.pending(), 0u);
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
  EXPECT_TRUE(a.send(Endpoint{b.id(), 100}, 50, Bytes(1000, 0xFF)));
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
  for (int i = 0; i < 3; ++i) (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0));
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
  EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0)));
  loop.run();  // fully drains
  EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0)));
  loop.run();
  EXPECT_EQ(received, 2);
}

// The egress queue is a ring of departure records. Here its contents
// wrap round the end of its 16-record buffer when the host powers down:
// the wipe must drop every queued packet, and the NIC must come back
// empty.
TEST_F(NetworkTest, PowerDownClearsAWrappedNicQueue) {
  // 1000 B at 8 Mbps: a packet departs every millisecond.
  Host& a = net.add_host("a", NicConfig{.egress_bps = 8e6, .overhead_bytes = 0});
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(), PathConfig{.latency = SimDuration{0}});
  std::vector<std::int64_t> arrivals;
  b.bind(1, [&](const Datagram&) { arrivals.push_back(loop.now().ns()); });
  for (int i = 0; i < 12; ++i) EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0)));
  loop.run_until(SimTime{duration_ms(10).ns()});
  ASSERT_EQ(arrivals.size(), 10u);
  // Ten records released, two queued; twelve more wrap past the end.
  for (int i = 0; i < 12; ++i) EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0)));
  EXPECT_EQ(a.nic_queued_bytes(), 14000u);
  a.set_up(false);
  EXPECT_EQ(a.nic_queued_bytes(), 0u);
  EXPECT_EQ(a.nic_backlog_delay(), SimDuration{0});
  loop.run_until(SimTime{duration_ms(40).ns()});
  EXPECT_EQ(arrivals.size(), 10u);  // every queued packet was wiped
  a.set_up(true);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0)));
  EXPECT_EQ(a.nic_queued_bytes(), 20000u);
  loop.run();
  ASSERT_EQ(arrivals.size(), 30u);
  // The first packet after power-up leaves an empty NIC.
  EXPECT_EQ(arrivals[10], duration_ms(41).ns());
  EXPECT_EQ(arrivals[29], duration_ms(60).ns());
  EXPECT_EQ(a.nic_queued_bytes(), 0u);
}

TEST_F(NetworkTest, RandomLossDropsExpectedFraction) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(), PathConfig{.latency = duration_us(10), .loss = 0.3});
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(100, 0));
  loop.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.7, 0.03);
}

TEST_F(NetworkTest, ReliableTrafficExemptFromLoss) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(), PathConfig{.latency = duration_us(10), .loss = 1.0});
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(100, 0), /*reliable=*/true));
  }
  loop.run();
  EXPECT_EQ(received, 10);
}

TEST_F(NetworkTest, UnboundPortDiscardsSilently) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  EXPECT_TRUE(a.send(Endpoint{b.id(), 999}, 1, Bytes(10, 0)));
  loop.run();  // no crash, nothing delivered
  SUCCEED();
}

// A send to a host that does not exist is a caller error: it throws
// before the NIC queues it, and before a loss roll or a cut path could
// count it as lost.
TEST_F(NetworkTest, SendToUnknownHostThrowsWithoutTouchingTheNic) {
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  const NodeId ghost = 7;
  const std::uint64_t seq = loop.next_seq();
  EXPECT_THROW((void)a.send(Endpoint{ghost, 1}, 2, Bytes(100, 0)), std::out_of_range);
  EXPECT_THROW(net.set_path(a.id(), ghost, PathConfig{.loss = 1.0}), std::out_of_range);
  EXPECT_THROW((void)a.send(Endpoint{ghost, 1}, 2, Bytes(100, 0)), std::out_of_range);
  EXPECT_THROW(net.set_link_up(a.id(), ghost, false), std::out_of_range);
  EXPECT_THROW((void)a.send(Endpoint{ghost, 1}, 2, Bytes(100, 0)), std::out_of_range);
  EXPECT_EQ(a.nic_sent(), 0u);
  EXPECT_EQ(a.nic_queued_bytes(), 0u);
  EXPECT_EQ(a.nic_backlog_delay().ns(), 0);
  EXPECT_EQ(net.lost(), 0u);
  EXPECT_EQ(loop.next_seq(), seq);
  // A group member must be a host, so a multicast never meets one that
  // is not.
  const GroupId g = net.create_group();
  EXPECT_THROW(net.join_group(g, Endpoint{ghost, 1}), std::out_of_range);
  EXPECT_EQ(net.group_size(g), 0u);
  // The NIC is untouched: a real send still departs at once.
  int received = 0;
  b.bind(1, [&](const Datagram&) { ++received; });
  EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(100, 0)));
  loop.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(a.nic_sent(), 1u);
}

// Path, link and degrade setters take only host ids, so a mistyped id
// leaves no state behind for a host added later under that id.
TEST_F(NetworkTest, ConfiguringANonHostThrowsAndStoresNothing) {
  Host& a = net.add_host("a");
  const NodeId ghost = 3;
  const PathConfig cut{.loss = 1.0};
  EXPECT_THROW(net.set_path(a.id(), ghost, cut), std::out_of_range);
  EXPECT_THROW(net.push_path_override(ghost, a.id(), cut), std::out_of_range);
  EXPECT_THROW(net.set_link_up(a.id(), ghost, false), std::out_of_range);
  EXPECT_THROW(net.set_link_up_oneway(a.id(), ghost, false), std::out_of_range);
  EXPECT_THROW(net.push_host_degrade(ghost, 1.0), std::out_of_range);
  // A host that later takes the id finds the default model, not the
  // refused state: both directions are up and lossless.
  while (net.host_count() <= ghost) net.add_host("h" + std::to_string(net.host_count()));
  Host& g = net.host(ghost);
  EXPECT_TRUE(net.link_up_directed(a.id(), ghost));
  EXPECT_TRUE(net.link_up_directed(ghost, a.id()));
  EXPECT_EQ(net.path(a.id(), ghost).loss, 0.0);
  int at_a = 0;
  int at_g = 0;
  a.bind(1, [&](const Datagram&) { ++at_a; });
  g.bind(1, [&](const Datagram&) { ++at_g; });
  EXPECT_TRUE(a.send(Endpoint{ghost, 1}, 2, Bytes(100, 0)));
  EXPECT_TRUE(g.send(Endpoint{a.id(), 1}, 2, Bytes(100, 0)));
  loop.run();
  EXPECT_EQ(at_a, 1);
  EXPECT_EQ(at_g, 1);
  EXPECT_EQ(net.lost(), 0u);
  // The refused override spent no token.
  EXPECT_EQ(net.push_path_override(a.id(), ghost, cut), Network::OverrideToken{1});
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
  EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)));
  loop.run();
  EXPECT_EQ(received, 0);
  b.set_up(true);
  EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)));
  loop.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkTest, DefaultPathApplies) {
  net.set_default_path(PathConfig{.latency = duration_ms(50)});
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  SimTime arrival;
  b.bind(1, [&](const Datagram&) { arrival = loop.now(); });
  EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(1, 0)));
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
  for (int i = 0; i < n; ++i) (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));
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
      EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, w.take()));
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
    for (int i = 0; i < 100; ++i) (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0));
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
  for (int i = 0; i < 5; ++i) (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0));
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
  for (int i = 0; i < 5; ++i) (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0));
  loop.schedule_at(SimTime{duration_ms(1).ns()}, [&] { a.set_up(false); });
  loop.schedule_at(SimTime{duration_ms(50).ns()}, [&] {
    a.set_up(true);
    // The pre-crash queue was wiped, so this send serializes immediately
    // (8 ms) instead of behind 5 queued packets.
    EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(1000, 0)));
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
  EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)));
  EXPECT_TRUE(b.send(Endpoint{a.id(), 1}, 2, Bytes(10, 0)));
  loop.run();
  EXPECT_EQ(at_a, 0);
  EXPECT_EQ(at_b, 0);
  net.set_link_up(a.id(), b.id(), true);
  EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)));
  EXPECT_TRUE(b.send(Endpoint{a.id(), 1}, 2, Bytes(10, 0)));
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
                     [&] { (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
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
    EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)));
    EXPECT_TRUE(b.send(Endpoint{c.id(), 1}, 2, Bytes(10, 0)));  // same side: unaffected
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
                     [&] { (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
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
                     [&] { (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
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
                     [&] { (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
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
                     [&] { (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
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
    EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0), /*reliable=*/true));
    EXPECT_TRUE(b.send(Endpoint{a.id(), 1}, 2, Bytes(10, 0), /*reliable=*/true));
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
    // The NIC takes all three. The gray egress drops the first in flight;
    // the control segment survives, and b's traffic is unaffected.
    EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)));
    EXPECT_TRUE(a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0), /*reliable=*/true));
    EXPECT_TRUE(b.send(Endpoint{a.id(), 1}, 2, Bytes(10, 0)));
  });
  loop.schedule_at(SimTime{duration_ms(35).ns()},
                   [&] { (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
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
                     [&] { (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
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
                        [&] { (void)a.send(Endpoint{b.id(), 1}, 2, Bytes(10, 0)); });
    }
    loop2.run();
    return received;
  };
  int first = run_once(99);
  EXPECT_EQ(first, run_once(99));
  EXPECT_LT(first, 200);  // the plan really dropped something
}

// ---------------------------------------------------------------------------
// Host port table: an open-addressing index from port to a never-moving
// handler slot. A handler may bind, unbind and rebind ports, its own
// included, while it runs; the ones below read their captures after
// doing so, which the sanitized build checks for use-after-free.
// ---------------------------------------------------------------------------

constexpr unsigned kEphemeralPorts = 65536 - 49152;

class HostPorts : public ::testing::Test {
 protected:
  /// Sends one datagram from `tx` to `dst` and runs it to delivery.
  void deliver(Endpoint dst) {
    EXPECT_TRUE(tx.send(dst, 7, Bytes(4, 0)));
    loop.run();
  }

  EventLoop loop;
  Network net{loop, 5};
  Host& tx = net.add_host("tx");
  Host& rx = net.add_host("rx");
};

TEST_F(HostPorts, EphemeralWrapsInsideRange) {
  for (unsigned i = 0; i < kEphemeralPorts; ++i) {
    ASSERT_EQ(rx.bind_ephemeral([](const Datagram&) {}), 49152 + i);
  }
  rx.unbind(50000);
  EXPECT_EQ(rx.bind_ephemeral([](const Datagram&) {}), 50000);
  // The search goes on from 50001, reaches the top and wraps to 49152.
  rx.unbind(65535);
  rx.unbind(49152);
  EXPECT_EQ(rx.bind_ephemeral([](const Datagram&) {}), 65535);
  EXPECT_EQ(rx.bind_ephemeral([](const Datagram&) {}), 49152);
  EXPECT_FALSE(rx.is_bound(0));
}

TEST_F(HostPorts, EphemeralExhaustionThrows) {
  for (unsigned i = 0; i < kEphemeralPorts; ++i) rx.bind_ephemeral([](const Datagram&) {});
  EXPECT_THROW(rx.bind_ephemeral([](const Datagram&) {}), std::runtime_error);
  EXPECT_FALSE(rx.is_bound(0));
  // Fixed ports are outside the range and still free.
  rx.bind(5060, [](const Datagram&) {});
  rx.unbind(60000);
  EXPECT_EQ(rx.bind_ephemeral([](const Datagram&) {}), 60000);
}

TEST_F(HostPorts, HandlerBindsManyPortsWhileRunning) {
  const std::string tag(64, 'g');  // heap-allocated: ASan sees a moved or freed handler
  int hits = 0;
  std::string seen;
  rx.bind(9, [&, tag](const Datagram& d) {
    for (std::uint16_t p = 1000; p < 2000; ++p) rx.bind(p, [&](const Datagram&) { ++hits; });
    seen = tag + to_string(d.payload);
  });
  EXPECT_TRUE(tx.send(Endpoint{rx.id(), 9}, 7, to_bytes("!")));
  loop.run();
  EXPECT_EQ(seen, tag + "!");
  for (std::uint16_t p = 1000; p < 2000; ++p) ASSERT_TRUE(rx.is_bound(p)) << p;
  deliver(Endpoint{rx.id(), 1000});
  deliver(Endpoint{rx.id(), 1999});
  EXPECT_EQ(hits, 2);
}

TEST_F(HostPorts, HandlerUnbindsItsOwnPort) {
  const std::string tag(64, 'u');
  std::string seen;
  int replaced = 0;
  rx.bind(9, [&, tag](const Datagram&) {
    rx.unbind(9);
    // Its slot is freed only after this call returns, so binding again
    // here cannot land on it.
    rx.bind(10, [&](const Datagram&) { ++replaced; });
    seen = tag;
  });
  deliver(Endpoint{rx.id(), 9});
  EXPECT_EQ(seen, tag);
  EXPECT_FALSE(rx.is_bound(9));
  deliver(Endpoint{rx.id(), 9});  // dropped: nothing bound there any more
  deliver(Endpoint{rx.id(), 10});
  // Port 9's slot is free again, and the next bind may take it.
  int reused = 0;
  rx.bind(11, [&](const Datagram&) { ++reused; });
  deliver(Endpoint{rx.id(), 11});
  EXPECT_EQ(replaced, 1);
  EXPECT_EQ(reused, 1);
}

TEST_F(HostPorts, RebindReplacesALiveHandler) {
  std::vector<char> log;
  rx.bind(9, [&](const Datagram&) { log.push_back('a'); });
  rx.rebind(9, [&](const Datagram&) { log.push_back('b'); });
  deliver(Endpoint{rx.id(), 9});
  // A handler replacing itself finishes its own call first.
  const std::string tag(64, 'r');
  rx.rebind(9, [&, tag](const Datagram&) {
    rx.rebind(9, [&](const Datagram&) { log.push_back('d'); });
    log.push_back(tag.back());
  });
  deliver(Endpoint{rx.id(), 9});
  deliver(Endpoint{rx.id(), 9});
  EXPECT_EQ(std::string(log.begin(), log.end()), "brd");
  EXPECT_THROW(rx.rebind(10, [](const Datagram&) {}), std::logic_error);
  EXPECT_FALSE(rx.is_bound(10));
}

TEST_F(HostPorts, DeliveryToAnUnboundPortIsDropped) {
  int hits = 0;
  // Enough neighbours that the unbound port's probe runs through entries.
  for (std::uint16_t p = 100; p < 200; ++p) rx.bind(p, [&](const Datagram&) { ++hits; });
  rx.bind(300, nullptr);  // bound without a handler: also dropped
  const std::uint16_t unbound[] = {99, 200, 300, 65535, 0};
  for (std::uint16_t p : unbound) deliver(Endpoint{rx.id(), p});
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(net.delivered(), 5u);
}

// Random bind / bind_ephemeral / unbind / rebind / deliver scripts against
// a std::map reference, including handlers that change the table while
// they run. Ports come mostly from a narrow band, so probe chains collide
// and the backward-shift erase moves entries; the table rehashes as the
// live count climbs and falls.
TEST(HostPortsProperty, MatchesMapReference) {
  constexpr int kOps = 400;
  int self_unbinds = 0;
  int self_rebinds = 0;
  int nested_binds = 0;
  std::size_t peak_live = 0;
  const prop::Cases cases = prop::for_each_seed(150, [&](std::uint64_t seed) {
    Rng rng(seed);
    EventLoop loop;
    Network net(loop, seed);
    Host& tx = net.add_host("tx");
    Host& rx = net.add_host("rx");
    std::map<std::uint16_t, int> ref;  // port -> handler token
    std::uint16_t ref_next_ephemeral = 49152;
    int next_token = 1;
    std::vector<std::pair<std::uint16_t, int>> runs;  // (port, token) per call
    // What the next running handler does to the table: 0 nothing, 1 unbind
    // its own port, 2 rebind it, 3 bind a few fresh ports.
    int action = 0;

    const auto random_port = [&]() -> std::uint16_t {
      if (rng.chance(0.7)) return static_cast<std::uint16_t>(rng.uniform_int(0, 95));
      return static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    };
    std::function<Host::Handler(int)> make_handler;
    make_handler = [&](int token) -> Host::Handler {
      const std::string tag(40, static_cast<char>('a' + token % 26));
      return [&, token, tag](const Datagram& d) {
        const std::uint16_t port = d.dst.port;
        const int act = std::exchange(action, 0);
        if (act == 1) {
          rx.unbind(port);
          ref.erase(port);
          ++self_unbinds;
        } else if (act == 2) {
          const int t = next_token++;
          rx.rebind(port, make_handler(t));
          ref[port] = t;
          ++self_rebinds;
        } else if (act == 3) {
          for (int k = 0; k < 5; ++k) {
            const std::uint16_t p = random_port();
            if (ref.contains(p)) continue;
            const int t = next_token++;
            rx.bind(p, make_handler(t));
            ref[p] = t;
            ++nested_binds;
          }
        }
        // Read the captures after the table changed under this call.
        ASSERT_EQ(tag, std::string(40, static_cast<char>('a' + token % 26)));
        runs.emplace_back(port, token);
      };
    };

    for (int op = 0; op < kOps; ++op) {
      const double r = rng.uniform();
      if (r < 0.30) {
        const std::uint16_t p = random_port();
        const int t = next_token++;
        if (ref.contains(p)) {
          ASSERT_THROW(rx.bind(p, make_handler(t)), std::logic_error);
        } else {
          rx.bind(p, make_handler(t));
          ref[p] = t;
        }
      } else if (r < 0.38) {
        const auto after = [](std::uint16_t p) {
          return p == 65535 ? std::uint16_t{49152} : static_cast<std::uint16_t>(p + 1);
        };
        std::uint16_t want = ref_next_ephemeral;
        while (ref.contains(want)) want = after(want);
        ref_next_ephemeral = after(want);
        const int t = next_token++;
        ASSERT_EQ(rx.bind_ephemeral(make_handler(t)), want);
        ref[want] = t;
      } else if (r < 0.60) {
        // Unbind a live port most of the time, a free one sometimes.
        std::uint16_t p = random_port();
        if (!ref.empty() && rng.chance(0.8)) {
          auto it = ref.begin();
          std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1));
          p = it->first;
        }
        rx.unbind(p);
        ref.erase(p);
      } else if (r < 0.68) {
        const std::uint16_t p = random_port();
        const int t = next_token++;
        if (ref.contains(p)) {
          rx.rebind(p, make_handler(t));
          ref[p] = t;
        } else {
          ASSERT_THROW(rx.rebind(p, make_handler(t)), std::logic_error);
        }
      } else {
        std::uint16_t p = random_port();
        if (!ref.empty() && rng.chance(0.7)) {
          auto it = ref.begin();
          std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1));
          p = it->first;
        }
        const auto bound = ref.find(p);
        const int expect = bound == ref.end() ? 0 : bound->second;
        if (expect != 0) action = static_cast<int>(rng.uniform_int(0, 3));
        runs.clear();
        EXPECT_TRUE(tx.send(Endpoint{rx.id(), p}, 1, Bytes(2, 0)));
        loop.run();
        action = 0;
        if (expect == 0) {
          ASSERT_TRUE(runs.empty()) << "port " << p;
        } else {
          ASSERT_EQ(runs.size(), 1u) << "port " << p;
          ASSERT_EQ(runs[0], std::make_pair(p, expect));
        }
      }
      peak_live = std::max(peak_live, ref.size());
      const std::uint16_t probe = random_port();
      ASSERT_EQ(rx.is_bound(probe), ref.contains(probe)) << "op " << op;
    }
    for (std::uint32_t p = 0; p < 65536; ++p) {
      const auto port = static_cast<std::uint16_t>(p);
      ASSERT_EQ(rx.is_bound(port), ref.contains(port)) << "port " << port;
    }
  });
  // The generator reaches the corners the property is about.
  cases.expect_more(self_unbinds, 300, "self_unbinds");
  cases.expect_more(self_rebinds, 300, "self_rebinds");
  cases.expect_more(nested_binds, 300, "nested_binds");
  if (cases.scale != 0) {
    EXPECT_GT(peak_live, 64u);
  }
}

}  // namespace
}  // namespace gmmcs::sim
