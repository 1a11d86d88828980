// Discrete-event simulation core.
//
// A single EventLoop instance drives an entire Global-MMCS deployment:
// every host, broker, gateway and media client schedules callbacks on it.
// Events run one at a time on the calling thread; events at equal times
// run in scheduling order (a monotonic sequence number, taken at
// schedule_at or reserve_seq, breaks ties), which keeps runs fully
// deterministic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/small_fn.hpp"
#include "common/time.hpp"
#include "sim/slot_pool.hpp"

namespace gmmcs::sim {

/// Handle for cancelling a scheduled event.
using TaskId = std::uint64_t;

/// The handler of direct loop events: when an event scheduled on it
/// comes up, the loop calls fire(*target, arg). A hot-path model owns one
/// target for all its events (Network's link arrivals, a ServiceCenter's
/// job completions) and packs what identifies the event into `arg`, so
/// the event needs no parked callable. The owner must outlive every event
/// scheduled on its target and never move: the loop holds the target's
/// address.
struct EventTarget {
  void (*fire)(EventTarget& target, std::uint64_t arg);
};

class EventLoop {
 public:
  /// A scheduled callable: a SmallFn (64-byte inline buffer, move-only
  /// captures allowed). schedule_at() builds it straight into a parked
  /// slot and the loop runs it there, so an event relocates no callable.
  /// Captures over 64 bytes still spill to the heap. Parking costs a slot
  /// and a call and destroy through a vtable; hot-path models schedule
  /// direct events on an EventTarget instead, which need neither.
  using Callback = SmallFn;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules a callable (a lambda, or a Callback) at an absolute time;
  /// a time before now() is clamped to now().
  template <class F>
  TaskId schedule_at(SimTime when, F&& fn) {
    std::uint32_t slot = 0;
    CbSlot& s = park(std::forward<F>(fn), slot);
    return enqueue(when, slot, s);
  }
  /// Schedules a direct event at an absolute time (clamped to now()),
  /// under the next seq as a callable would be: target.fire(target, arg)
  /// runs then. A direct event cannot be cancelled.
  void schedule_at(SimTime when, EventTarget& target, std::uint64_t arg) {
    push(std::max(when, now_), next_seq_++, &target, arg);
  }
  /// Takes the sequence number the next schedule_at() would have taken,
  /// without scheduling anything: the caller keeps the key (when, seq)
  /// and schedules it later with schedule_reserved(). The event then runs
  /// exactly where a schedule_at() at the reservation would have put it.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }
  /// Schedules a direct event under a key whose seq came from
  /// reserve_seq() and was not scheduled before. The key must not have
  /// passed (see passed()); throws std::logic_error otherwise (or for a
  /// seq never reserved).
  void schedule_reserved(SimTime when, std::uint64_t seq, EventTarget& target,
                         std::uint64_t arg) {
    if (seq >= next_seq_ || passed(when, seq)) {
      throw std::logic_error("EventLoop: reserved key already passed or never reserved");
    }
    push(when, seq, &target, arg);
  }
  /// Schedules a callable after a relative delay (a negative one counts as 0).
  template <class F>
  TaskId schedule_after(SimDuration delay, F&& fn) {
    return schedule_at(now_ + std::max(delay, SimDuration{0}), std::forward<F>(fn));
  }
  /// Cancels a pending callable; cancelling an already-run, running or
  /// unknown id is a no-op.
  void cancel(TaskId id);

  /// Sequence number the next schedule_at() or reserve_seq() will take.
  /// Sequence numbers start at 1 and order same-time events.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  /// Sequence number of the event executing now (or of the last one run):
  /// every event at now() with a sequence number up to this one has run.
  /// Once run()/run_until() has drained now(), this is next_seq() - 1.
  [[nodiscard]] std::uint64_t current_seq() const { return current_seq_; }
  /// True once the loop is at or past the key (when, seq): an event
  /// under it has run or is running, and one scheduled under it now
  /// would run out of order. With next_seq() this lets a model keep a
  /// lazy "event" — the NIC's queue release, a link FIFO's last arrival —
  /// that a query resolves exactly as if it had been scheduled: a release
  /// marked with next_seq() at time T has happened iff passed(T, mark).
  [[nodiscard]] bool passed(SimTime when, std::uint64_t seq) const {
    return when < now_ || (when == now_ && seq <= current_seq_);
  }

  /// Runs events until the queue is empty.
  void run();
  /// Runs events with time <= deadline; afterwards now() == deadline.
  void run_until(SimTime deadline);
  /// Runs for the given simulated duration from the current time.
  void run_for(SimDuration d) { run_until(now_ + d); }
  /// Executes at most one event; returns false if the queue was empty.
  bool step();

  /// Execution-trace hook, called once per executed event as (when, seq)
  /// in execution order.
  void set_trace(std::function<void(SimTime, std::uint64_t)> fn) { trace_ = std::move(fn); }

  /// Events scheduled and not yet run or cancelled. A reserved key is
  /// not an event until schedule_reserved() schedules it, so a datagram
  /// waiting in Network's link FIFO behind its link's head arrival does
  /// not count: only the head is a loop event.
  [[nodiscard]] std::size_t pending() const { return live_; }
  /// Total events executed since construction (useful in tests).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  /// Heap entries currently held, including stale ones left by cancel();
  /// compaction keeps this within 2x of pending().
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

 private:
  /// A 32-byte heap entry: run target->fire(*target, arg) at (when, seq).
  /// A parked callable's entry names the loop's own parked_ target with
  /// its slot as `arg`; run_next runs it inline, and the entry is live iff
  /// that slot still serves `seq` (see is_live). A direct event is always
  /// live: it cannot be cancelled.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    EventTarget* target;
    std::uint64_t arg;
    /// (when, seq) is a strict total order: no two events share a seq.
    /// Compared as one 128-bit key (`when` is never negative: it is
    /// clamped to now() >= 0), so a heap sift's coin-flip comparisons
    /// compile to a borrow and a conditional move, not to branches.
    friend bool operator<(const Entry& a, const Entry& b) { return key(a) < key(b); }
    static unsigned __int128 key(const Entry& e) {
      return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.when.ns())) << 64) |
             e.seq;
    }
  };
  static_assert(sizeof(Entry) == 32);

  /// Callback storage for one scheduled callable. `seq` is the sequence
  /// number of the event the slot serves, 0 once it has started running
  /// or was cancelled. A slot is released only after its callback has
  /// returned, so a running callback is never overwritten or moved.
  struct CbSlot {
    Callback cb;
    std::uint64_t seq = 0;
  };

  /// TaskIds encode their slot (slot+1 in the high 32 bits, the low 32
  /// bits of the event's seq in the low 32), so cancel() rebuilds the id
  /// of the event a slot serves and needs no lookup structure. A stale
  /// cancel can only mis-hit a recycled slot if the event it names and
  /// the slot's current one are 2^32 schedules apart, which no simulated
  /// workload reaches.
  static TaskId make_id(std::uint32_t slot, std::uint64_t seq) {
    return ((TaskId{slot} + 1) << 32) | (seq & 0xFFFF'FFFFu);
  }

  /// Builds the callable into a fresh slot; returns it and its index.
  template <class F>
  CbSlot& park(F&& fn, std::uint32_t& slot) {
    slot = slots_.acquire();
    CbSlot& s = slots_[slot];
    try {
      if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
        s.cb = std::forward<F>(fn);
      } else {
        s.cb.emplace(std::forward<F>(fn));
      }
    } catch (...) {
      slots_.release(slot);
      throw;
    }
    return s;
  }
  /// Schedules the callable parked in `slot` (`s`) at `when` (clamped to
  /// now()) under the next seq; returns its id.
  TaskId enqueue(SimTime when, std::uint32_t slot, CbSlot& s);
  /// Pushes the event (when, seq) -> target(arg) onto the heap.
  void push(SimTime when, std::uint64_t seq, EventTarget* target, std::uint64_t arg);
  /// True iff the heap entry is a direct event or its slot still serves
  /// it (not cancelled/run).
  [[nodiscard]] bool is_live(const Entry& e) const {
    return e.target != &parked_ || slots_[static_cast<std::uint32_t>(e.arg)].seq == e.seq;
  }
  /// Drops stale (cancelled) heap entries once they outnumber live ones.
  void maybe_compact();
  /// Pops the running event's spent entry (a nested step) and cancelled
  /// entries off the heap top, then runs the live top event if it is due
  /// by `deadline`, and pops its entry unless a push during the event
  /// took its place; false if none ran.
  bool run_next(SimTime deadline);
  void pop_top();
  /// Places a newly scheduled `e` in the hole at the root of heap_.
  void fill_root(const Entry& e);
  /// Places the heap's former last entry `e` in the hole at the root.
  void sink_from_root(const Entry& e);
  /// Index of node i's smallest child in a heap of n entries; 0 if it
  /// has none.
  [[nodiscard]] std::size_t smallest_child(std::size_t i, std::size_t n) const;
  void sift_up(std::size_t i);

  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Min-heap over (when, seq) with four children per node: half the
  /// depth of a binary heap, and a node's children fill two cache lines.
  /// (when, seq) is a strict total order, so the pop order is the sorted
  /// order whatever the heap's shape.
  std::vector<Entry> heap_;
  /// True while the root is the running event's spent entry, a hole the
  /// next push fills. Cleared by that push, by a pop of the root and by
  /// compaction, which drops the entry as not live.
  bool hole_ = false;
  /// The target of parked callables' entries. Its fire is never called:
  /// run_next recognises the address and runs the slot inline.
  EventTarget parked_{nullptr};
  /// Parked callbacks; a parked entry's arg indexes it. Slots never move,
  /// so a callback is built and run in place, and a warm loop schedules
  /// without allocating.
  SlotPool<CbSlot> slots_;
  std::size_t live_ = 0;
  std::function<void(SimTime, std::uint64_t)> trace_;
};

/// Repeatedly invokes a callback at a fixed period until stopped.
/// The callback receives the tick index (0, 1, 2, ...).
class PeriodicTask {
 public:
  PeriodicTask(EventLoop& loop, SimDuration period, std::function<void(std::uint64_t)> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  /// Starts with an initial phase offset before the first tick.
  void start_after(SimDuration initial_delay);
  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm(SimDuration delay);

  EventLoop& loop_;
  SimDuration period_;
  std::function<void(std::uint64_t)> fn_;
  std::uint64_t tick_ = 0;
  TaskId pending_ = 0;
  bool running_ = false;
};

}  // namespace gmmcs::sim
