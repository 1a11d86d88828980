// Discrete-event simulation core.
//
// A single EventLoop instance drives an entire Global-MMCS deployment:
// every host, broker, gateway and media client schedules callbacks on it.
// Events run one at a time on the calling thread; events at equal times
// run in scheduling order (a monotonic sequence number breaks ties), which
// keeps runs fully deterministic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/small_fn.hpp"
#include "common/time.hpp"
#include "sim/slot_pool.hpp"

namespace gmmcs::sim {

/// Handle for cancelling a scheduled event.
using TaskId = std::uint64_t;

class EventLoop {
 public:
  /// Scheduled-event callback: a SmallFn (64-byte inline buffer, move-only
  /// captures allowed). schedule_at() builds the callable straight into
  /// its parked slot and step() runs it there, so an event relocates no
  /// callable. Captures over 64 bytes still spill to the heap, so hot-path
  /// schedulers (Network arrivals, ServiceCenter completions) park their
  /// own state in a SlotPool and capture only {this, slot}.
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
    const std::uint32_t slot = slots_.acquire();
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
    return enqueue(when, slot, s);
  }
  /// Schedules a callable after a relative delay (a negative one counts as 0).
  template <class F>
  TaskId schedule_after(SimDuration delay, F&& fn) {
    return schedule_at(now_ + std::max(delay, SimDuration{0}), std::forward<F>(fn));
  }
  /// Cancels a pending event; cancelling an already-run, running or
  /// unknown id is a no-op.
  void cancel(TaskId id);

  /// Sequence number the next schedule_at() will assign. Sequence numbers
  /// start at 1 and order same-time events.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  /// Sequence number of the event executing now (or of the last one run):
  /// every event at now() with a sequence number up to this one has run.
  /// Once run()/run_until() has drained now(), this is next_seq() - 1.
  /// With next_seq() these let a model keep a lazy "event" — the NIC's
  /// queue release — that a query resolves exactly as if it had been
  /// scheduled: a release marked with next_seq() at time T has happened
  /// iff T < now(), or T == now() and the mark is <= current_seq().
  [[nodiscard]] std::uint64_t current_seq() const { return current_seq_; }

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

  [[nodiscard]] std::size_t pending() const { return live_; }
  /// Total events executed since construction (useful in tests).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  /// Heap entries currently held, including stale ones left by cancel();
  /// compaction keeps this within 2x of pending().
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

 private:
  /// A 24-byte heap entry. The callback lives in slots_[slot]; the entry
  /// is live iff that slot still serves `seq` (see is_live).
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
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
  static_assert(sizeof(Entry) == 24);

  /// Callback storage for one scheduled event. `seq` is the sequence
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

  /// Pushes the event parked in `slot` (`s`) onto the heap; returns its id.
  TaskId enqueue(SimTime when, std::uint32_t slot, CbSlot& s);
  /// True iff the heap entry's slot still serves it (not cancelled/run).
  [[nodiscard]] bool is_live(const Entry& e) const { return slots_[e.slot].seq == e.seq; }
  /// Drops stale (cancelled) heap entries once they outnumber live ones.
  void maybe_compact();
  /// Pops cancelled entries off the heap top; returns the live top's
  /// slot, or nullptr once the heap is empty.
  CbSlot* live_top();
  /// Pops the live top entry and runs its callback, `s`, in place.
  void run_top(CbSlot& s);
  void pop_top();
  void sift_up(std::size_t i);

  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Min-heap over (when, seq) with four children per node: half the
  /// depth of a binary heap, and a node's children share a cache line
  /// or two. (when, seq) is a strict total order, so the pop order is
  /// the sorted order whatever the heap's shape.
  std::vector<Entry> heap_;
  /// Parked callbacks; Entry::slot indexes it. Slots never move, so a
  /// callback is built and run in place, and a warm loop schedules
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
