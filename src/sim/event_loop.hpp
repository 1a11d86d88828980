// Discrete-event simulation core.
//
// A single EventLoop instance drives an entire Global-MMCS deployment:
// every host, broker, gateway and media client schedules callbacks on it.
// Events run one at a time on the calling thread; events at equal times
// run in scheduling order (a monotonic sequence number breaks ties), which
// keeps runs fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/small_fn.hpp"
#include "common/time.hpp"

namespace gmmcs::sim {

/// Handle for cancelling a scheduled event.
using TaskId = std::uint64_t;

class EventLoop {
 public:
  /// Scheduled-event callback: a SmallFn (64-byte inline buffer, move-only
  /// captures allowed). Captures over 64 bytes still spill to the heap, so
  /// hot-path schedulers (Network arrivals, ServiceCenter completions)
  /// park their state in a slot table and capture only {this, slot}.
  using Callback = SmallFn;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules a callback at an absolute time (>= now).
  TaskId schedule_at(SimTime when, Callback cb);
  /// Schedules a callback after a relative delay (>= 0).
  TaskId schedule_after(SimDuration delay, Callback cb);
  /// Cancels a pending event; cancelling an already-run or unknown id is a no-op.
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
  /// Heap slots currently allocated, including stale entries left by
  /// cancel(); compaction keeps this within 2x of pending().
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    TaskId id;
    std::uint32_t slot;
    // Heap entries are copied around by push_heap/pop_heap; the callback
    // lives in cb_slots_[slot] (a recycled slot table, the ServiceCenter
    // technique) so entries stay trivially copyable and scheduling an
    // event allocates nothing once the table is warm.
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Callback storage for one scheduled event. `owner` is the TaskId the
  /// slot currently serves (0 = free); a heap Entry is live iff its slot
  /// still names it, which gives cancel() O(1) liveness without a map.
  struct CbSlot {
    Callback cb;
    TaskId owner = 0;
  };

  /// True iff the heap entry's slot still belongs to it (not cancelled/run).
  [[nodiscard]] bool is_live(const Entry& e) const {
    return cb_slots_[e.slot].owner == e.id;
  }
  /// Drops stale (cancelled) heap entries once they outnumber live ones.
  void maybe_compact();
  /// Pops cancelled entries off the heap top; false if the heap empties.
  bool prune_stale_top();
  void pop_top();

  SimTime now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Min-heap over (when, seq) maintained with std::push_heap/pop_heap so
  /// compaction can rebuild it in place after heavy cancel() churn.
  std::vector<Entry> heap_;
  /// Recycled callback storage; Entry::slot indexes it. Freed slots go on
  /// free_slots_ (LIFO, cache-warm) so steady-state scheduling never
  /// allocates. TaskIds encode their slot (slot+1 in the high 32 bits, a
  /// serial counter in the low 32), which makes cancel() a direct
  /// owner-check with no lookup structure at all. A stale cancel can only
  /// mis-hit a recycled slot if the low 32-bit serial wraps *and*
  /// collides — 2^32 mints between a cancel and its target's reuse, which
  /// no simulated workload reaches.
  std::vector<CbSlot> cb_slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint32_t next_serial_ = 1;
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
