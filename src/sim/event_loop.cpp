#include "sim/event_loop.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmmcs::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

TaskId EventLoop::enqueue(SimTime when, std::uint32_t slot, CbSlot& s) {
  if (when < now_) when = now_;  // never schedule into the past
  const std::uint64_t seq = next_seq_++;
  s.seq = seq;
  push(when, seq, &parked_, slot);
  return make_id(slot, seq);
}

void EventLoop::push(SimTime when, std::uint64_t seq, EventTarget* target, std::uint64_t arg) {
  ++live_;
  const Entry e{when, seq, target, arg};
  if (hole_) {
    // The running event's entry still holds the root: the first event it
    // schedules takes that place, a pop and a push in one descent.
    hole_ = false;
    fill_root(e);
  } else {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }
}

void EventLoop::cancel(TaskId id) {
  const TaskId hi = id >> 32;
  if (hi == 0 || hi > slots_.size()) return;  // id 0 or never minted
  const auto slot = static_cast<std::uint32_t>(hi - 1);
  CbSlot& s = slots_[slot];
  // Already run, running or cancelled, or the slot serves a newer event.
  if (s.seq == 0 || make_id(slot, s.seq) != id) return;
  s.cb.reset();  // destroy captured state eagerly
  s.seq = 0;
  slots_.release(slot);
  --live_;
  maybe_compact();
  // The heap entry stays (unless compacted); execution skips entries whose
  // slot no longer serves them.
}

void EventLoop::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(e < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventLoop::maybe_compact() {
  // Lazy compaction: cancelled ids leave dead Entry records behind; once
  // they outnumber live ones (timer-heavy fabrics cancel an idle
  // detector's tick on every close), rebuild the heap from the live entries. A sorted
  // array is a valid heap of any arity.
  constexpr std::size_t kCompactMin = 64;
  if (heap_.size() < kCompactMin || heap_.size() <= 2 * live_) return;
  if (hole_) {
    // The running event's spent entry goes too: a direct event's entry
    // would otherwise look live and run again.
    heap_.front() = heap_.back();
    heap_.pop_back();
    hole_ = false;
  }
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::sort(heap_.begin(), heap_.end());
}

void EventLoop::pop_top() {
  hole_ = false;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sink_from_root(last);
}

void EventLoop::fill_root(const Entry& e) {
  // A plain sift-down that stops at the first level where `e` is smaller
  // than the smallest child. What the running event schedules is usually
  // soon (a link arrival, a completion), so it settles within a level or
  // two of the root, above the periodic timers parked further out; a walk
  // to a leaf would move every entry on the way and climb back.
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t best = smallest_child(i, n);
    if (best == 0 || e < heap_[best]) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

std::size_t EventLoop::smallest_child(std::size_t i, std::size_t n) const {
  const std::size_t first = i * kArity + 1;
  if (first >= n) return 0;
  if (first + kArity <= n) {
    const std::size_t a = heap_[first + 1] < heap_[first] ? first + 1 : first;
    const std::size_t b = heap_[first + 3] < heap_[first + 2] ? first + 3 : first + 2;
    return heap_[b] < heap_[a] ? b : a;
  }
  std::size_t best = first;
  for (std::size_t c = first + 1; c < n; ++c) best = heap_[c] < heap_[best] ? c : best;
  return best;
}

void EventLoop::sink_from_root(const Entry& e) {
  // Floyd's descent, for a pop: `e` is the heap's last entry, a leaf's,
  // so it belongs near the bottom. Walk the root's hole down to a leaf
  // along the smallest children, then sift `e` up from there; it rarely
  // climbs, and the descent skips the comparison with `e` at every level.
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (std::size_t best = smallest_child(i, n); best != 0; best = smallest_child(i, n)) {
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
  sift_up(i);
}

bool EventLoop::run_next(SimTime deadline) {
  // A step() nested in a running event first pops that event's spent
  // entry: a direct event's entry cannot be told from a pending one.
  if (hole_) pop_top();
  for (;;) {
    if (heap_.empty()) return false;
    const Entry e = heap_.front();
    CbSlot* parked = nullptr;
    if (e.target == &parked_) {
      parked = &slots_[static_cast<std::uint32_t>(e.arg)];
      if (parked->seq != e.seq) {  // cancelled
        pop_top();
        continue;
      }
    }
    if (e.when > deadline) return false;
    // The entry stays at the root while the event runs: the first push
    // takes its place (see push), and if nothing does it is popped below.
    hole_ = true;
    --live_;
    now_ = e.when;
    current_seq_ = e.seq;
    ++executed_;
    if (trace_) trace_(e.when, e.seq);
    if (parked == nullptr) {
      e.target->fire(*e.target, e.arg);
    } else {
      parked->seq = 0;  // no longer pending: cancelling its own id is a no-op
      // In place: the slot stays off the free list until the callback has
      // returned, so what it schedules lands in other slots, and the pool
      // never moves this one.
      parked->cb();
      parked->cb.reset();
      slots_.release(static_cast<std::uint32_t>(e.arg));
    }
    if (hole_) pop_top();
    return true;
  }
}

bool EventLoop::step() {
  return run_next(SimTime::infinity());
}

void EventLoop::run() {
  while (run_next(SimTime::infinity())) {
  }
  current_seq_ = next_seq_ - 1;
}

void EventLoop::run_until(SimTime deadline) {
  while (run_next(deadline)) {
  }
  if (now_ <= deadline) {
    // Every event at or before the deadline has run.
    now_ = deadline;
    current_seq_ = next_seq_ - 1;
  }
}

PeriodicTask::PeriodicTask(EventLoop& loop, SimDuration period,
                           std::function<void(std::uint64_t)> fn)
    : loop_(loop), period_(period), fn_(std::move(fn)) {
  if (period_ <= SimDuration{0}) {
    throw std::invalid_argument("PeriodicTask: period must be positive");
  }
}

PeriodicTask::~PeriodicTask() {
  stop();
}

void PeriodicTask::start() {
  start_after(period_);
}

void PeriodicTask::start_after(SimDuration initial_delay) {
  if (running_) return;
  running_ = true;
  arm(initial_delay);
}

void PeriodicTask::arm(SimDuration delay) {
  pending_ = loop_.schedule_after(delay, [this] {
    if (!running_) return;
    std::uint64_t t = tick_++;
    arm(period_);
    fn_(t);
  });
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  loop_.cancel(pending_);
}

}  // namespace gmmcs::sim
