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
  ++live_;
  heap_.push_back(Entry{when, seq, slot});
  sift_up(heap_.size() - 1);
  return make_id(slot, seq);
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
  // they outnumber live ones (PeriodicTask-heavy fabrics churn cancels
  // every heartbeat), rebuild the heap from the live entries. A sorted
  // array is a valid heap of any arity.
  constexpr std::size_t kCompactMin = 64;
  if (heap_.size() < kCompactMin || heap_.size() <= 2 * live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::sort(heap_.begin(), heap_.end());
}

void EventLoop::pop_top() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Floyd's pop: walk the root's hole down to a leaf along the smallest
  // children, then sift the former last entry up from there. It is
  // usually among the latest, so it rarely climbs, and the descent skips
  // a comparison per level.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + kArity <= n) {
      const std::size_t a = heap_[first + 1] < heap_[first] ? first + 1 : first;
      const std::size_t b = heap_[first + 3] < heap_[first + 2] ? first + 3 : first + 2;
      best = heap_[b] < heap_[a] ? b : a;
    } else {
      for (std::size_t c = first + 1; c < n; ++c) best = heap_[c] < heap_[best] ? c : best;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  sift_up(i);
}

EventLoop::CbSlot* EventLoop::live_top() {
  while (!heap_.empty()) {
    CbSlot& s = slots_[heap_.front().slot];
    if (s.seq == heap_.front().seq) return &s;
    pop_top();
  }
  return nullptr;
}

void EventLoop::run_top(CbSlot& s) {
  const Entry e = heap_.front();
  pop_top();
  s.seq = 0;  // no longer pending: cancelling its own id is a no-op
  --live_;

  now_ = e.when;
  current_seq_ = e.seq;
  ++executed_;
  if (trace_) trace_(e.when, e.seq);
  // In place: the slot stays off the free list until the callback has
  // returned, so what it schedules lands in other slots, and the pool
  // never moves this one.
  s.cb();
  s.cb.reset();
  slots_.release(e.slot);
}

bool EventLoop::step() {
  CbSlot* s = live_top();
  if (s == nullptr) return false;
  run_top(*s);
  return true;
}

void EventLoop::run() {
  while (CbSlot* s = live_top()) run_top(*s);
  current_seq_ = next_seq_ - 1;
}

void EventLoop::run_until(SimTime deadline) {
  for (CbSlot* s = live_top(); s != nullptr && heap_.front().when <= deadline; s = live_top()) {
    run_top(*s);
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
