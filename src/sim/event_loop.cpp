#include "sim/event_loop.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gmmcs::sim {

TaskId EventLoop::schedule_at(SimTime when, Callback cb) {
  if (when < now_) when = now_;  // never schedule into the past
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(cb_slots_.size());
    cb_slots_.emplace_back();
  }
  // Ids encode their slot (see cb_slots_), so cancel() needs no lookup;
  // slot+1 keeps the id nonzero.
  TaskId id = ((TaskId{slot} + 1) << 32) | next_serial_++;
  cb_slots_[slot].cb = std::move(cb);
  cb_slots_[slot].owner = id;
  ++live_;
  heap_.push_back(Entry{when, next_seq_++, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

TaskId EventLoop::schedule_after(SimDuration delay, Callback cb) {
  if (delay < SimDuration{0}) delay = SimDuration{0};
  return schedule_at(now_ + delay, std::move(cb));
}

void EventLoop::cancel(TaskId id) {
  TaskId hi = id >> 32;
  if (hi == 0 || hi > cb_slots_.size()) return;  // id 0 or never minted
  auto slot = static_cast<std::uint32_t>(hi - 1);
  CbSlot& s = cb_slots_[slot];
  if (s.owner != id) return;  // already run/cancelled, or slot recycled: no-op
  s.cb.reset();  // destroy captured state eagerly
  s.owner = 0;
  free_slots_.push_back(slot);
  --live_;
  maybe_compact();
  // The heap entry stays (unless compacted); execution skips entries whose
  // slot no longer names them.
}

void EventLoop::maybe_compact() {
  // Lazy compaction: cancelled ids leave dead Entry records behind; once
  // they outnumber live ones (PeriodicTask-heavy fabrics churn cancels
  // every heartbeat), rebuild the heap from the live entries in O(n).
  constexpr std::size_t kCompactMin = 64;
  if (heap_.size() < kCompactMin || heap_.size() <= 2 * live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

bool EventLoop::prune_stale_top() {
  while (!heap_.empty()) {
    if (is_live(heap_.front())) return true;
    pop_top();
  }
  return false;
}

bool EventLoop::step() {
  if (!prune_stale_top()) return false;
  Entry e = heap_.front();
  pop_top();
  CbSlot& s = cb_slots_[e.slot];
  Callback cb = std::move(s.cb);  // move disengages s.cb
  s.owner = 0;
  free_slots_.push_back(e.slot);
  --live_;

  now_ = e.when;
  current_seq_ = e.seq;
  ++executed_;
  if (trace_) trace_(e.when, e.seq);
  cb();
  return true;
}

void EventLoop::run() {
  while (step()) {
  }
  current_seq_ = next_seq_ - 1;
}

void EventLoop::run_until(SimTime deadline) {
  while (prune_stale_top()) {
    if (heap_.front().when > deadline) break;
    step();
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
