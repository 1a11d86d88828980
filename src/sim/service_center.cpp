#include "sim/service_center.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace gmmcs::sim {

ServiceCenter::ServiceCenter(EventLoop& loop, int servers, std::size_t queue_limit)
    : loop_(loop), servers_(servers), queue_limit_(queue_limit) {
  if (servers <= 0) throw std::invalid_argument("ServiceCenter: need at least one server");
}

bool ServiceCenter::submit(SimDuration service_time, SmallFn done) {
  const bool idle_server = busy_ < servers_;
  if (!idle_server && queue_limit_ != 0 && queue_length() >= queue_limit_) {
    ++rejected_;
    return false;
  }
  const Job job{loop_.now(), service_time, park(std::move(done)), nullptr};
  if (idle_server) {
    start(job);
  } else {
    queue_.push_back(job);
    ++queued_logical_;
  }
  return true;
}

std::uint32_t ServiceCenter::park(SmallFn done) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    inflight_[slot] = std::move(done);
    return slot;
  }
  inflight_.push_back(std::move(done));
  return static_cast<std::uint32_t>(inflight_.size() - 1);
}

std::size_t ServiceCenter::submit_batch(std::size_t n, const BatchParams& params,
                                        std::function<void(std::size_t)> done) {
  if (n == 0) return 0;
  // Admission as if submitted one at a time: free servers take jobs
  // regardless of the limit, the rest queue until the limit fills.
  const std::size_t free_servers =
      busy_ < servers_ ? static_cast<std::size_t>(servers_ - busy_) : 0;
  std::size_t accepted = n;
  if (queue_limit_ != 0) {
    const std::size_t room = queue_limit_ > queued_logical_ ? queue_limit_ - queued_logical_ : 0;
    accepted = std::min(n, free_servers + room);
  }
  rejected_ += n - accepted;
  if (accepted == 0) return 0;
  auto b = std::make_shared<BatchCtrl>(
      BatchCtrl{params, accepted, 0, std::move(done)});

  if (busy_ != 0) {
    // Servers occupied: ride the FIFO queue as one Job; drain() peels
    // items into servers as they free up, interleaved FIFO with any
    // classic submissions around it.
    queue_.push_back(Job{loop_.now(), params.service, 0, std::move(b)});
    queued_logical_ += accepted;
    drain();
    return accepted;
  }

  // Fast path: every server idle (the queue is then empty by drain()'s
  // invariant), which is the steady state of broker fan-out — one batch
  // per published event, usually finished before the next event arrives.
  // Expand the whole batch arithmetically: item i runs on server i % s,
  // whose ladder time f[s] is exactly when peeling would have started it,
  // so completion times match the queue path while touching the queue not
  // at all and scheduling exactly one event per item.
  const SimTime now = loop_.now();
  const std::size_t s = std::min(accepted, static_cast<std::size_t>(servers_));
  busy_ = static_cast<int>(s);
  if (accepted > s) queued_logical_ += accepted - s;
  ladder_.assign(s, now);
  for (std::size_t i = 0; i < accepted; ++i) {
    const std::size_t j = i % s;
    total_wait_ += ladder_[j] - now;
    const SimTime c = gate_completion(ladder_[j] + params.service, params);
    ladder_[j] = c;
    // Item i's completion is the moment its server picks up item i+s (the
    // ladder already accounts for that); only a server's *last* item
    // releases it. {this, b, i, release} = 33 bytes, inside SmallFn.
    const bool release = i + s >= accepted;
    loop_.schedule_at(c, [this, b, i, release] {
      if (i + static_cast<std::size_t>(servers_) < b->accepted) --queued_logical_;
      if (release) --busy_;
      ++completed_;
      if (b->done) b->done(i);
      if (release) drain();
    });
  }
  return accepted;
}

SimTime ServiceCenter::gate_completion(SimTime cpu_done, const BatchParams& p) {
  if (p.wire_bytes == 0 || p.nic_bps <= 0 || p.nic_cap == 0) return cpu_done;
  const double rate = p.nic_bps / 8e9;  // bytes per simulated ns
  const double wire = static_cast<double>(p.wire_bytes);
  // Admit once the virtual queue (backlog drains at `rate`) has headroom
  // for this copy plus the slack target.
  const double headroom_ns =
      (static_cast<double>(p.nic_cap) - static_cast<double>(p.nic_slack) - wire) / rate;
  double c = static_cast<double>(cpu_done.ns());
  c = std::max(c, nic_free_v_ - headroom_ns);
  nic_free_v_ = std::max(nic_free_v_, c) + wire / rate;
  return SimTime{static_cast<std::int64_t>(std::llround(c))};
}

void ServiceCenter::start(const Job& job) {
  ++busy_;
  total_wait_ += loop_.now() - job.enqueued;
  // The completion captures {this, slot}; the callable itself stays in
  // inflight_[slot] (inline in its SmallFn for captures up to 64 bytes).
  loop_.schedule_after(job.service, [this, slot = job.slot] {
    SmallFn done = std::move(inflight_[slot]);
    free_slots_.push_back(slot);  // safe: `done` reentering submit() sees a free slot
    --busy_;
    ++completed_;
    if (done) done();
    drain();
  });
}

void ServiceCenter::drain() {
  while (busy_ < servers_ && q_head_ < queue_.size()) {
    Job& front = queue_[q_head_];
    if (front.batch) {
      // Peel one batch item into the free server; the Job stays at the
      // queue front until its last item has started.
      std::shared_ptr<BatchCtrl> b = front.batch;
      const std::size_t i = b->next++;
      const SimTime enqueued = front.enqueued;
      if (b->next == b->accepted) advance_head();
      --queued_logical_;
      ++busy_;
      total_wait_ += loop_.now() - enqueued;
      const SimTime c = gate_completion(loop_.now() + b->params.service, b->params);
      loop_.schedule_at(c, [this, b, i] {
        --busy_;
        ++completed_;
        if (b->done) b->done(i);
        drain();
      });
      continue;
    }
    const Job job = std::move(front);
    advance_head();
    --queued_logical_;
    start(job);
  }
}

void ServiceCenter::advance_head() {
  ++q_head_;
  if (q_head_ == queue_.size()) {
    // Drained empty: reset in place, keeping the vector's capacity.
    queue_.clear();
    q_head_ = 0;
  } else if (q_head_ >= 64 && q_head_ * 2 >= queue_.size()) {
    // Sustained backlog: trim the consumed prefix so the vector doesn't
    // grow without bound while the queue never fully empties.
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(q_head_));
    q_head_ = 0;
  }
}

SimDuration ServiceCenter::mean_wait() const {
  std::uint64_t n = completed_ + static_cast<std::uint64_t>(busy_);
  if (n == 0) return SimDuration{0};
  return SimDuration{total_wait_.ns() / static_cast<std::int64_t>(n)};
}

}  // namespace gmmcs::sim
