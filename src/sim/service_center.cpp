#include "sim/service_center.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace gmmcs::sim {

ServiceCenter::ServiceCenter(EventLoop& loop, int servers, std::size_t queue_limit)
    : EventTarget{&ServiceCenter::fire_completion},
      loop_(loop),
      servers_(servers),
      queue_limit_(queue_limit) {
  if (servers <= 0) throw std::invalid_argument("ServiceCenter: need at least one server");
}

bool ServiceCenter::submit(SimDuration service_time, SmallFn done, const NicGate& gate) {
  const bool idle_server = busy_ < servers_;
  if (!idle_server && queue_limit_ != 0 && queue_length() >= queue_limit_) {
    ++rejected_;
    return false;
  }
  const Job job{loop_.now(), service_time, cost_of(gate), park(std::move(done))};
  if (idle_server) {
    start(job, kPlainJob);
  } else {
    queue_.push_back(job);
    ++queued_logical_;
  }
  return true;
}

std::uint32_t ServiceCenter::park(SmallFn done) {
  const std::uint32_t slot = inflight_.acquire();
  inflight_[slot] = std::move(done);
  return slot;
}

std::uint32_t ServiceCenter::park_batch(BatchFn done, std::size_t items) {
  const std::uint32_t slot = batches_.acquire();
  batches_[slot].done = std::move(done);
  batches_[slot].outstanding = items;
  return slot;
}

std::size_t ServiceCenter::submit_batch(std::size_t n, SimDuration service_time, BatchFn done,
                                        const NicGate& gate) {
  if (n >= kPlainJob) throw std::length_error("ServiceCenter: batch of 2^32 - 1 jobs or more");
  // Admission item by item, as n submit() calls decide it: free servers
  // take the leading items, the rest queue until the limit fills.
  const std::size_t free_servers =
      busy_ < servers_ ? static_cast<std::size_t>(servers_ - busy_) : 0;
  const std::size_t run = std::min(n, free_servers);
  std::size_t queued = n - run;
  if (queue_limit_ != 0) {
    queued = std::min(queued, queue_limit_ > queued_logical_ ? queue_limit_ - queued_logical_ : 0);
  }
  rejected_ += n - run - queued;
  const std::size_t accepted = run + queued;
  if (accepted == 0) return 0;
  Job job{loop_.now(), service_time, cost_of(gate), park_batch(std::move(done), accepted)};
  job.batch = true;
  job.end = static_cast<std::uint32_t>(accepted);
  for (; job.next < run; ++job.next) start(job, job.next);
  if (queued > 0) {
    queue_.push_back(job);
    queued_logical_ += queued;
  }
  return accepted;
}

ServiceCenter::GateCost ServiceCenter::cost_of(const NicGate& gate) {
  if (gate.wire_bytes == 0 || gate.nic_bps <= 0 || gate.nic_cap == 0) return {};
  const double rate = gate.nic_bps / 8e9;  // bytes per simulated ns
  const double wire = static_cast<double>(gate.wire_bytes);
  // Admit once the virtual queue (backlog drains at `rate`) has headroom
  // for this copy plus the slack target.
  return {(static_cast<double>(gate.nic_cap) - static_cast<double>(gate.nic_slack) - wire) / rate,
          wire / rate, true};
}

SimTime ServiceCenter::gate_completion(SimTime cpu_done, const GateCost& gate) {
  if (!gate.on) return cpu_done;
  double c = static_cast<double>(cpu_done.ns());
  c = std::max(c, nic_free_v_ - gate.headroom_ns);
  nic_free_v_ = std::max(nic_free_v_, c) + gate.serial_ns;
  return SimTime{static_cast<std::int64_t>(std::llround(c))};
}

void ServiceCenter::start(const Job& job, std::uint32_t item) {
  ++busy_;
  const SimTime now = loop_.now();
  total_wait_ += now - job.enqueued;
  // The completion is a direct event carrying {slot, item}; the callable
  // itself stays parked in inflight_ or batches_.
  loop_.schedule_at(gate_completion(now + job.service, job.gate), *this,
                    job.slot | (std::uint64_t{item} << 32));
}

void ServiceCenter::complete(std::uint32_t slot, std::uint32_t item) {
  --busy_;
  ++completed_;
  // Both callables run in place. Their slot stays taken while they run, so
  // a job or batch they submit parks elsewhere, and the pools never move
  // a slot.
  if (item == kPlainJob) {
    SmallFn& done = inflight_[slot];
    if (done) done();
    done.reset();
    inflight_.release(slot);
  } else {
    BatchCtrl& b = batches_[slot];
    if (b.done) b.done(item);
    if (--b.outstanding == 0) {
      b.done = nullptr;
      batches_.release(slot);
    }
  }
  drain();
}

void ServiceCenter::drain() {
  while (busy_ < servers_ && !queue_.empty()) {
    Job& front = queue_.front();
    const Job job = front;
    const std::uint32_t item = job.batch ? front.next++ : kPlainJob;
    // A batch's Job stays at the queue front until its last item starts.
    if (!job.batch || front.next == front.end) queue_.pop_front();
    --queued_logical_;
    start(job, item);
  }
}

SimDuration ServiceCenter::mean_wait() const {
  std::uint64_t n = completed_ + static_cast<std::uint64_t>(busy_);
  if (n == 0) return SimDuration{0};
  return SimDuration{total_wait_.ns() / static_cast<std::int64_t>(n)};
}

}  // namespace gmmcs::sim
