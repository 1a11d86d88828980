// Service centers: queueing models for CPU and thread-pool work.
//
// The paper's delay/jitter numbers were produced by queueing inside the
// broker and the JMF reflector (per-packet processing on a bounded number
// of threads). A ServiceCenter models exactly that: `k` parallel servers
// draining a FIFO queue of jobs with explicit service times. The JMF
// reflector is a ServiceCenter with one server; the optimized
// NaradaBrokering dispatch pool has several.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/pinned.hpp"
#include "common/small_fn.hpp"
#include "common/time.hpp"
#include "sim/event_loop.hpp"
#include "sim/slot_pool.hpp"

namespace gmmcs::sim {

/// Virtual egress-NIC admission gate on a job's completion (broker
/// fan-out: a copy job completes by entering the NIC queue). When set,
/// the completion is delayed until a virtual drop-tail queue of
/// `nic_cap` bytes draining at `nic_bps` has at least `nic_slack` +
/// `wire_bytes` of headroom. A gated completion keeps its server busy —
/// threads blocked on a full NIC is exactly the optimized
/// NaradaBrokering behavior — so dispatch throughput degrades to line
/// rate instead of flooding the queue. The default (all zero) is off.
struct NicGate {
  std::size_t wire_bytes = 0;
  double nic_bps = 0;
  std::size_t nic_cap = 0;
  std::size_t nic_slack = 0;
};

class GMMCS_PINNED("wired into its loop at startup, torn down only after the loop drains") ServiceCenter {
 public:
  /// servers: number of parallel workers; queue_limit: max queued jobs
  /// (0 = unbounded). Jobs arriving at a full queue are rejected.
  ServiceCenter(EventLoop& loop, int servers, std::size_t queue_limit = 0);

  /// Submits a job; `done` runs when its service time (and `gate`) has
  /// elapsed. A free server takes the job at once, even ahead of queued
  /// jobs (inside a completion callback the freed server is offered to
  /// new work before the queue drains). Returns false (and drops the job)
  /// if no server is free and the queue is full. The callable rides in a
  /// SmallFn (captures up to 64 bytes cost no heap allocation) parked in
  /// a slot table until it completes: the queue moves only a small record
  /// per job.
  bool submit(SimDuration service_time, SmallFn done, const NicGate& gate = {});

  using BatchFn = std::function<void(std::size_t)>;

  /// Submits `n` identical jobs as one batch (broker fan-out: one copy per
  /// recipient); `done(i)` runs as job i completes. Returns how many jobs
  /// were accepted. Exactly n submit() calls with the same service time
  /// and gate: the leading items take every free server, the rest queue
  /// FIFO behind everything already queued until queue_limit fills, and
  /// the tail is rejected. Completion order, times, rejections, queue
  /// length and wait accounting all match (BatchEquivalence in
  /// tests/property_test.cpp). The batch rides the queue as one record
  /// whose items peel off one at a time, and its state is recycled, so a
  /// warmed batch whose `done` fits std::function's inline buffer costs
  /// no heap allocation.
  std::size_t submit_batch(std::size_t n, SimDuration service_time, BatchFn done,
                           const NicGate& gate = {});

  [[nodiscard]] std::size_t queue_length() const { return queued_logical_; }
  [[nodiscard]] int busy_servers() const { return busy_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  /// Total time jobs spent waiting in queue (not being served).
  [[nodiscard]] SimDuration total_wait() const { return total_wait_; }
  /// Mean queueing wait across completed jobs.
  [[nodiscard]] SimDuration mean_wait() const;

 private:
  /// Item index a plain submit() job completes with.
  static constexpr std::size_t kPlainJob = static_cast<std::size_t>(-1);

  /// One batch's completion callable and its accepted items not yet
  /// completed; recycled through free_batches_ after the last completes.
  struct BatchCtrl {
    BatchFn done;
    std::size_t outstanding = 0;
  };

  /// A queued job, or the queued run of one batch's items (`batch`; items
  /// `next`..`end`-1, peeled off one at a time as servers free up). The
  /// callable stays parked in inflight_[slot] (plain job) or
  /// batches_[slot] (batch); the queue shuffles only these records.
  struct Job {
    SimTime enqueued;
    SimDuration service;
    NicGate gate;
    std::uint32_t slot = 0;
    bool batch = false;
    std::size_t next = 0;
    std::size_t end = 0;
  };

  /// Parks a completion callable in a free inflight_ slot.
  std::uint32_t park(SmallFn done);
  /// Parks a batch's callable in a free batches_ slot.
  std::uint32_t park_batch(BatchFn done, std::size_t items);
  /// Starts `job` (item `item` of a batch, or kPlainJob) on a free server.
  void start(const Job& job, std::size_t item);
  void complete(std::uint32_t slot, std::size_t item);
  void drain();
  /// Advances q_head_ past the consumed front Job (reset/trim heuristics).
  void advance_head();
  /// Applies the virtual-NIC admission gate to a job completing its CPU
  /// service at `cpu_done`; returns the (possibly later) gated completion
  /// and accounts the copy's serialization in nic_free_v_.
  SimTime gate_completion(SimTime cpu_done, const NicGate& gate);

  EventLoop& loop_;
  int servers_;
  std::size_t queue_limit_;
  int busy_ = 0;
  /// FIFO queue as a vector + head index rather than std::deque: a deque
  /// allocates a fresh block every ~few pushes even at steady state, while
  /// this layout reuses its capacity forever (the consumed prefix is
  /// trimmed whenever the queue drains empty, which it does every time
  /// servers catch up).
  std::vector<Job> queue_;
  std::size_t q_head_ = 0;
  /// Logical jobs waiting (each batch item counts one): queue_length() and
  /// the admission check use this, since a batch's items share one Job.
  std::size_t queued_logical_ = 0;
  /// Virtual egress-NIC free time (ns, as a double so per-copy
  /// serialization times keep sub-ns precision across thousands of
  /// copies), for gate_completion's admission model.
  double nic_free_v_ = 0;
  // Completion callables of queued and running plain jobs, parked here
  // from submit() on so the EventLoop closure only captures {this, slot},
  // and run in place by complete().
  SlotPool<SmallFn> inflight_;
  // Batches with items queued or running.
  SlotPool<BatchCtrl> batches_;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  SimDuration total_wait_{};
};

}  // namespace gmmcs::sim
