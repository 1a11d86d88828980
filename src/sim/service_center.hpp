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
#include <memory>
#include <vector>

#include "common/pinned.hpp"
#include "common/small_fn.hpp"
#include "common/time.hpp"
#include "sim/event_loop.hpp"

namespace gmmcs::sim {

class GMMCS_PINNED("wired into its loop at startup, torn down only after the loop drains") ServiceCenter {
 public:
  /// servers: number of parallel workers; queue_limit: max queued jobs
  /// (0 = unbounded). Jobs arriving at a full queue are rejected.
  ServiceCenter(EventLoop& loop, int servers, std::size_t queue_limit = 0);

  /// Submits a job; `done` runs when its service time has elapsed.
  /// Returns false (and drops the job) if the queue is full. The callable
  /// rides in a SmallFn (captures up to 64 bytes cost no heap allocation)
  /// parked in a slot table until it completes: the queue moves only a
  /// small record per job.
  bool submit(SimDuration service_time, SmallFn done);

  /// Parameters for a batch of identical jobs (broker fan-out: one copy
  /// per recipient). `service` is the per-job CPU time; the remaining
  /// fields, when set, model egress-NIC backpressure: a job's completion
  /// (= its copy entering the NIC queue) is delayed until a virtual
  /// drop-tail queue of `nic_cap` bytes draining at `nic_bps` has at least
  /// `nic_slack` + one copy of headroom. A gated completion keeps its
  /// server busy — threads blocked on a full NIC is exactly the optimized
  /// NaradaBrokering behavior — so dispatch throughput degrades to line
  /// rate instead of flooding the queue.
  struct BatchParams {
    SimDuration service;
    std::size_t wire_bytes = 0;
    double nic_bps = 0;
    std::size_t nic_cap = 0;
    std::size_t nic_slack = 0;
  };

  /// Submits `n` identical jobs as one batch; `done(i)` runs as job i
  /// completes. Admission is decided once, at submission: the free
  /// servers plus the queue room left under queue_limit accept a prefix
  /// of the batch and the tail is rejected; returns how many jobs were
  /// accepted. When all servers are idle the batch expands
  /// arithmetically — per-server completion ladders computed in one pass,
  /// one scheduled event per job and no queue traffic — which is the
  /// broker fan-out fast path; otherwise the batch rides the FIFO queue
  /// as one job and its items peel off one at a time as servers free up.
  ///
  /// This is *not* equivalent to n submit() calls. Routing the per-copy
  /// broker path through submit_batch (NIC gate off) moved the Figure-3
  /// broker delay from 86.58 to 89.79 ms and 600-client video loss from
  /// 1.67% to 0%; the loss shift follows from the one-shot admission
  /// above, the delay shift is not yet explained (ROADMAP, fan-out merge).
  std::size_t submit_batch(std::size_t n, const BatchParams& params,
                           std::function<void(std::size_t)> done);

  [[nodiscard]] std::size_t queue_length() const { return queued_logical_; }
  [[nodiscard]] int busy_servers() const { return busy_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  /// Total time jobs spent waiting in queue (not being served).
  [[nodiscard]] SimDuration total_wait() const { return total_wait_; }
  /// Mean queueing wait across completed jobs.
  [[nodiscard]] SimDuration mean_wait() const;

 private:
  /// Shared state of one queued batch (slow path): items peel off it one
  /// at a time; `next` is the first item not yet started.
  struct BatchCtrl {
    BatchParams params;
    std::size_t accepted = 0;
    std::size_t next = 0;
    std::function<void(std::size_t)> done;
  };

  /// A queued job. A plain job's callable is parked in inflight_[slot]
  /// at submit() and never moves again; the queue shuffles only these
  /// small records.
  struct Job {
    SimTime enqueued;
    SimDuration service;
    std::uint32_t slot = 0;
    /// Non-null for a queued batch; `slot` is unused then.
    std::shared_ptr<BatchCtrl> batch;
  };

  /// Parks a completion callable in a free inflight_ slot.
  std::uint32_t park(SmallFn done);
  void start(const Job& job);
  void drain();
  /// Advances q_head_ past the consumed front Job (reset/trim heuristics).
  void advance_head();
  /// Applies the virtual-NIC admission gate to a job completing its CPU
  /// service at `cpu_done`; returns the (possibly later) gated completion
  /// and accounts the copy's serialization in nic_free_v_.
  SimTime gate_completion(SimTime cpu_done, const BatchParams& p);

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
  /// the admission check use this, since a batch rides in a single Job and
  /// fast-path batch items wait without touching queue_ at all.
  std::size_t queued_logical_ = 0;
  /// Per-server completion ladder arena for the batch fast path.
  std::vector<SimTime> ladder_;
  /// Virtual egress-NIC free time (ns, as a double so per-copy
  /// serialization times keep sub-ns precision across thousands of
  /// copies), for gate_completion's admission model.
  double nic_free_v_ = 0;
  // Completion callables of queued and running plain jobs, parked here
  // from submit() on so the EventLoop closure only captures {this, slot}.
  // Freed slots are recycled LIFO.
  std::vector<SmallFn> inflight_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  SimDuration total_wait_{};
};

}  // namespace gmmcs::sim
