// Deterministic failure injection for the simulated network.
//
// A FaultPlan is a declarative schedule of host crashes/restarts, link
// flaps, loss bursts and partitions at absolute simulated times — the
// chaos harness behind the self-healing broker fabric experiments.
// install() translates the schedule into event-loop callbacks; because
// everything is driven by the shared deterministic EventLoop (and any
// randomness lives in the Network's seeded Rng), the same plan on the
// same seed reproduces the same run bit-for-bit. An empty plan installs
// nothing, so a run with an empty FaultPlan is byte-identical to one
// with no plan at all.
#pragma once

#include <vector>

#include "sim/network.hpp"

namespace gmmcs::sim {

class FaultPlan {
 public:
  enum class FaultKind { kHostCrash, kLinkFlap, kLossBurst, kPartition, kOneWayCut, kGrayHost };

  struct Fault {
    FaultKind kind;
    SimTime from;
    /// End of the fault; SimTime::infinity() = permanent.
    SimTime until;
    /// kHostCrash/kGrayHost: the host. kLinkFlap/kLossBurst: {a}.
    /// kOneWayCut: {src}. kPartition: group A.
    std::vector<NodeId> side_a;
    /// kLinkFlap/kLossBurst: {b}. kOneWayCut: {dst}. kPartition: group B.
    std::vector<NodeId> side_b;
    double loss = 0.0;          // kLossBurst / kGrayHost
    double burst_length = 1.0;  // kLossBurst / kGrayHost
  };

  /// Host loses power at `from` and comes back at `until`. Overlapping
  /// crash windows on one host union: it restarts only when the last
  /// window ends (never, if any overlapping crash is permanent).
  FaultPlan& crash_host(NodeId node, SimTime from, SimTime until = SimTime::infinity());
  /// The (a, b) path is cut for [from, until); reliable traffic included.
  /// Overlapping cuts of the same pair (including via partition) union
  /// like crash windows.
  FaultPlan& flap_link(NodeId a, NodeId b, SimTime from, SimTime until = SimTime::infinity());
  /// Asymmetric cut: only the src → dst direction drops (reliable traffic
  /// included); dst → src keeps flowing. A stream's idle detector sees it
  /// from both ends: one end's probes are lost, the other's answers.
  FaultPlan& cut_oneway(NodeId src, NodeId dst, SimTime from,
                        SimTime until = SimTime::infinity());
  /// Temporarily overrides the (a, b) path's loss model (Gilbert–Elliott
  /// when burst_length > 1). Overrides stack: overlapping bursts compose
  /// and the *original* path model is restored once the last one ends.
  FaultPlan& loss_burst(NodeId a, NodeId b, SimTime from, SimTime until, double loss,
                        double burst_length = 1.0);
  /// Gray failure: the host's egress drops best-effort datagrams with the
  /// given loss model while the host and its links stay administratively
  /// up and reliable control traffic still flows.
  FaultPlan& gray_host(NodeId node, SimTime from, SimTime until, double loss,
                       double burst_length = 1.0);
  /// Cuts every cross pair between the two host groups for [from, until).
  FaultPlan& partition(std::vector<NodeId> side_a, std::vector<NodeId> side_b, SimTime from,
                       SimTime until = SimTime::infinity());

  [[nodiscard]] const std::vector<Fault>& faults() const { return faults_; }
  [[nodiscard]] bool empty() const { return faults_.empty(); }
  /// True if any scheduled fault is active at `t` (bench windowing).
  [[nodiscard]] bool active_at(SimTime t) const;

  /// Schedules every fault on the network's event loop. Call once, after
  /// the hosts referenced by the plan exist.
  void install(Network& net) const;

 private:
  std::vector<Fault> faults_;
};

}  // namespace gmmcs::sim
