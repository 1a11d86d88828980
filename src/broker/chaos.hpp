// Chaos harness: materializes a sim::ChaosSpec into a live broker
// fabric, runs it to quiescence, and checks the self-healing invariants
// (DESIGN.md §13). The companion shrinker delta-debugs a failing spec
// down to a minimal reproducer.
//
// Oracle invariants, checked after horizon + settle:
//   1. Reliable eventual delivery: the NAK-repair subscriber delivered
//      every published reliable event; nothing was given up as lost.
//   2. Route convergence: with every fault healed, each broker's routing
//      row matches BFS over the full topology and no link is still
//      considered down by either endpoint's detector.
//   3. No ghost client records: each broker's client table holds exactly
//      the clients that are genuinely attached (crashed-forever clients
//      reaped, returning clients counted once).
//   4. No stuck streams: every surviving client is ready() with an empty
//      pending-publish queue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/chaos_gen.hpp"

namespace gmmcs::broker {

struct ChaosOptions {
  /// The brokers' idle detector on client streams (the ghost-record
  /// reaper). Turning this off re-opens the DESIGN.md §8 gap — the
  /// property test does exactly that to prove the generator catches it.
  bool ghost_reap = true;
};

struct ChaosViolation {
  std::string invariant;  // "reliable-delivery" | "route-convergence" |
                          // "ghost-records" | "stuck-streams"
  std::string detail;
};

/// Deterministic run fingerprint: equal specs + equal options must yield
/// equal metrics (the determinism double-run).
struct ChaosMetrics {
  std::uint64_t reliable_delivered = 0;
  std::uint64_t reliable_recovered = 0;
  std::uint64_t reliable_lost = 0;
  std::uint64_t events_in = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t peer_forwards = 0;
  std::uint64_t route_recomputes = 0;
  std::uint64_t clients_reaped = 0;
  std::uint64_t link_states_flooded = 0;
  /// Counted drops (BrokerNode::hop_limited_events, unroutable_events).
  std::uint64_t hop_limited_events = 0;
  std::uint64_t unroutable_events = 0;
  std::uint64_t client_events_received = 0;
  /// Re-handshakes of the generated clients (BrokerClient::reconnects).
  std::uint64_t client_reconnects = 0;
  std::uint64_t net_delivered = 0;
  std::uint64_t net_lost = 0;

  bool operator==(const ChaosMetrics&) const = default;
};

struct ChaosOutcome {
  std::vector<ChaosViolation> violations;
  ChaosMetrics metrics;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Builds the fabric the spec describes, installs its fault plan, runs to
/// horizon + settle and applies the oracle.
ChaosOutcome run_chaos(const sim::ChaosSpec& spec, const ChaosOptions& opts = {});

/// Greedy delta-debugging: repeatedly drops faults and clients and halves
/// traffic while the spec still fails under `opts`, to a fixpoint. The
/// input must fail; returns it unchanged if it doesn't.
sim::ChaosSpec shrink_chaos(const sim::ChaosSpec& spec, const ChaosOptions& opts = {});

}  // namespace gmmcs::broker
