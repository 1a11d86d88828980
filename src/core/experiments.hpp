// Reusable experiment harnesses for the paper's evaluation (DESIGN.md §4).
//
// Each harness builds the full simulated deployment — sender machine with
// the measured co-located receivers, a second receiver machine, the broker
// (or JMF reflector) machine on a gigabit LAN — runs the workload, and
// returns the measured series/aggregates. The bench binaries print them in
// the paper's format; tests assert the shape bands.
#pragma once

#include <cstdint>
#include <vector>

#include "broker/broker_node.hpp"
#include "common/stats.hpp"

namespace gmmcs::core {

/// Which distribution system carries the media.
enum class Fanout {
  kBroker,        // NaradaBrokering-style broker (optimized dispatch)
  kBrokerNaive,   // broker with pre-optimization dispatch (ablation A1)
  kJmfReflector,  // the paper's Java Media Framework baseline
};

const char* to_string(Fanout f);

// ---------------------------------------------------------------------------
// Figure 3: per-packet delay and jitter, 400 video receivers, 600 Kbps.
// ---------------------------------------------------------------------------

struct Fig3Config {
  Fanout fanout = Fanout::kBroker;
  int receivers = 400;
  /// Receivers co-located with the sender whose stats are averaged
  /// ("we gather the results from only those 12 clients").
  int measured = 12;
  /// Packets per receiver to record (the paper's x-axis runs to 2000).
  int packets = 2000;
  std::uint64_t seed = 2003;
};

struct Fig3Result {
  /// Mean across measured receivers, per packet index.
  Series delay_ms;
  Series jitter_ms;
  double avg_delay_ms = 0;
  double avg_jitter_ms = 0;
  double loss_ratio = 0;
  std::uint64_t dispatch_jobs_dropped = 0;
  /// Wall quantities of the run, for reporting.
  double stream_kbps = 0;
  double sim_seconds = 0;
};

Fig3Result run_fig3(const Fig3Config& cfg);

// ---------------------------------------------------------------------------
// Claims C1/C2: clients one broker can serve with good quality.
// ---------------------------------------------------------------------------

enum class MediaKind { kAudio, kVideo };

struct CapacityConfig {
  MediaKind kind = MediaKind::kVideo;
  int clients = 400;
  /// Simulated seconds of media; stats use the second half (warmed up).
  double seconds = 8.0;
  broker::DispatchConfig dispatch = broker::DispatchConfig::optimized();
  std::uint64_t seed = 2003;
};

struct CapacityPoint {
  int clients = 0;
  double avg_delay_ms = 0;
  double p99_delay_ms = 0;
  double loss_ratio = 0;
  double offered_mbps = 0;
  /// The paper's "very good quality": avg delay < 150 ms and loss < 2%
  /// (Figure 3 shows ~80 ms steady delay is what the paper called good).
  bool good_quality = false;
};

CapacityPoint run_capacity(const CapacityConfig& cfg);

}  // namespace gmmcs::core
