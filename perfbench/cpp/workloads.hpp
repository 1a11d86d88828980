// The three perfbench workloads. Each rep builds a fresh topology from the
// public sim/broker/rtp/media APIs, settles it, runs a fixed amount of
// simulated media, drains, and reports what it measured on both clocks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

/// Names accepted by --workload.
const std::vector<std::string>& workload_names();

/// Sim-clock outcome of one rep. Deterministic per seed: every rep of a
/// run must produce the same signature().
struct SimOutcome {
  // One-way delay over every measured copy, in ns (percentiles within
  // 0.025%, mean and max exact).
  std::uint64_t delays = 0;
  double delay_mean_ns = 0;
  double delay_p50_ns = 0;
  double delay_p99_ns = 0;
  double delay_p999_ns = 0;
  double delay_max_ns = 0;
  double jitter_ms = 0;   // RFC 3550 jitter, mean over measured streams
  double good_rx_ratio = 0;
  std::uint64_t streams = 0;
  std::uint64_t expected = 0;
  std::uint64_t observed = 0;
  std::uint64_t missing = 0;
  /// Empty when every output check passed, else the first failure.
  std::string error;
  /// Figure-3 harness parity figures (fig3_video only): the paper
  /// configuration's 12 sender-host receivers, computed the way
  /// core::run_fig3 computes them.
  bool has_parity = false;
  double parity_delay_ms = 0;
  double parity_jitter_ms = 0;

  [[nodiscard]] std::string signature() const;
};

struct RepResult {
  double setup_s = 0;  // build + settle, host seconds
  double run_s = 0;    // media + drain inside the loop, host seconds
  /// Host seconds of each 5 ms slice of sim time in run_s. The slices
  /// are the same work in every rep of a run.
  std::vector<double> slice_s;
  std::uint64_t copies = 0;  // receiver on_event calls in the media phase
  SimOutcome sim;
  /// Per-layer metrics (traced reps only), keyed by metric name.
  std::map<std::string, double> layers;
};

/// Builds and settles the workload's topology only (a set-up sample).
double setup_only(const std::string& workload, std::uint64_t seed);
/// Runs one full rep.
RepResult run_rep(const std::string& workload, std::uint64_t seed, bool traced);

}  // namespace perfbench
