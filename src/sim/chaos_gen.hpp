// Seeded chaos generation: random fabric topologies, client populations,
// traffic schedules and fault plans for property-based testing.
//
// A ChaosSpec is pure data — broker indices, client indices and
// durations, no live objects — so it lives in the sim layer (the broker
// harness in broker/chaos.hpp materializes it). generate(seed) is a pure
// function: the same seed always yields the same spec, and a spec
// round-trips through its text form losslessly, which is what makes
// failing specs replayable from a committed seed file.
//
// The generator deliberately bounds its output so that every emitted
// spec *should* satisfy the oracle invariants (DESIGN.md §13): faults
// heal before the horizon, broker 0 (which anchors the reliable
// pipeline) never crashes, and faults on the reliable subscriber's path
// stay inside a window where gap detection is guaranteed to see a clean
// tail of later events.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "sim/fault.hpp"

namespace gmmcs::sim {

/// What a ChaosFault endpoint refers to: a broker host, a generated
/// client host, or the reliable subscriber's host (faultable only inside
/// the tail-safe window; the publisher and recovery hosts are never
/// faulted — the oracle's eventual-delivery invariant needs the recovery
/// buffer complete).
enum class ChaosRefKind { kBroker, kClient, kRsub };

struct ChaosRef {
  ChaosRefKind kind = ChaosRefKind::kBroker;
  int index = 0;  // broker or client index; unused for kRsub

  auto operator<=>(const ChaosRef&) const = default;
};

/// One generated client: attaches to a broker, subscribes to one topic
/// of a small fixed set, and optionally publishes a best-effort schedule.
struct ChaosClient {
  int broker = 0;
  /// No UDP channels — the ghost-record shape: a returning UDP client's
  /// Hello evicts its crashed incarnation's record, a stream-only one
  /// relies on the broker-side keepalive reaper.
  bool stream_only = false;
  bool publisher = false;
  int topic = 0;  // index into the generated topic set
  int events = 0;
  SimDuration spacing{};
};

struct ChaosFault {
  FaultPlan::FaultKind kind = FaultPlan::FaultKind::kHostCrash;
  SimTime from{};
  SimTime until{};  // SimTime::infinity() = permanent (client crashes only)
  ChaosRef a, b;    // endpoints, meaning as in FaultPlan::Fault
  std::vector<int> group_a, group_b;  // kPartition broker index groups
  double loss = 0.0;
  double burst_length = 1.0;
};

struct ChaosSpec {
  enum class Topology { kRing, kTree, kMesh };

  std::uint64_t seed = 0;  // the seed generate() was called with
  Topology topology = Topology::kRing;
  int brokers = 3;
  std::vector<std::pair<int, int>> links;  // broker index pairs
  std::vector<ChaosClient> clients;
  /// Reliable pipeline schedule (publisher/recovery/subscriber pinned to
  /// broker 0 by the harness).
  int reliable_events = 0;
  SimDuration reliable_spacing{};
  /// Publish schedules and faults all end before `horizon`; the run then
  /// quiesces for `settle` before the oracle inspects invariants.
  SimTime horizon{};
  SimDuration settle{};
  std::vector<ChaosFault> faults;

  /// Canonical line-based text form; parse(serialize()) == *this and
  /// serialize(parse(text)) == text for any text serialize produced.
  [[nodiscard]] std::string serialize() const;
  static std::optional<ChaosSpec> parse(const std::string& text);
  /// FNV-1a over serialize(): a stable identity for bench tagging and
  /// corpus deduplication.
  [[nodiscard]] std::uint64_t hash() const;
};

class ChaosGen {
 public:
  explicit ChaosGen(std::uint64_t seed) : seed_(seed) {}

  /// The i-th spec of this generator's stream. next() derives an
  /// independent per-spec seed (SplitMix64 over seed_ and the counter)
  /// so any single spec is reproducible from its recorded spec.seed
  /// without replaying the stream.
  ChaosSpec next();

  /// Pure function: the spec for one seed.
  static ChaosSpec generate(std::uint64_t seed);

 private:
  std::uint64_t seed_;
  std::uint64_t count_ = 0;
};

/// Seed-file helpers for the regression corpus (tests/chaos_seeds/).
/// write_spec_file refuses silently-unreplayable content: it writes
/// exactly serialize(). read_spec_file returns nullopt on IO or parse
/// failure.
bool write_spec_file(const std::string& path, const ChaosSpec& spec);
std::optional<ChaosSpec> read_spec_file(const std::string& path);

}  // namespace gmmcs::sim
