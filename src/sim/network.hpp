// Simulated network: hosts, NICs, paths and multicast groups.
//
// This replaces the paper's physical LAN testbed (see DESIGN.md §2). The
// model captures the mechanisms that produced the paper's measurements:
//
//  * each host has a NIC with finite egress bandwidth and a drop-tail
//    byte-bounded egress queue — serialization + queueing delay;
//  * host pairs have a path with propagation latency and random loss;
//  * multicast groups serialize once at the sender and fan out in the
//    network (used by the Access Grid / Admire communities);
//  * host CPUs are modeled separately with ServiceCenter where a component
//    wants per-packet processing costs (broker dispatch, JMF reflector).
//
// Ingress is delivered directly to the bound port handler; receive-side
// CPU contention is modeled by the components that need it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/open_index.hpp"
#include "common/payload.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "sim/event_loop.hpp"
#include "sim/slot_pool.hpp"

namespace gmmcs::sim {

using NodeId = std::uint32_t;
using GroupId = std::uint32_t;

/// A (host, port) address.
struct Endpoint {
  NodeId node = 0;
  std::uint16_t port = 0;

  auto operator<=>(const Endpoint&) const = default;
  [[nodiscard]] std::string to_string() const;
};

/// Hash for unordered containers keyed by Endpoint (hot-path reverse
/// indexes like the broker's UDP publisher lookup). (node, port) packs
/// into 48 bits, so one integer hash covers the pair collision-free.
struct EndpointHash {
  std::size_t operator()(const Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(e.node) << 16) | e.port);
  }
};

/// A datagram in flight. `sent_at` is stamped at send time so receivers can
/// compute one-way delay (all hosts share the simulation clock, mirroring
/// the paper's trick of co-locating measured receivers with the sender).
struct Datagram {
  Endpoint src;
  Endpoint dst;
  /// Ref-counted view: every hop of a fan-out shares the sender's buffer.
  Payload payload;
  SimTime sent_at;
  /// Reliable traffic (stream segments) is exempt from random path loss;
  /// retransmission is abstracted away but queueing is still paid.
  bool reliable = false;
  /// Nonzero when delivered via a multicast group.
  GroupId group = 0;
};

struct NicConfig {
  /// Egress line rate in bits per second (default: gigabit Ethernet).
  double egress_bps = 1e9;
  /// Drop-tail egress queue bound in bytes.
  std::size_t queue_bytes = 4 * 1024 * 1024;
  /// Fixed per-datagram overhead added to the payload size on the wire
  /// (frame headers). 42 ≈ Ethernet + IP + UDP.
  std::size_t overhead_bytes = 42;
};

struct PathConfig {
  /// One-way propagation delay.
  SimDuration latency = duration_us(200);
  /// Stationary loss probability.
  double loss = 0.0;
  /// Mean loss-burst length in packets. 1.0 = independent (Bernoulli)
  /// losses; >1 switches to a Gilbert–Elliott two-state model with the
  /// same stationary loss rate but correlated drops, the loss character
  /// of congested 2003 WAN paths.
  double burst_length = 1.0;
};

class Network;

/// A machine in the simulation. Obtained from Network::add_host; stable
/// address (hosts are stored as unique_ptrs).
class Host {
 public:
  using Handler = std::function<void(const Datagram&)>;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() const { return *net_; }
  EventLoop& loop() const;

  /// Binds a handler to a specific port; throws if already bound. An
  /// empty handler keeps the port bound but drops what arrives there.
  void bind(std::uint16_t port, Handler handler);
  /// Binds the next free port of the ephemeral range 49152–65535 (the
  /// search wraps inside it) and returns it; throws std::runtime_error
  /// if every ephemeral port is bound.
  std::uint16_t bind_ephemeral(Handler handler);
  /// Replaces the handler bound to `port`; throws if it is not bound.
  void rebind(std::uint16_t port, Handler handler);
  void unbind(std::uint16_t port);
  [[nodiscard]] bool is_bound(std::uint16_t port) const {
    return ports_.find(port) != kNoSlot;
  }

  /// Sends a datagram; returns false if the NIC queue dropped it. The
  /// payload handle is shared, not copied: pass a fresh frame (`Bytes&&`
  /// adopts) or another Payload's handle (refcount bump). Throws
  /// std::out_of_range, before the NIC sees it, if `dst.node` is no host.
  bool send(Endpoint dst, std::uint16_t src_port, Payload payload, bool reliable = false);
  /// Sends to every member of a multicast group (one NIC serialization).
  void send_multicast(GroupId group, std::uint16_t src_port, Payload payload);

  /// This host's NIC parameters (fixed at construction). The broker's
  /// fan_out_local reads them to build the NIC gate (sim::NicGate) its
  /// copy jobs are admitted through.
  [[nodiscard]] const NicConfig& nic_config() const { return nic_; }

  /// Takes the host offline: all traffic to/from it is dropped, anything
  /// still queued in the NIC is wiped (a crashed machine does not serialize
  /// its backlog on power-up), and new port binds are refused while down.
  /// Bound handlers and queued application state survive — the model is a
  /// machine losing power, not a process losing memory. Used by FaultPlan
  /// and failure-injection tests.
  void set_up(bool up);
  [[nodiscard]] bool up() const { return up_; }

  /// Ingress filter: return false to drop an arriving datagram before it
  /// reaches the port handler. Used by the transport-layer firewall model.
  void set_ingress_filter(std::function<bool(const Datagram&)> filter) {
    ingress_filter_ = std::move(filter);
  }
  /// Egress observer: sees every datagram this host successfully enqueues.
  /// Used for firewall connection tracking and traffic accounting.
  void set_egress_observer(std::function<void(const Datagram&)> observer) {
    egress_observer_ = std::move(observer);
  }

  // NIC statistics.
  [[nodiscard]] std::uint64_t nic_sent() const { return nic_sent_; }
  [[nodiscard]] std::uint64_t nic_dropped() const { return nic_dropped_; }
  /// Bytes in the egress queue whose packet has not departed yet.
  [[nodiscard]] std::size_t nic_queued_bytes() const;
  /// Instantaneous NIC queueing delay for a hypothetical new packet.
  [[nodiscard]] SimDuration nic_backlog_delay() const;

 private:
  friend class Network;
  static constexpr std::uint32_t kNoSlot = OpenIndex::kNone;
  static constexpr std::uint16_t kEphemeralFirst = 49152;

  Host(Network& net, NodeId id, std::string name, NicConfig cfg);

  /// A packet in the egress queue. `mark` is the loop's next_seq() when it
  /// was enqueued: its bytes free at (depart, mark), i.e. before every
  /// event scheduled after the enqueue and after every event before it.
  struct NicDeparture {
    SimTime depart;
    std::uint64_t mark;
    std::size_t bytes;
  };

  /// Runs the egress pipeline; false on a drop-tail drop, else sets the
  /// departure time.
  bool egress(std::size_t wire_bytes, SimTime& depart);
  /// True once the loop has passed packet `p`'s departure (see NicDeparture).
  [[nodiscard]] bool departed(const NicDeparture& p) const;
  /// Pops departed packets off the egress FIFO, freeing their bytes.
  void release_departed();
  /// Hands an arrived datagram to its port handler. `d` is the copy
  /// parked in Network's in-flight pool, valid until the handler returns.
  void deliver(const Datagram& d);
  /// Frees a handler slot that no port points to any more. The running
  /// handler's slot is freed by deliver() once the handler returns.
  void retire(std::uint32_t slot);
  /// True if a datagram that entered the NIC at `sent` and would have
  /// departed at `depart` was wiped by a power-down in between.
  [[nodiscard]] bool egress_wiped(SimTime sent, SimTime depart) const {
    return last_down_at_.ns() >= 0 && last_down_at_ >= sent && last_down_at_ < depart;
  }

  Network* net_;
  NodeId id_;
  std::string name_;
  NicConfig nic_;
  bool up_ = true;
  /// Most recent power-down instant (-1 = never). Queued NIC bytes with a
  /// later departure are dropped (see egress_wiped).
  SimTime last_down_at_{-1};
  SimTime nic_free_at_;
  /// Egress FIFO in departure order, as a vector + head index so it reuses
  /// its capacity. Released lazily by egress() and nic_queued_bytes()
  /// instead of by one loop event per packet.
  std::vector<NicDeparture> nic_fifo_;
  std::size_t nic_head_ = 0;
  /// Bytes of the packets in nic_fifo_[nic_head_..].
  std::size_t nic_queued_bytes_ = 0;
  std::uint64_t nic_sent_ = 0;
  std::uint64_t nic_dropped_ = 0;
  std::uint16_t next_ephemeral_ = kEphemeralFirst;
  /// The port table: an OpenIndex from each bound port to its handler's
  /// slot in handlers_. The index and the pool grow with the most ports
  /// bound at once, not with the port numbers handed out. A delivery is
  /// one probe into the index plus one call of a handler that never
  /// moves: a handler may bind ports (growing both) and unbind or rebind
  /// its own port while it runs.
  OpenIndex ports_;
  SlotPool<Handler> handlers_;
  /// Slot of the handler deliver() is running (deliveries never nest:
  /// each is its own loop event); kNoSlot once retire() has claimed it.
  std::uint32_t running_ = kNoSlot;
  std::function<bool(const Datagram&)> ingress_filter_;
  std::function<void(const Datagram&)> egress_observer_;
};

/// The simulated network fabric: owns hosts, paths and multicast groups.
class Network {
 public:
  Network(EventLoop& loop, std::uint64_t seed = 1);

  Host& add_host(std::string name, NicConfig cfg = {});
  [[nodiscard]] Host& host(NodeId id);
  [[nodiscard]] const Host& host(NodeId id) const;
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

  /// Sets the (symmetric) path between two hosts. This and the other
  /// per-host setters (set_link_up*, push_path_override, push_host_degrade)
  /// throw std::out_of_range, storing nothing, if an id is no host.
  void set_path(NodeId a, NodeId b, PathConfig cfg);
  /// Path used when no explicit one was set.
  void set_default_path(PathConfig cfg) {
    default_path_ = cfg;
    ++path_gen_;
  }
  [[nodiscard]] PathConfig path(NodeId a, NodeId b) const;

  /// Administratively cuts (or restores) the path between two hosts; while
  /// down, every datagram between them — reliable traffic included — is
  /// dropped. Used by FaultPlan link flaps and partitions.
  void set_link_up(NodeId a, NodeId b, bool up);
  [[nodiscard]] bool link_up(NodeId a, NodeId b) const {
    return down_links_.empty() || !down_links_.contains(std::minmax(a, b));
  }

  /// Asymmetric cut: drops datagrams traveling src → dst only; the reverse
  /// direction keeps working. Models one-way WAN failures (policy
  /// blackholes, unidirectional fiber faults) where A still hears B but B
  /// has gone deaf to A. Used by FaultPlan::cut_oneway.
  void set_link_up_oneway(NodeId src, NodeId dst, bool up);
  /// Effective directed reachability: symmetric cut AND one-way cut.
  [[nodiscard]] bool link_up_directed(NodeId src, NodeId dst) const {
    if (!link_up(src, dst)) return false;
    return down_oneway_.empty() || !down_oneway_.contains({src, dst});
  }

  /// Opaque handle for a pushed path override or host degrade; 0 is never
  /// a valid token.
  using OverrideToken = std::uint64_t;

  /// Pushes a temporary path model for (a, b) on top of the base path (and
  /// any earlier overrides). The effective path is the most recent live
  /// override, so overlapping faults compose: popping an inner override
  /// reveals the next one down, and popping the last reveals the base path
  /// — whatever set_path made it in the meantime. Used by FaultPlan loss
  /// bursts so overlapping bursts restore the *original* model at the
  /// latest `until` instead of a mid-burst snapshot.
  OverrideToken push_path_override(NodeId a, NodeId b, PathConfig cfg);
  void pop_path_override(NodeId a, NodeId b, OverrideToken token);

  /// Pushes a "gray failure" on a host: its egress silently drops
  /// non-reliable datagrams with the given loss model while the host stays
  /// up, links stay up, and reliable control traffic (heartbeats, streams)
  /// still flows — the failure detectors see a healthy peer while the data
  /// plane bleeds. Stacks like path overrides; most recent wins.
  OverrideToken push_host_degrade(NodeId node, double loss, double burst_length = 1.0);
  void pop_host_degrade(NodeId node, OverrideToken token);

  GroupId create_group();
  /// Adds a member; throws std::out_of_range if `member.node` is no host.
  void join_group(GroupId group, Endpoint member);
  void leave_group(GroupId group, Endpoint member);
  [[nodiscard]] std::size_t group_size(GroupId group) const;

  [[nodiscard]] EventLoop& loop() const { return *loop_; }

  // Fabric-wide statistics.
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t lost() const { return lost_; }

 private:
  friend class Host;
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// A datagram between NIC departure and arrival, with the loop key its
  /// send reserved. `next` is the in-flight slot of the arrival behind it
  /// in its link's FIFO.
  struct InFlight {
    Datagram d;
    SimTime depart;
    SimTime when;
    std::uint64_t seq = 0;
    std::uint32_t next = kNone;
  };

  /// A directed host pair that has carried traffic: its arrival FIFO, its
  /// effective path and its loss-burst state. Arrivals on a link come in
  /// (when, seq) order — departures are FIFO and the latency is fixed —
  /// so only the FIFO's first arrival needs a loop event; it schedules
  /// the next one under that one's reserved key when it fires.
  struct Link {
    NodeId src = 0;
    NodeId dst = 0;
    /// In-flight slot and reserved key of the FIFO's last arrival; the
    /// FIFO is empty once the loop has passed that key.
    std::uint32_t tail = kNone;
    SimTime tail_when{-1};
    std::uint64_t tail_seq = 0;
    /// path(src, dst), valid while path_gen == Network::path_gen_.
    std::uint64_t path_gen = 0;
    PathConfig path{};
    /// Gilbert–Elliott "in a loss burst" flags: the path's own chain and
    /// the source's gray degrade's independent one.
    bool in_burst = false;
    bool gray_in_burst = false;
  };

  /// Throws std::out_of_range unless `node` is a host.
  void require_host(NodeId node) const;
  /// Index of the src → dst link record, made on first use.
  std::uint32_t link_id(NodeId src, NodeId dst);
  /// The link's effective path, recomputed after a path change.
  const PathConfig& path_of(Link& l);
  void transmit(Host& from, Datagram&& d, SimTime depart);
  /// Parks `d` in the in-flight table under a freshly reserved loop key
  /// and queues it on its link, or schedules it if it heads the FIFO or
  /// overtakes it.
  void schedule_arrival(std::uint32_t link, Datagram&& d, SimTime depart, SimTime arrive_at);
  /// Schedules the arrival parked in `slot` under its reserved key.
  void post(std::uint32_t slot);
  /// The arrival event: schedules the next arrival on its link, then
  /// delivers the parked datagram in place unless the source's NIC was
  /// wiped while it sat there, then frees the slot.
  void arrive(std::uint32_t slot);
  void transmit_multicast(Host& from, GroupId group, const Datagram& d, SimTime depart);
  /// Applies a loss model (Bernoulli, or Gilbert–Elliott on `in_burst`);
  /// true = drop.
  bool roll_loss(double loss, double burst_length, bool& in_burst);
  /// True when the link source's topmost gray degrade drops this datagram.
  bool gray_drop(Link& l);

  EventLoop* loop_;
  Rng rng_;
  std::vector<std::unique_ptr<Host>> hosts_;
  PathConfig default_path_;
  std::map<std::pair<NodeId, NodeId>, PathConfig> paths_;
  /// Bumped by every change to an effective path (set_path,
  /// set_default_path, override push/pop); a Link's cached path is stale
  /// once its path_gen differs.
  std::uint64_t path_gen_ = 1;
  /// Link records, one per directed pair that carried traffic, and an
  /// OpenIndex from the packed (src, dst) pair to each record's id.
  std::vector<Link> links_;
  OpenIndex link_index_;
  GroupId next_group_ = 1;
  std::unordered_map<GroupId, std::vector<Endpoint>> groups_;
  /// Administratively-down host pairs (link flaps, partitions), keyed minmax.
  std::set<std::pair<NodeId, NodeId>> down_links_;
  /// Directed one-way cuts: (src, dst) pairs whose src → dst direction drops.
  std::set<std::pair<NodeId, NodeId>> down_oneway_;
  /// Stacked path overrides per minmax pair; the back entry is effective.
  std::map<std::pair<NodeId, NodeId>, std::vector<std::pair<OverrideToken, PathConfig>>>
      path_overrides_;
  /// Stacked gray-failure degrades per host: (token, loss, burst_length).
  std::map<NodeId, std::vector<std::tuple<OverrideToken, double, double>>> host_degrade_;
  OverrideToken next_override_token_ = 1;
  /// In-flight datagrams, parked so each arrival closure captures only
  /// {this, slot} and stays inside SmallFn's inline buffer (a Datagram
  /// plus routing state would spill it: one heap cell per packet). The
  /// pool's slots never move, so arrive() delivers a datagram by
  /// reference from its slot.
  SlotPool<InFlight> inflight_;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace gmmcs::sim
