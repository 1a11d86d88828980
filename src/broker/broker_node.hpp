// A single NaradaBrokering-style broker.
//
// The broker accepts clients over a stream (TCP profile) or datagram (UDP
// profile) channel, maintains a subscription table of topic filters, and
// routes published events to local subscribers and peer brokers.
//
// Performance model: event handling runs through a ServiceCenter — one
// routing job per event plus one copy job per recipient, with the copy
// cost composed of a fixed per-send overhead and a size-proportional part.
// This is the mechanism behind every measured number in the paper's
// evaluation: at 400 x 600 Kbps the copy jobs put the dispatch CPU near
// saturation, and the difference between the optimized transmission path
// and a naive one (or the JMF reflector baseline) shows up as the
// 80 ms-vs-229 ms delay gap of Figure 3.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "broker/event.hpp"
#include "broker/subscription_index.hpp"
#include "broker/topic.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "sim/service_center.hpp"
#include "sim/slot_pool.hpp"
#include "transport/datagram_socket.hpp"
#include "transport/stream.hpp"

namespace gmmcs::broker {

class BrokerNetwork;

/// Cost model of the broker's event dispatch path.
struct DispatchConfig {
  /// Parallel dispatch workers (the "message transmission" thread pool).
  int threads = 1;
  /// Bound on queued dispatch jobs; overflowing jobs are dropped.
  std::size_t queue_limit = 100000;
  /// Per-event cost: topic matching, header handling.
  SimDuration route_cost = duration_us(100);
  /// Per-recipient fixed cost (send path overhead).
  SimDuration copy_fixed = duration_us(8);
  /// Per-recipient cost per KiB of payload (buffer handling). Calibrated
  /// so the Figure-3 workload (400 x 600 Kbps) runs at ~93% dispatch
  /// utilization, the regime the paper measured (see DESIGN.md §6).
  SimDuration copy_per_kb = SimDuration{23400};

  [[nodiscard]] SimDuration copy_cost(std::size_t payload_bytes) const;

  /// The tuned transmission path the paper describes ("after we made some
  /// optimizations ... it shows excellent performance").
  static DispatchConfig optimized();
  /// The pre-optimization path (per-recipient buffer copies and
  /// allocation), used by the A1 ablation bench.
  static DispatchConfig unoptimized();
  /// optimized() on an 8-thread transmission pool (the pool size the
  /// paper's broker ran in production).
  static DispatchConfig snapshot();
};

/// Peer-link failure detection (the self-healing fabric's sensor layer):
/// every broker beats a kHeartbeat frame on each peer link per interval
/// and declares a peer link down after miss_threshold silent intervals;
/// any later heartbeat from that peer declares it back up. Transitions
/// are reported to BrokerNetwork, which repairs the routing tables.
/// Disabled by default (zero interval): a fault-free run carries no
/// heartbeat traffic, keeping existing bench outputs byte-identical.
struct HeartbeatConfig {
  SimDuration interval{0};
  int miss_threshold = 3;
};

/// Broker-side client liveness (DESIGN.md §13): a client record silent for
/// one interval is probed with a kPing on its stream (live clients answer
/// kPong; any frame counts as life); a record still silent after
/// miss_threshold intervals is reaped. This is what clears the *ghost*
/// records a crashed-and-restarted broker keeps for stream-only clients —
/// their reconnect mints a fresh record and the Hello-time UDP-endpoint
/// eviction never fires because there is no UDP endpoint to collide on.
/// Disabled by default (zero interval): fault-free runs carry no probe
/// traffic or timers.
struct ClientKeepaliveConfig {
  SimDuration interval{0};
  int miss_threshold = 3;
};

class BrokerNode {
 public:
  struct Config {
    std::uint16_t stream_port = 9000;
    std::uint16_t dgram_port = 9001;
    DispatchConfig dispatch = DispatchConfig::optimized();
    HeartbeatConfig heartbeat;
    ClientKeepaliveConfig client_keepalive;
  };

  BrokerNode(sim::Host& host, BrokerId id, Config cfg);
  /// Default configuration (ports 9000/9001, optimized dispatch).
  BrokerNode(sim::Host& host, BrokerId id);

  [[nodiscard]] BrokerId id() const { return id_; }
  [[nodiscard]] sim::Host& host() const { return *host_; }
  [[nodiscard]] sim::Endpoint stream_endpoint() const { return listener_.local(); }
  [[nodiscard]] sim::Endpoint dgram_endpoint() const { return dgram_.local(); }

  // --- Statistics ---
  [[nodiscard]] std::uint64_t events_in() const { return events_in_; }
  [[nodiscard]] std::uint64_t copies_delivered() const { return copies_delivered_; }
  [[nodiscard]] std::uint64_t peer_forwards() const { return peer_forwards_; }
  [[nodiscard]] std::uint64_t jobs_dropped() const { return dispatch_.rejected(); }
  /// Events addressed to an interested broker we have no route to
  /// (fabric partition); counted per unreachable target.
  [[nodiscard]] std::uint64_t unroutable_events() const { return unroutable_events_; }
  [[nodiscard]] const sim::ServiceCenter& dispatch() const { return dispatch_; }
  [[nodiscard]] std::size_t client_count() const { return client_count_; }
  [[nodiscard]] std::size_t subscription_count() const;
  /// The topic-routing fast path index (exposed for tests and benches).
  [[nodiscard]] const SubscriptionIndex& subscriptions() const { return sub_index_; }

  // --- Link monitoring (the performance monitoring service) ---
  /// Probes a linked peer; cb receives the RTT. Probes ride the peer's
  /// dispatch pipeline, so a loaded broker answers slowly — the measured
  /// RTT is the real service quality of the link, not just wire latency.
  void probe_peer(BrokerId peer, std::function<void(SimDuration)> cb);
  /// Exponentially-smoothed RTT per peer from past probes.
  [[nodiscard]] const std::map<BrokerId, SimDuration>& link_rtts() const { return srtt_; }

  // --- Failure detection (see HeartbeatConfig) ---
  [[nodiscard]] std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }
  /// Peer-link liveness transitions this broker's detector declared.
  [[nodiscard]] std::uint64_t links_detected_down() const { return links_detected_down_; }
  [[nodiscard]] std::uint64_t links_detected_up() const { return links_detected_up_; }
  [[nodiscard]] bool peer_considered_down(BrokerId peer) const { return peer_down_.contains(peer); }
  /// Ghost client records reaped by the client-keepalive sweep.
  [[nodiscard]] std::uint64_t clients_reaped() const { return clients_reaped_; }
  /// kLinkState advertisements this broker originated or forwarded.
  [[nodiscard]] std::uint64_t link_states_flooded() const { return link_states_flooded_; }

 private:
  friend class BrokerNetwork;

  struct ClientRec {
    ClientId id = 0;
    std::string name;
    transport::StreamConnectionPtr stream;
    sim::Endpoint udp{};
    bool has_udp = false;
    std::vector<TopicFilter> filters;
    /// Last instant any frame (stream or UDP) arrived from this client;
    /// the client-keepalive sweep probes and reaps on this.
    SimTime last_heard{};
  };

  /// The live record of `cid`, or nullptr (never minted, or dropped).
  ClientRec* find_client(ClientId cid) {
    const std::uint32_t slot = cid < client_slot_.size() ? client_slot_[cid] : kNoClient;
    return slot == kNoClient ? nullptr : &client_recs_[slot];
  }
  /// Mints the next client id and its record.
  ClientRec& add_client();
  /// Drops `rec`'s record and its subscriptions, advertisements and UDP
  /// index entry; returns its stream. Its slot is recycled. Costs one
  /// unsubscribe per filter the client holds, whatever the table's size.
  transport::StreamConnectionPtr drop_client(ClientRec& rec);

  /// A recycled RoutedEvent and the fabric targets its ingress read. Its
  /// route job and its local fan-out share it through RoutedRef; when the
  /// last reference goes, it drops its frame handles and its slot returns
  /// to routed_, the topic's and the target list's capacity kept. A warmed
  /// broker takes neither from the heap per event.
  struct Routed {
    RoutedEvent ev;
    std::vector<BrokerId> remote;
    BrokerNode* node = nullptr;
    std::uint32_t slot = 0;
    std::uint32_t refs = 0;
  };
  /// A counted handle to a Routed. The count is a plain integer: a
  /// broker's events stay on its simulation's thread, like Payload.
  class RoutedRef {
   public:
    RoutedRef() = default;
    explicit RoutedRef(Routed* r) : r_(r) { ++r_->refs; }
    RoutedRef(const RoutedRef& other) : r_(other.r_) {
      if (r_ != nullptr) ++r_->refs;
    }
    RoutedRef(RoutedRef&& other) noexcept : r_(std::exchange(other.r_, nullptr)) {}
    RoutedRef& operator=(RoutedRef other) noexcept {
      std::swap(r_, other.r_);
      return *this;
    }
    ~RoutedRef() {
      if (r_ != nullptr && --r_->refs == 0) r_->node->recycle(*r_);
    }
    [[nodiscard]] Routed& entry() const { return *r_; }
    [[nodiscard]] const RoutedEvent& operator*() const { return r_->ev; }
    [[nodiscard]] const RoutedEvent* operator->() const { return &r_->ev; }

   private:
    Routed* r_ = nullptr;
  };
  /// A fresh Routed from the pool, its event ready to refill().
  RoutedRef acquire_routed();
  /// Returns a Routed whose last reference went to the pool.
  void recycle(Routed& r);

  void accept(transport::StreamConnectionPtr conn);
  /// A frame on the inbound stream in `slot` (from a client or a peer).
  void handle_stream_frame(std::uint32_t slot, const Payload& data);
  /// The inbound stream in `slot` closed: drops its client record, if it
  /// minted one, and frees the slot.
  void close_inbound(std::uint32_t slot);
  void handle_datagram(const sim::Datagram& d);
  void handle_subscription(ClientRec& c, const SubscribeMessage& m);
  /// Drops a client record and its subscriptions/advertisements. Used when
  /// a reconnecting client's fresh Hello supersedes its ghost record.
  void evict_client(ClientId cid);
  void handle_peer_heartbeat(BrokerId peer);
  void heartbeat_tick();
  /// Starts the heartbeat task lazily once the first peer link exists.
  void ensure_heartbeat_task();
  /// Client-keepalive sweep: probes quiet client records, reaps dead ones.
  void client_keepalive_tick();
  /// Detector transition in gossip mode: flood a fresh advertisement for
  /// the (id_, peer) link so remote brokers learn at propagation speed.
  void originate_link_state(BrokerId peer, bool up);
  /// A kLinkState frame arriving from a peer: dedup by (origin, link, seq),
  /// apply to our routing view and re-flood once.
  void handle_link_state(const LinkStateMessage& m);
  void flood_link_state(const LinkStateMessage& m);

  /// Entry point for a client-published kEvent `frame`, decoded in place
  /// into a recycled RoutedEvent; false (and nothing routed) if it is
  /// malformed. `publisher` (0 = unknown) is excluded from local
  /// delivery: a subscriber never hears its own publications back,
  /// matching media-bridge semantics. When the decoded publisher matches
  /// the transport-derived one the frame is adopted verbatim as the
  /// delivery wire, so the broker re-encodes nothing and the whole
  /// fan-out shares the publisher's single allocation.
  bool ingress_event(const Payload& frame, ClientId publisher);
  /// Entry point for an event forwarded by a peer broker, decoded in place
  /// from its kPeerEvent frame; `targets` reads the frame's id list.
  void ingress_peer_event(RoutedRef routed, PeerTargets targets);
  /// Local fan-out of one event to every matching client (minus
  /// `exclude`): one NIC-gated ServiceCenter batch, one copy job per
  /// recipient. Fan-out jobs share the RoutedEvent — no per-recipient
  /// Event copy and at most one kEvent encode per event.
  void fan_out_local(const RoutedRef& ev, ClientId exclude);
  /// Returns a Fanout slot to the pool once its last copy has completed.
  void release_fanout(std::uint32_t slot);
  /// Forwards an event toward each remaining target broker, one copy per
  /// distinct next hop, submitted in ascending hop order.
  void route_remote(const RoutedEvent& ev, std::span<const BrokerId> targets);
  void deliver_copy(const ClientRec& c, const RoutedEvent& ev);
  /// Sends one hop's kPeerEvent frame (encoded by route_remote).
  void forward_to_peer(BrokerId next_hop, const Payload& frame);
  /// Any frame from an identified client is proof of life for its record.
  void note_heard(ClientId cid);

  /// Outgoing link to a peer broker (created by BrokerNetwork::link).
  void add_peer_link(BrokerId peer, transport::StreamConnectionPtr conn);
  /// The outgoing link to `peer`, or nullptr.
  [[nodiscard]] transport::StreamConnection* peer_link(BrokerId peer) const {
    return peer < peer_links_.size() ? peer_links_[peer].get() : nullptr;
  }

  sim::Host* host_;
  BrokerId id_;
  Config cfg_;
  BrokerNetwork* network_ = nullptr;  // set by BrokerNetwork::add_broker
  transport::StreamListener listener_;
  transport::DatagramSocket dgram_;
  /// Declared before dispatch_ and fanouts_, whose jobs and slots hold
  /// RoutedRefs: it is destroyed after them.
  sim::SlotPool<Routed> routed_;
  sim::ServiceCenter dispatch_;
  static constexpr std::uint32_t kNoClient = UINT32_MAX;
  /// The client table, indexed by ClientId: client_slot_[cid] is the
  /// slot of cid's record in client_recs_, or kNoClient once it is gone
  /// (id 0 is never minted). Ids are minted in order, so this vector's
  /// size is the next id, iterating it walks the clients in id order,
  /// and a dead id costs one entry. Records sit in never-moving slots:
  /// a reference held across a send or an advertisement stays valid.
  std::vector<std::uint32_t> client_slot_ = std::vector<std::uint32_t>(1, kNoClient);
  sim::SlotPool<ClientRec> client_recs_;
  std::size_t client_count_ = 0;
  /// Topic -> subscriber fast path (exact hash index + wildcard list +
  /// per-topic match cache); kept in sync with ClientRec::filters.
  SubscriptionIndex sub_index_;
  /// Reverse index: client's UDP endpoint -> id, to identify publishers of
  /// datagram-path events (hot path: one hash lookup per media packet).
  std::unordered_map<sim::Endpoint, ClientId, sim::EndpointHash> udp_index_;
  /// Outgoing peer links, indexed by BrokerId (null: no link).
  std::vector<transport::StreamConnectionPtr> peer_links_;
  /// Local fan-outs with copies still in the dispatch pool: the event and
  /// its recipients, copied from the match line at routing time (the line
  /// may change before the last copy leaves). The batch's callback
  /// captures the slot index; a slot is recycled, capacity kept, once its
  /// last accepted copy completes, so a warmed fan-out allocates nothing.
  struct Fanout {
    RoutedRef ev;
    std::vector<ClientId> cids;
    std::size_t pending = 0;
  };
  std::vector<Fanout> fanouts_;
  std::vector<std::uint32_t> free_fanouts_;
  /// Reused peer-path scratch (capacity kept across events): a peer
  /// event's targets minus this broker, and route_remote's (next hop,
  /// target index) grouping.
  std::vector<BrokerId> peer_rest_;
  std::vector<std::pair<BrokerId, std::uint32_t>> hop_groups_;
  std::vector<BrokerId> hop_targets_;
  /// Failure-detector state (ordered: heartbeat fan-out order must be
  /// deterministic). last-heard is bumped by every peer heartbeat.
  std::map<BrokerId, SimTime> peer_last_heard_;
  std::set<BrokerId> peer_down_;
  std::unique_ptr<sim::PeriodicTask> heartbeat_task_;
  std::unique_ptr<sim::PeriodicTask> client_keepalive_task_;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t links_detected_down_ = 0;
  std::uint64_t links_detected_up_ = 0;
  std::uint64_t clients_reaped_ = 0;
  /// Gossip state: per-origin flood dedup — highest seq already forwarded
  /// for (origin, link min, link max) — and our own origination counter.
  std::map<std::tuple<BrokerId, BrokerId, BrokerId>, std::uint32_t> lsa_seen_;
  std::uint32_t lsa_next_seq_ = 0;
  std::uint64_t link_states_flooded_ = 0;
  /// Ticks since the last gossip refresh re-flood (see heartbeat_tick).
  int gossip_refresh_countdown_ = 0;
  std::uint32_t next_probe_token_ = 1;
  std::map<std::uint32_t, std::pair<BrokerId, std::function<void(SimDuration)>>> probes_;
  std::map<BrokerId, SimDuration> srtt_;
  /// An accepted stream (from a client or a peer broker), kept alive
  /// here, and the client id its Hello minted (0 until then, and for
  /// peers). The stream's handlers capture only {this, slot}, which
  /// std::function stores inline, and its close frees the slot in O(1).
  struct Inbound {
    transport::StreamConnectionPtr conn;
    ClientId client = 0;
  };
  sim::SlotPool<Inbound> inbound_;
  std::uint64_t events_in_ = 0;
  std::uint64_t copies_delivered_ = 0;
  std::uint64_t peer_forwards_ = 0;
  std::uint64_t unroutable_events_ = 0;
  /// Targets we already warned about being unreachable — at media rates an
  /// unconditional per-event warning floods the log during a partition.
  std::set<BrokerId> warned_unroutable_;
};

}  // namespace gmmcs::broker
