#include "broker/broker_node.hpp"

#include <algorithm>
#include <iterator>

#include "broker/broker_network.hpp"
#include "common/log.hpp"

namespace gmmcs::broker {

namespace {
/// Egress-queue headroom the fan-out's NIC gate keeps free.
constexpr std::size_t kNicSlackBytes = 64 * 1024;
}  // namespace

SimDuration DispatchConfig::copy_cost(std::size_t payload_bytes) const {
  auto size_part = static_cast<std::int64_t>(static_cast<double>(copy_per_kb.ns()) *
                                             static_cast<double>(payload_bytes) / 1024.0);
  return copy_fixed + SimDuration{size_part};
}

DispatchConfig DispatchConfig::optimized() {
  return DispatchConfig{};
}

DispatchConfig DispatchConfig::unoptimized() {
  // Pre-optimization NaradaBrokering transmission: per-recipient buffer
  // copies, per-send allocation and synchronized queues roughly double the
  // size-dependent cost and add fixed overhead.
  DispatchConfig cfg;
  cfg.copy_fixed = duration_us(12);
  cfg.copy_per_kb = duration_us(34);
  cfg.route_cost = duration_us(150);
  return cfg;
}

DispatchConfig DispatchConfig::snapshot() {
  DispatchConfig cfg;
  cfg.threads = 8;
  return cfg;
}

BrokerNode::BrokerNode(sim::Host& host, BrokerId id) : BrokerNode(host, id, Config{}) {}

BrokerNode::BrokerNode(sim::Host& host, BrokerId id, Config cfg)
    : host_(&host),
      id_(id),
      cfg_(cfg),
      listener_(host, cfg.stream_port),
      dgram_(host, cfg.dgram_port),
      dispatch_(host.loop(), cfg.dispatch.threads, cfg.dispatch.queue_limit) {
  listener_.on_accept([this](transport::StreamConnectionPtr conn) { accept(std::move(conn)); });
  dgram_.on_receive([this](const sim::Datagram& d) { handle_datagram(d); });
}

std::size_t BrokerNode::subscription_count() const {
  std::size_t n = 0;
  for (const std::uint32_t slot : client_slot_) {
    if (slot != kNoClient) n += client_recs_[slot].filters.size();
  }
  return n;
}

BrokerNode::ClientRec& BrokerNode::add_client() {
  const std::uint32_t slot = client_recs_.acquire();
  ClientRec& rec = client_recs_[slot];
  rec.id = static_cast<ClientId>(client_slot_.size());
  client_slot_.push_back(slot);
  ++client_count_;
  return rec;
}

transport::StreamConnectionPtr BrokerNode::drop_client(ClientRec& rec) {
  // Each filter holds one reference (handle_subscription dedups), so
  // unsubscribing them leaves no entry of this client behind.
  for (const auto& filter : rec.filters) {
    if (network_ != nullptr) network_->advertise(filter, id_, /*add=*/false);
    sub_index_.unsubscribe(rec.id, filter);
  }
  if (rec.has_udp) udp_index_.erase(rec.udp.packed(), rec.id);
  const std::uint32_t slot = client_slot_[rec.id];
  client_slot_[rec.id] = kNoClient;
  --client_count_;
  transport::StreamConnectionPtr stream = std::move(rec.stream);
  rec = ClientRec{};
  client_recs_.release(slot);
  return stream;
}

void BrokerNode::accept(transport::StreamConnectionPtr conn) {
  const std::uint32_t slot = inbound_.acquire();
  inbound_[slot].conn = conn;
  inbound_[slot].peer = peer_streams_.contains(conn->remote());
  // The connection's client identity is established by its Hello frame.
  conn->on_message([this, slot](const Payload& data) { handle_stream_frame(slot, data); });
  conn->on_close([this, slot] { close_inbound(slot); });
}

void BrokerNode::handle_stream_frame(std::uint32_t slot, const Payload& data) {
  // The slot stays ours while this runs: a stream's handler never runs
  // after its close, and no frame closes its own stream.
  Inbound& in = inbound_[slot];
  // Only a peer broker's stream carries broker-to-broker frames. From any
  // other stream, with or without a Hello, the peer hop would skip the
  // publisher stamp and let the sender address brokers directly, and
  // link state would rewrite every broker's routing view.
  if (!in.peer && !data.empty() &&
      (data[0] == static_cast<std::uint8_t>(MessageType::kPeerEvent) ||
       data[0] == static_cast<std::uint8_t>(MessageType::kLinkState))) {
    ++client_peer_frames_dropped_;
    return;
  }
  // The broker-to-broker hop and client events decode in place into a
  // recycled RoutedEvent: no Frame, no topic string, no target vector;
  // the route job reads a hop's targets straight from `data`.
  if (!data.empty() && data[0] == static_cast<std::uint8_t>(MessageType::kPeerEvent)) {
    RoutedRef routed = acquire_routed();
    Event& ev = routed.entry().ev.refill();
    PeerTargets targets;
    if (!decode_peer_event_into(data, ev, targets)) return;
    ev.hops = static_cast<std::uint8_t>(ev.hops + 1);
    ingress_peer_event(std::move(routed), std::move(targets));
    return;
  }
  if (!data.empty() && data[0] == static_cast<std::uint8_t>(MessageType::kEvent)) {
    ingress_event(data, in.client);
    return;
  }
  auto frame = decode(data);
  if (!frame.ok()) return;
  Frame f = std::move(frame).value();
  switch (f.type) {
    case MessageType::kHello: {
      // A repeat Hello on an already-identified connection would mint a
      // second ClientRec and leak the first (and its udp_index_ entry);
      // the connection keeps its original identity instead.
      if (in.client != 0) break;
      ClientRec& rec = add_client();
      const ClientId cid = rec.id;
      in.client = cid;
      rec.name = f.hello.client_name;
      rec.stream = in.conn;
      // Only an identified client's stream is watched: a peer's inbound
      // stream never is, since closing it would end that peer's outgoing
      // link for good.
      in.conn->watch(cfg_.client_idle, [this, slot](bool alive) {
        if (alive) return;
        ++clients_reaped_;
        evict_client(inbound_[slot].client);
      });
      if (f.hello.udp_port != 0) {
        rec.udp = sim::Endpoint{rec.stream->remote().node, f.hello.udp_port};
        rec.has_udp = true;
        // A fresh Hello claiming an endpoint another record holds means
        // that record is a ghost of a crashed-and-reconnected client;
        // evict it or both records would receive every matching event.
        if (const ClientId ghost = udp_client(rec.udp); ghost != 0) evict_client(ghost);
        udp_index_.insert(rec.udp.packed(), cid);
      }
      in.conn->send(encode(HelloAckMessage{cid, cfg_.dgram_port}));
      break;
    }
    case MessageType::kSubscribe:
    case MessageType::kUnsubscribe: {
      if (ClientRec* rec = find_client(in.client)) handle_subscription(*rec, f.subscribe);
      break;
    }
    case MessageType::kPing:
      // Probes ride the dispatch pipeline: a loaded broker pongs late.
      // Weak capture: the connection can die before the job runs (client
      // crash, ghost eviction by a reconnect Hello), and its slot may hold
      // another stream by then; the pong to a dead stream is simply
      // dropped, like a write to a closed socket.
      dispatch_.submit(cfg_.dispatch.route_cost,
                       [weak_conn = std::weak_ptr<transport::StreamConnection>(in.conn),
                        ping = f.ping] {
                         if (auto conn = weak_conn.lock()) conn->send(encode(ping, /*pong=*/true));
                       });
      break;
    case MessageType::kLinkState:
      handle_link_state(f.link_state);
      break;
    case MessageType::kHelloAck:
    case MessageType::kPong:
    case MessageType::kEvent:
    case MessageType::kPeerEvent:
      // kHelloAck and kPong are replies this broker never asks an inbound
      // stream for. kEvent and kPeerEvent never get here (handled above).
      break;
  }
}

void BrokerNode::close_inbound(std::uint32_t slot) {
  Inbound& in = inbound_[slot];
  if (ClientRec* rec = find_client(in.client)) drop_client(*rec);
  in.client = 0;
  // Released last: this may be the stream's last owner.
  const transport::StreamConnectionPtr conn = std::move(in.conn);
  inbound_.release(slot);
}

void BrokerNode::evict_client(ClientId cid) {
  ClientRec* rec = find_client(cid);
  if (rec == nullptr) return;
  // Closing the ghost's stream fires its on_close, which finds no client
  // record (already dropped) and just frees the connection's inbound_ slot.
  if (auto stream = drop_client(*rec)) stream->close();
}

void BrokerNode::handle_subscription(ClientRec& c, const SubscribeMessage& m) {
  TopicFilter filter(m.filter);
  if (!filter.valid()) return;
  if (m.subscribe) {
    if (std::find(c.filters.begin(), c.filters.end(), filter) == c.filters.end()) {
      c.filters.push_back(filter);
      sub_index_.subscribe(c.id, filter);
      if (network_ != nullptr) network_->advertise(filter, id_, /*add=*/true);
    }
  } else {
    auto before = c.filters.size();
    std::erase(c.filters, filter);
    if (c.filters.size() != before) {
      sub_index_.unsubscribe(c.id, filter);
      if (network_ != nullptr) network_->advertise(filter, id_, /*add=*/false);
    }
  }
}

void BrokerNode::handle_datagram(const sim::Datagram& d) {
  // Only kEvent frames are taken on the datagram channel.
  if (d.payload.empty() || d.payload[0] != static_cast<std::uint8_t>(MessageType::kEvent)) return;
  ingress_event(d.payload, udp_client(d.src));
}

BrokerNode::RoutedRef BrokerNode::acquire_routed() {
  const std::uint32_t slot = routed_.acquire();
  Routed& r = routed_[slot];
  r.node = this;
  r.slot = slot;
  return RoutedRef(&r);
}

void BrokerNode::recycle(Routed& r) {
  r.ev.clear();
  routed_.release(r.slot);
}

bool BrokerNode::ingress_event(const Payload& frame, ClientId publisher) {
  RoutedRef routed = acquire_routed();
  Routed& r = routed.entry();
  Event& ev = r.ev.refill();
  if (!decode_event_into(frame, ev)) return false;
  ++events_in_;
  // Frame adoption: clients stamp their own id at publish, so a
  // well-behaved event's arrival frame is byte-for-byte the frame every
  // recipient should receive — adopt it and encode nothing. A mismatched
  // claim (publisher spoofing, pre-Hello traffic) is overridden with the
  // transport-derived identity and re-encoded lazily as before.
  if (ev.publisher == publisher) r.ev.adopt_wire(frame);
  ev.publisher = publisher;
  // The interest table as it reads now, copied into the recycled list.
  r.remote.clear();
  if (network_ != nullptr) {
    const std::vector<BrokerId>& remote = network_->interested_brokers(ev.topic, id_);
    r.remote.assign(remote.begin(), remote.end());
  }
  // One shared RoutedEvent for the whole fan-out: every copy job holds the
  // same payload buffer and the kEvent frame is adopted or encoded at most
  // once.
  dispatch_.submit(cfg_.dispatch.route_cost, [this, publisher, routed = std::move(routed)] {
    fan_out_local(routed, publisher);
    const Routed& r = routed.entry();
    if (!r.remote.empty()) route_remote(r.ev, r.remote);
  });
  return true;
}

void BrokerNode::ingress_peer_event(RoutedRef routed, PeerTargets targets) {
  ++events_in_;
  // {this, routed, targets} = 40 bytes: inline in the job's SmallFn.
  dispatch_.submit(cfg_.dispatch.route_cost, [this, routed = std::move(routed),
                                              targets = std::move(targets)] {
    // Deliver locally if we are a target; forward the rest.
    peer_rest_.clear();
    bool local = false;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const BrokerId t = targets[i];
      if (t == id_) {
        local = true;
      } else {
        peer_rest_.push_back(t);
      }
    }
    if (local) fan_out_local(routed, /*exclude=*/0);
    // A standalone broker has no fabric to forward into; only a hostile or
    // broken sender names other brokers to it.
    if (peer_rest_.empty() || network_ == nullptr) return;
    // A path that visits no broker twice is shorter than the broker count,
    // so an event that long is circling between brokers whose link-state
    // views disagree: it goes no further.
    if (routed->event().hops >= std::min<std::size_t>(network_->broker_count(), UINT8_MAX)) {
      ++hop_limited_events_;
      return;
    }
    route_remote(*routed, peer_rest_);
  });
}

void BrokerNode::fan_out_local(const RoutedRef& ev, ClientId exclude) {
  // The index's cached match line, minus `exclude`, copied into a
  // recycled Fanout slot.
  const std::vector<ClientId>& line = sub_index_.matches(ev->event().topic);
  std::uint32_t slot = 0;
  if (free_fanouts_.empty()) {
    slot = static_cast<std::uint32_t>(fanouts_.size());
    fanouts_.emplace_back();
  } else {
    slot = free_fanouts_.back();
    free_fanouts_.pop_back();
  }
  Fanout& f = fanouts_[slot];
  f.cids.clear();
  std::copy_if(line.begin(), line.end(), std::back_inserter(f.cids),
               [exclude](ClientId cid) { return cid != exclude; });
  if (f.cids.empty()) {
    free_fanouts_.push_back(slot);
    return;
  }
  f.ev = ev;
  // The NIC gate lets dispatch threads block on a full egress queue (the
  // copies below all leave through host_'s NIC); it binds only when that
  // queue would overflow.
  const sim::NicConfig& nic = host_->nic_config();
  sim::NicGate gate;
  gate.wire_bytes = ev->wire().size() + nic.overhead_bytes;
  gate.nic_bps = nic.egress_bps;
  gate.nic_cap = nic.queue_bytes;
  gate.nic_slack = kNicSlackBytes;
  auto deliver = [this, slot](std::size_t i) {
    Fanout& fo = fanouts_[slot];
    if (const ClientRec* c = find_client(fo.cids[i])) deliver_copy(*c, *fo.ev);
    if (--fo.pending == 0) release_fanout(slot);
  };
  const SimDuration cost = cfg_.dispatch.copy_cost(ev->event().payload.size());
  f.pending = dispatch_.submit_batch(f.cids.size(), cost, deliver, gate);
  if (f.pending == 0) release_fanout(slot);
}

void BrokerNode::release_fanout(std::uint32_t slot) {
  fanouts_[slot].ev = RoutedRef();
  free_fanouts_.push_back(slot);
}

void BrokerNode::route_remote(const RoutedEvent& ev, std::span<const BrokerId> targets) {
  // Group remaining target brokers by next hop; one forwarded copy per hop.
  // Unreachable brokers (fabric partitions, links not yet finalized) are
  // skipped rather than faulting the dispatch path.
  const RouteTables& routes = network_->routes();
  hop_groups_.clear();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const BrokerId t = targets[i];
    if (routes.distance(id_, t) < 0) {
      ++unroutable_events_;
      if (warned_unroutable_.insert(t).second) {
        GMMCS_WARN("broker") << "broker " << id_ << ": no route to interested broker " << t
                             << " (counted in unroutable_events; further drops to this "
                                "target logged silently)";
      }
      continue;
    }
    hop_groups_.emplace_back(routes.next_hop(id_, t), static_cast<std::uint32_t>(i));
  }
  // (hop, index) order: forwards go out in ascending hop order, each
  // hop's targets in arrival order — deterministic.
  std::sort(hop_groups_.begin(), hop_groups_.end());
  const SimDuration cost = cfg_.dispatch.copy_cost(ev.event().payload.size());
  for (std::size_t g = 0; g < hop_groups_.size();) {
    const BrokerId hop = hop_groups_[g].first;
    hop_targets_.clear();
    for (; g < hop_groups_.size() && hop_groups_[g].first == hop; ++g) {
      hop_targets_.push_back(targets[hop_groups_[g].second]);
    }
    // Peer framing embeds the hop's target set, so it cannot reuse the
    // cached kEvent frame; it is encoded here, once per next hop, straight
    // from the shared event into one block whose headroom the stream's
    // kData byte takes. {this, hop, frame} = 40 bytes: inline.
    Payload frame = encode_peer_event(ev.event(), hop_targets_);
    dispatch_.submit(cost, [this, hop, frame = std::move(frame)] { forward_to_peer(hop, frame); });
  }
}

void BrokerNode::deliver_copy(const ClientRec& c, const RoutedEvent& ev) {
  ++copies_delivered_;
  // One shared frame, usually adopted straight from the publisher; each
  // recipient's datagram/stream payload is a refcounted handle to it —
  // payload_copy_count() proves no bytes move here.
  const Payload& wire = ev.wire();
  if (c.has_udp && ev.event().qos == QoS::kBestEffort) {
    // Best effort: a copy the NIC refuses is lost, like a UDP send into a
    // full socket buffer. The fan-out's NIC gate keeps headroom, so this
    // counts only what slips past it (a host down, a queue shared with
    // other senders).
    if (!host_->send(c.udp, cfg_.dgram_port, wire)) ++copies_nic_dropped_;
  } else if (c.stream) {
    c.stream->send(wire);
  }
}

void BrokerNode::forward_to_peer(BrokerId next_hop, const Payload& frame) {
  transport::StreamConnection* link = peer_link(next_hop);
  if (link == nullptr) {
    GMMCS_WARN("broker") << "broker " << id_ << " has no link toward " << next_hop;
    return;
  }
  ++peer_forwards_;
  link->send(frame);
}

void BrokerNode::add_peer_link(BrokerId peer, transport::StreamConnectionPtr conn) {
  // Pongs (and future peer-control frames) come back on our outgoing link.
  conn->on_message([this](const Payload& data) {
    auto frame = decode(data);
    if (!frame.ok() || frame.value().type != MessageType::kPong) return;
    auto it = probes_.find(frame.value().ping.token);
    if (it == probes_.end()) return;
    auto [peer_id, cb] = std::move(it->second);
    probes_.erase(it);
    SimDuration rtt = host_->loop().now() - frame.value().ping.sent;
    auto sit = srtt_.find(peer_id);
    if (sit == srtt_.end()) {
      srtt_[peer_id] = rtt;
    } else {
      // RFC 793-style smoothing: srtt = 7/8 srtt + 1/8 sample.
      sit->second = SimDuration{(sit->second.ns() * 7 + rtt.ns()) / 8};
    }
    if (cb) cb(rtt);
  });
  conn->watch(cfg_.idle, [this, peer](bool alive) { originate_link_state(peer, alive); });
  if (peer >= peer_links_.size()) peer_links_.resize(peer + 1);
  peer_links_[peer] = std::move(conn);
  if (!gossip_refresh_task_ && cfg_.idle.interval.ns() > 0) {
    // First refresh one interval in, then every misses x interval.
    gossip_refresh_task_ = std::make_unique<sim::PeriodicTask>(
        host_->loop(), cfg_.idle.interval * cfg_.idle.misses,
        [this](std::uint64_t) { gossip_refresh(); });
    gossip_refresh_task_->start_after(cfg_.idle.interval);
  }
}

bool BrokerNode::peer_considered_down(BrokerId peer) const {
  const auto it = link_table_.find(std::minmax(id_, peer));
  return it != link_table_.end() && !it->second.ends[id_ < peer ? 0 : 1].up;
}

void BrokerNode::gossip_refresh() {
  for (const auto& [link, entry] : link_table_) {
    if (link.first != id_ && link.second != id_) continue;
    const bool low = link.first == id_;
    const LinkReport& own = entry.ends[low ? 0 : 1];
    // Applying the fresh report rewrites this entry in place.
    if (own.seq != 0) originate_link_state(low ? link.second : link.first, own.up);
  }
}

void BrokerNode::originate_link_state(BrokerId peer, bool up) {
  LinkStateMessage m;
  m.origin = id_;
  m.seq = ++lsa_next_seq_;
  m.a = id_;
  m.b = peer;
  m.up = up;
  // A fresh seq is always newer; the flood's echo of it is not.
  (void)network_->apply_report(id_, m);
  flood_link_state(m);
}

void BrokerNode::handle_link_state(const LinkStateMessage& m) {
  // A peer's frame is outside input: a report speaks for one end of its
  // link, and only this broker's detector writes this broker's reports.
  if ((m.origin != m.a && m.origin != m.b) || m.origin == id_) return;
  // Forward a newer report once to every peer, back toward the sender
  // too: the seq rule ends the flood.
  if (network_->apply_report(id_, m)) flood_link_state(m);
}

void BrokerNode::flood_link_state(const LinkStateMessage& m) {
  // One encode, shared by every peer link (refcounted handle per send).
  const Payload wire = encode(m);
  // peer_links_ is indexed by BrokerId: deterministic flood order.
  for (const transport::StreamConnectionPtr& link : peer_links_) {
    if (link == nullptr) continue;
    link->send(wire);
    ++link_states_flooded_;
  }
}

void BrokerNode::probe_peer(BrokerId peer, std::function<void(SimDuration)> cb) {
  transport::StreamConnection* link = peer_link(peer);
  if (link == nullptr) return;
  PingMessage ping;
  ping.token = next_probe_token_++;
  ping.sent = host_->loop().now();
  probes_[ping.token] = {peer, std::move(cb)};
  link->send(encode(ping, /*pong=*/false));
}

}  // namespace gmmcs::broker
