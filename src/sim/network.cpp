#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmmcs::sim {

std::string Endpoint::to_string() const {
  return "host" + std::to_string(node) + ":" + std::to_string(port);
}

Host::Host(Network& net, NodeId id, std::string name, NicConfig cfg)
    : net_(&net), id_(id), name_(std::move(name)), nic_(cfg) {}

EventLoop& Host::loop() const {
  return net_->loop();
}

void Host::bind(std::uint16_t port, Handler handler) {
  if (!up_) {
    throw std::logic_error("Host '" + name_ + "': bind on port " + std::to_string(port) +
                           " while host is down");
  }
  if (is_bound(port)) {
    throw std::logic_error("Host '" + name_ + "': port " + std::to_string(port) +
                           " already bound");
  }
  const std::uint32_t slot = handlers_.acquire();
  handlers_[slot] = std::move(handler);
  ports_.insert(port, slot);
}

void Host::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (!up) {
    // Power loss wipes the NIC: queued bytes vanish (they must not
    // serialize when power returns).
    last_down_at_ = loop().now();
    nic_fifo_.clear();
    nic_queued_bytes_ = 0;
    nic_free_at_ = loop().now();
  }
}

std::uint16_t Host::bind_ephemeral(Handler handler) {
  constexpr unsigned kEphemeralCount = 65536 - kEphemeralFirst;
  for (unsigned tried = 0; tried < kEphemeralCount; ++tried) {
    const std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = port == 65535 ? kEphemeralFirst : static_cast<std::uint16_t>(port + 1);
    if (!is_bound(port)) {
      bind(port, std::move(handler));
      return port;
    }
  }
  throw std::runtime_error("Host '" + name_ + "': all ephemeral ports are bound");
}

void Host::rebind(std::uint16_t port, Handler handler) {
  std::uint32_t* slot = ports_.lookup(port);
  if (slot == nullptr) {
    throw std::logic_error("Host '" + name_ + "': rebind of unbound port " + std::to_string(port));
  }
  if (*slot != running_) {
    handlers_[*slot] = std::move(handler);
    return;
  }
  // The running handler must outlive its call: the port moves to a fresh
  // slot and the old one is freed once the call returns.
  const std::uint32_t fresh = handlers_.acquire();
  handlers_[fresh] = std::move(handler);
  retire(*slot);
  *slot = fresh;
}

void Host::unbind(std::uint16_t port) {
  const std::uint32_t slot = ports_.find(port);
  if (slot == kNoSlot) return;
  ports_.erase(port, slot);
  retire(slot);
}

void Host::retire(std::uint32_t slot) {
  if (slot == running_) {
    running_ = kNoSlot;  // deliver() frees it after the call
    return;
  }
  handlers_[slot] = nullptr;
  handlers_.release(slot);
}

SimDuration Host::nic_backlog_delay() const {
  SimTime now = loop().now();
  if (nic_free_at_ <= now) return SimDuration{0};
  return nic_free_at_ - now;
}

bool Host::departed(const NicDeparture& p) const {
  return loop().passed(p.depart, p.mark);
}

void Host::release_departed() {
  while (!nic_fifo_.empty() && departed(nic_fifo_.front())) {
    nic_queued_bytes_ -= nic_fifo_.front().bytes;
    nic_fifo_.pop_front();
  }
}

std::size_t Host::nic_queued_bytes() const {
  std::size_t queued = nic_queued_bytes_;
  for (std::size_t i = 0; i < nic_fifo_.size() && departed(nic_fifo_[i]); ++i) {
    queued -= nic_fifo_[i].bytes;
  }
  return queued;
}

bool Host::egress(std::size_t wire_bytes, SimTime& depart) {
  // Single-server drop-tail queue modeled in virtual time: the NIC is busy
  // until nic_free_at_; a packet's bytes count against the queue until it
  // departs. Departures are in FIFO order, so the departed packets are a
  // prefix of nic_fifo_, released here rather than by a loop event each.
  release_departed();
  if (nic_queued_bytes_ + wire_bytes > nic_.queue_bytes) {
    ++nic_dropped_;
    return false;
  }
  EventLoop& lp = loop();
  SimTime now = lp.now();
  SimTime start = std::max(now, nic_free_at_);
  auto ser = duration_seconds(static_cast<double>(wire_bytes) * 8.0 / nic_.egress_bps);
  depart = start + ser;
  nic_free_at_ = depart;
  nic_queued_bytes_ += wire_bytes;
  nic_fifo_.push_back(NicDeparture{depart, lp.next_seq(), wire_bytes});
  ++nic_sent_;
  return true;
}

bool Host::send(Endpoint dst, std::uint16_t src_port, Payload payload, bool reliable) {
  net_->require_host(dst.node);
  if (!up_) return false;
  std::size_t wire = payload.size() + nic_.overhead_bytes;
  SimTime depart;
  if (!egress(wire, depart)) return false;
  Datagram d;
  d.src = Endpoint{id_, src_port};
  d.dst = dst;
  d.payload = std::move(payload);
  d.sent_at = loop().now();
  d.reliable = reliable;
  if (egress_observer_) egress_observer_(d);
  net_->transmit(*this, std::move(d), depart);
  return true;
}

void Host::send_multicast(GroupId group, std::uint16_t src_port, Payload payload) {
  if (!up_) return;
  std::size_t wire = payload.size() + nic_.overhead_bytes;
  SimTime depart;
  if (!egress(wire, depart)) return;
  Datagram d;
  d.src = Endpoint{id_, src_port};
  d.payload = std::move(payload);
  d.sent_at = loop().now();
  d.group = group;
  net_->transmit_multicast(*this, group, d, depart);
}

void Host::deliver(const Datagram& d) {
  if (!up_) return;
  if (ingress_filter_ && !ingress_filter_(d)) return;
  const std::uint32_t slot = ports_.find(d.dst.port);
  if (slot == kNoSlot) return;  // no listener: silently dropped, like UDP
  Handler& handler = handlers_[slot];
  if (!handler) return;
  running_ = slot;
  handler(d);
  if (running_ == kNoSlot) {
    // The handler unbound or rebound its own port: free its slot now.
    handler = nullptr;
    handlers_.release(slot);
  }
  running_ = kNoSlot;
}

Network::Network(EventLoop& loop, std::uint64_t seed)
    : EventTarget{&Network::fire_arrival}, loop_(&loop), rng_(seed) {}

Host& Network::add_host(std::string name, NicConfig cfg) {
  auto id = static_cast<NodeId>(hosts_.size());
  hosts_.push_back(std::unique_ptr<Host>(new Host(*this, id, std::move(name), cfg)));
  return *hosts_.back();
}

Host& Network::host(NodeId id) {
  return *hosts_.at(id);
}

const Host& Network::host(NodeId id) const {
  return *hosts_.at(id);
}

void Network::require_host(NodeId node) const {
  if (node >= hosts_.size()) {
    throw std::out_of_range("Network: no host " + std::to_string(node));
  }
}

void Network::set_path(NodeId a, NodeId b, PathConfig cfg) {
  require_host(a);
  require_host(b);
  paths_[std::minmax(a, b)] = cfg;
  ++path_gen_;
}

PathConfig Network::path(NodeId a, NodeId b) const {
  // Effective path: the most recent live override wins over the base model.
  if (!path_overrides_.empty()) {
    auto ov = path_overrides_.find(std::minmax(a, b));
    if (ov != path_overrides_.end() && !ov->second.empty()) return ov->second.back().second;
  }
  auto it = paths_.find(std::minmax(a, b));
  return it == paths_.end() ? default_path_ : it->second;
}

Network::OverrideToken Network::push_path_override(NodeId a, NodeId b, PathConfig cfg) {
  require_host(a);
  require_host(b);
  OverrideToken token = next_override_token_++;
  path_overrides_[std::minmax(a, b)].emplace_back(token, cfg);
  ++path_gen_;
  return token;
}

void Network::pop_path_override(NodeId a, NodeId b, OverrideToken token) {
  auto it = path_overrides_.find(std::minmax(a, b));
  if (it == path_overrides_.end()) return;
  auto& stack = it->second;
  std::erase_if(stack, [token](const auto& e) { return e.first == token; });
  if (stack.empty()) path_overrides_.erase(it);
  ++path_gen_;
}

Network::OverrideToken Network::push_host_degrade(NodeId node, double loss, double burst_length) {
  require_host(node);
  OverrideToken token = next_override_token_++;
  host_degrade_[node].emplace_back(token, loss, burst_length);
  return token;
}

void Network::pop_host_degrade(NodeId node, OverrideToken token) {
  auto it = host_degrade_.find(node);
  if (it == host_degrade_.end()) return;
  auto& stack = it->second;
  std::erase_if(stack, [token](const auto& e) { return std::get<0>(e) == token; });
  if (stack.empty()) {
    host_degrade_.erase(it);
    // Restore a clean NIC: forget the gray burst chain for this source.
    for (Link& l : links_) {
      if (l.src == node) l.gray_in_burst = false;
    }
  }
}

GroupId Network::create_group() {
  GroupId g = next_group_++;
  groups_[g];
  return g;
}

void Network::join_group(GroupId group, Endpoint member) {
  require_host(member.node);
  auto& members = groups_.at(group);
  if (std::find(members.begin(), members.end(), member) == members.end()) {
    members.push_back(member);
  }
}

void Network::leave_group(GroupId group, Endpoint member) {
  auto& members = groups_.at(group);
  members.erase(std::remove(members.begin(), members.end(), member), members.end());
}

std::size_t Network::group_size(GroupId group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.size();
}

void Network::set_link_up(NodeId a, NodeId b, bool up) {
  require_host(a);
  require_host(b);
  if (up) {
    cut_links_.erase(std::minmax(a, b));
  } else {
    cut_links_.insert(std::minmax(a, b));
  }
}

void Network::set_link_up_oneway(NodeId src, NodeId dst, bool up) {
  require_host(src);
  require_host(dst);
  if (up) {
    down_oneway_.erase({src, dst});
  } else {
    down_oneway_.insert({src, dst});
  }
}

std::uint32_t Network::link_id(NodeId src, NodeId dst) {
  const std::uint64_t key = (std::uint64_t{src} << 32) | dst;
  const auto same = [&](std::uint32_t id) {
    return links_[id].src == src && links_[id].dst == dst;
  };
  if (const std::uint32_t id = link_index_.find(key, same); id != kNone) return id;
  // First datagram on this pair: add its record.
  const auto id = static_cast<std::uint32_t>(links_.size());
  links_.push_back(Link{.src = src, .dst = dst});
  link_index_.insert(key, id);
  return id;
}

const PathConfig& Network::path_of(Link& l) {
  if (l.path_gen != path_gen_) {
    l.path = path(l.src, l.dst);
    l.path_gen = path_gen_;
  }
  return l.path;
}

bool Network::roll_loss(double loss, double burst_length, bool& in_burst) {
  if (loss <= 0.0) return false;
  if (burst_length <= 1.0) return rng_.chance(loss);
  // Gilbert–Elliott: leave a burst with rate r = 1/L; enter one with
  // p = r * loss / (1 - loss), giving stationary loss p/(p+r) = loss.
  double r = 1.0 / burst_length;
  double p = r * loss / (1.0 - loss);
  if (in_burst) {
    if (rng_.chance(r)) in_burst = false;
  } else {
    if (rng_.chance(p)) in_burst = true;
  }
  return in_burst;
}

bool Network::gray_drop(Link& l) {
  if (host_degrade_.empty()) return false;
  auto it = host_degrade_.find(l.src);
  if (it == host_degrade_.end() || it->second.empty()) return false;
  const auto& [token, loss, burst] = it->second.back();
  (void)token;
  return roll_loss(loss, burst, l.gray_in_burst);
}

void Network::transmit(Host& from, Datagram&& d, SimTime depart) {
  // Administratively-cut links (symmetric or one-way) drop everything,
  // reliable traffic included.
  if (!link_up_directed(from.id(), d.dst.node)) {
    ++lost_;
    return;
  }
  const std::uint32_t id = link_id(from.id(), d.dst.node);
  Link& l = links_[id];
  const PathConfig& p = path_of(l);
  if (!d.reliable && roll_loss(p.loss, p.burst_length, l.in_burst)) {
    ++lost_;
    return;
  }
  // Gray failure: a degraded host's egress bleeds best-effort traffic while
  // reliable control traffic still flows (detectors keep seeing a healthy
  // peer).
  if (!d.reliable && gray_drop(l)) {
    ++lost_;
    return;
  }
  schedule_arrival(id, std::move(d), depart, depart + p.latency);
}

void Network::schedule_arrival(std::uint32_t link, Datagram&& d, SimTime depart,
                               SimTime arrive_at) {
  // The key is taken here, where a schedule_at of the arrival would take
  // it, so every sequence number, NIC mark and same-time tie is the one a
  // per-datagram arrival event would have had.
  const std::uint64_t seq = loop_->reserve_seq();
  const std::uint32_t slot = inflight_.acquire();
  InFlight& f = inflight_[slot];
  f.d = std::move(d);
  f.depart = depart;
  f.when = std::max(arrive_at, loop_->now());
  f.seq = seq;
  f.next = kNone;
  Link& l = links_[link];
  // The FIFO is empty once its tail's arrival has run (or is running: it
  // read its `next` before delivering), by the same tie rule as the NIC's
  // lazy release.
  const bool queued = !loop_->passed(l.tail_when, l.tail_seq);
  if (queued && f.when < l.tail_when) {
    // Overtakes the FIFO's tail (the path's latency fell, or a crash reset
    // the source's NIC, since the tail left): a FIFO must stay in key
    // order, so this one is its own loop event.
    post(slot);
    return;
  }
  if (queued) inflight_[l.tail].next = slot;
  l.tail = slot;
  l.tail_when = f.when;
  l.tail_seq = seq;
  if (!queued) post(slot);
}

void Network::post(std::uint32_t slot) {
  const InFlight& f = inflight_[slot];
  loop_->schedule_reserved(f.when, f.seq, *this, slot);
}

void Network::arrive(std::uint32_t slot) {
  // The handler reads the datagram where it is parked. It may send, which
  // parks more datagrams; the pool never moves a slot, and this one is
  // released only after the handler returns.
  InFlight& f = inflight_[slot];
  // Hand the link on before the handler runs: the handler may send on
  // this link, and must then find this arrival done and its FIFO empty
  // or headed by the arrival posted here.
  if (f.next != kNone) post(f.next);
  // The source crashing while the datagram sat in its NIC queue wipes it.
  if (hosts_[f.d.src.node]->egress_wiped(f.d.sent_at, f.depart)) {
    ++lost_;
  } else {
    ++delivered_;
    hosts_[f.d.dst.node]->deliver(f.d);
  }
  f.d.payload = Payload{};  // drop the buffer reference before the slot idles
  inflight_.release(slot);
}

void Network::transmit_multicast(Host& from, GroupId group, const Datagram& d,
                                 SimTime depart) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  for (const Endpoint& member : it->second) {
    if (member.node == from.id() && member.port == d.src.port) continue;  // no self-loop
    if (!link_up_directed(from.id(), member.node)) {
      ++lost_;
      continue;
    }
    const std::uint32_t id = link_id(from.id(), member.node);
    Link& l = links_[id];
    const PathConfig& p = path_of(l);
    if (roll_loss(p.loss, p.burst_length, l.in_burst) || gray_drop(l)) {
      ++lost_;
      continue;
    }
    Datagram copy = d;
    copy.dst = member;
    schedule_arrival(id, std::move(copy), depart, depart + p.latency);
  }
}

}  // namespace gmmcs::sim
