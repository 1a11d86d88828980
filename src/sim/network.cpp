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
  auto [it, inserted] = ports_.emplace(port, std::move(handler));
  if (!inserted) {
    throw std::logic_error("Host '" + name_ + "': port " + std::to_string(port) +
                           " already bound");
  }
}

void Host::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (!up) {
    // Power loss wipes the NIC: queued bytes vanish (they must not
    // serialize when power returns).
    last_down_at_ = loop().now();
    nic_fifo_.clear();
    nic_head_ = 0;
    nic_queued_bytes_ = 0;
    nic_free_at_ = loop().now();
  }
}

std::uint16_t Host::bind_ephemeral(Handler handler) {
  while (ports_.contains(next_ephemeral_)) {
    ++next_ephemeral_;
    if (next_ephemeral_ == 0) next_ephemeral_ = 49152;
  }
  std::uint16_t port = next_ephemeral_++;
  bind(port, std::move(handler));
  return port;
}

void Host::unbind(std::uint16_t port) {
  ports_.erase(port);
}

bool Host::is_bound(std::uint16_t port) const {
  return ports_.contains(port);
}

SimDuration Host::nic_backlog_delay() const {
  SimTime now = loop().now();
  if (nic_free_at_ <= now) return SimDuration{0};
  return nic_free_at_ - now;
}

bool Host::departed(const NicDeparture& p) const {
  const EventLoop& lp = loop();
  return p.depart < lp.now() || (p.depart == lp.now() && p.mark <= lp.current_seq());
}

void Host::release_departed() {
  while (nic_head_ < nic_fifo_.size() && departed(nic_fifo_[nic_head_])) {
    nic_queued_bytes_ -= nic_fifo_[nic_head_].bytes;
    ++nic_head_;
  }
  if (nic_head_ == nic_fifo_.size()) {
    nic_fifo_.clear();
    nic_head_ = 0;
  } else if (nic_head_ >= 64 && nic_head_ * 2 >= nic_fifo_.size()) {
    // Sustained backlog: trim the released prefix in place.
    nic_fifo_.erase(nic_fifo_.begin(), nic_fifo_.begin() + static_cast<std::ptrdiff_t>(nic_head_));
    nic_head_ = 0;
  }
}

std::size_t Host::nic_queued_bytes() const {
  std::size_t queued = nic_queued_bytes_;
  for (std::size_t i = nic_head_; i < nic_fifo_.size() && departed(nic_fifo_[i]); ++i) {
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
  auto it = ports_.find(d.dst.port);
  if (it == ports_.end()) return;  // no listener: silently dropped, like UDP
  it->second(d);
}

Network::Network(EventLoop& loop, std::uint64_t seed) : loop_(&loop), rng_(seed) {}

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

void Network::set_path(NodeId a, NodeId b, PathConfig cfg) {
  paths_[std::minmax(a, b)] = cfg;
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
  OverrideToken token = next_override_token_++;
  path_overrides_[std::minmax(a, b)].emplace_back(token, cfg);
  return token;
}

void Network::pop_path_override(NodeId a, NodeId b, OverrideToken token) {
  auto it = path_overrides_.find(std::minmax(a, b));
  if (it == path_overrides_.end()) return;
  auto& stack = it->second;
  std::erase_if(stack, [token](const auto& e) { return e.first == token; });
  if (stack.empty()) path_overrides_.erase(it);
}

Network::OverrideToken Network::push_host_degrade(NodeId node, double loss, double burst_length) {
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
    std::erase_if(gray_burst_state_,
                  [node](const auto& e) { return e.first.first == node; });
  }
}

GroupId Network::create_group() {
  GroupId g = next_group_++;
  groups_[g];
  return g;
}

void Network::join_group(GroupId group, Endpoint member) {
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
  if (up) {
    down_links_.erase(std::minmax(a, b));
  } else {
    down_links_.insert(std::minmax(a, b));
  }
}

void Network::set_link_up_oneway(NodeId src, NodeId dst, bool up) {
  if (up) {
    down_oneway_.erase({src, dst});
  } else {
    down_oneway_.insert({src, dst});
  }
}

bool Network::roll_loss(const PathConfig& cfg, NodeId src, NodeId dst) {
  return roll_loss_in(burst_state_, cfg.loss, cfg.burst_length, src, dst);
}

bool Network::roll_loss_in(std::map<std::pair<NodeId, NodeId>, bool>& state, double loss,
                           double burst_length, NodeId src, NodeId dst) {
  if (loss <= 0.0) return false;
  if (burst_length <= 1.0) return rng_.chance(loss);
  // Gilbert–Elliott: leave a burst with rate r = 1/L; enter one with
  // p = r * loss / (1 - loss), giving stationary loss p/(p+r) = loss.
  double r = 1.0 / burst_length;
  double p = r * loss / (1.0 - loss);
  bool& in_burst = state[{src, dst}];
  if (in_burst) {
    if (rng_.chance(r)) in_burst = false;
  } else {
    if (rng_.chance(p)) in_burst = true;
  }
  return in_burst;
}

bool Network::gray_drop(NodeId src, NodeId dst) {
  if (host_degrade_.empty()) return false;
  auto it = host_degrade_.find(src);
  if (it == host_degrade_.end() || it->second.empty()) return false;
  const auto& [token, loss, burst] = it->second.back();
  (void)token;
  return roll_loss_in(gray_burst_state_, loss, burst, src, dst);
}

void Network::transmit(Host& from, Datagram&& d, SimTime depart) {
  // Administratively-cut links (symmetric or one-way) drop everything,
  // reliable traffic included.
  if (!link_up_directed(from.id(), d.dst.node)) {
    ++lost_;
    return;
  }
  PathConfig p = path(from.id(), d.dst.node);
  if (!d.reliable && roll_loss(p, from.id(), d.dst.node)) {
    ++lost_;
    return;
  }
  // Gray failure: a degraded host's egress bleeds best-effort traffic while
  // reliable control traffic still flows (detectors keep seeing a healthy
  // peer).
  if (!d.reliable && gray_drop(from.id(), d.dst.node)) {
    ++lost_;
    return;
  }
  schedule_arrival(std::move(d), depart, depart + p.latency);
}

void Network::schedule_arrival(Datagram&& d, SimTime depart, SimTime arrive_at) {
  if (d.dst.node >= hosts_.size()) {
    throw std::out_of_range("Network: no host " + std::to_string(d.dst.node));
  }
  const std::uint32_t slot = inflight_.acquire();
  InFlight& f = inflight_[slot];
  f.d = std::move(d);
  f.depart = depart;
  loop_->schedule_at(arrive_at, [this, slot] { arrive(slot); });
}

void Network::arrive(std::uint32_t slot) {
  // The handler reads the datagram where it is parked. It may send, which
  // parks more datagrams; the pool never moves a slot, and this one is
  // released only after the handler returns.
  InFlight& f = inflight_[slot];
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
    PathConfig p = path(from.id(), member.node);
    if (roll_loss(p, from.id(), member.node) || gray_drop(from.id(), member.node)) {
      ++lost_;
      continue;
    }
    Datagram copy = d;
    copy.dst = member;
    schedule_arrival(std::move(copy), depart, depart + p.latency);
  }
}

}  // namespace gmmcs::sim
