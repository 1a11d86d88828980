#include "broker/chaos.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/reliable.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace gmmcs::broker {

namespace {

constexpr const char* kReliableTopic = "/chaos/reliable";
constexpr std::int64_t kTrafficStartMs = 300;

std::string topic_name(int index) { return "/chaos/t" + std::to_string(index); }

/// A client crashed past the end of the run never comes back: its checks
/// are skipped and its broker record is *expected* to be reaped.
bool permanently_crashed(const sim::ChaosSpec& spec, int client) {
  for (const sim::ChaosFault& f : spec.faults) {
    if (f.kind == sim::FaultPlan::FaultKind::kHostCrash &&
        f.a.kind == sim::ChaosRefKind::kClient && f.a.index == client &&
        f.until > spec.horizon) {
      return true;
    }
  }
  return false;
}

/// Reference all-pairs hop counts over the spec's full (healed) topology.
std::map<int, std::map<int, int>> reference_distances(const sim::ChaosSpec& spec) {
  std::map<int, std::set<int>> adj;
  for (int i = 0; i < spec.brokers; ++i) adj[i];
  for (const auto& [a, b] : spec.links) {
    adj[a].insert(b);
    adj[b].insert(a);
  }
  std::map<int, std::map<int, int>> dist;
  for (int src = 0; src < spec.brokers; ++src) {
    auto& d = dist[src];
    d[src] = 0;
    std::deque<int> queue{src};
    while (!queue.empty()) {
      int cur = queue.front();
      queue.pop_front();
      for (int nb : adj[cur]) {
        if (d.contains(nb)) continue;
        d[nb] = d[cur] + 1;
        queue.push_back(nb);
      }
    }
  }
  return dist;
}

}  // namespace

ChaosOutcome run_chaos(const sim::ChaosSpec& spec, const ChaosOptions& opts) {
  sim::EventLoop loop;
  sim::Network net(loop, spec.seed ^ 0x5DEECE66Dull);

  // --- Fabric ---
  BrokerNetwork fabric(net);
  BrokerNode::Config bcfg;
  bcfg.idle = {duration_ms(50), 3};
  if (opts.ghost_reap) {
    // Kept apart from the peer links' setting, and longer than the
    // longest one-way outage the generator produces (1.2 s): the
    // reliable pipeline's clients run no detector of their own, so a
    // record the broker reaped behind a cut would never come back.
    bcfg.client_idle = {duration_ms(250), 8};
  }
  std::vector<sim::Host*> broker_hosts;
  for (int i = 0; i < spec.brokers; ++i) {
    sim::Host& h = net.add_host("b" + std::to_string(i));
    broker_hosts.push_back(&h);
    fabric.add_broker(h, bcfg);
  }
  for (const auto& [a, b] : spec.links) fabric.link(a, b);
  fabric.finalize();

  // --- Reliable pipeline, pinned to broker 0 (never crashed) ---
  sim::Host& pub_host = net.add_host("pub");
  sim::Host& recovery_host = net.add_host("recovery");
  sim::Host& rsub_host = net.add_host("rsub");
  BrokerClient pub(pub_host, fabric.broker(0).stream_endpoint(), {.name = "pub"});
  RecoveryService recovery(recovery_host, fabric.broker(0).stream_endpoint(), kReliableTopic);
  ReliableSubscriber rsub(rsub_host, fabric.broker(0).stream_endpoint(), kReliableTopic,
                          recovery.endpoint(), /*give_up=*/duration_s(1),
                          /*sync_interval=*/duration_ms(100));
  const SimTime traffic_start{duration_ms(kTrafficStartMs).ns()};
  for (int i = 0; i < spec.reliable_events; ++i) {
    loop.schedule_at(traffic_start + spec.reliable_spacing * i,
                     [&pub] { pub.publish(kReliableTopic, Bytes(128, 0)); });
  }

  // --- Generated clients ---
  std::vector<sim::Host*> client_hosts;
  std::vector<std::unique_ptr<BrokerClient>> clients;
  for (std::size_t i = 0; i < spec.clients.size(); ++i) {
    const sim::ChaosClient& cc = spec.clients[i];
    sim::Host& h = net.add_host("c" + std::to_string(i));
    client_hosts.push_back(&h);
    BrokerClient::Config cfg;
    cfg.name = "c" + std::to_string(i);
    cfg.udp_delivery = !cc.stream_only;
    cfg.udp_publish = !cc.stream_only;
    cfg.reconnect.enabled = true;
    cfg.reconnect.backoff_base = duration_ms(100);
    cfg.reconnect.backoff_max = duration_ms(500);
    // A SYN every 100 ms and a 300 ms handshake guard.
    cfg.reconnect.idle = {duration_ms(100), 3};
    auto& client = clients.emplace_back(std::make_unique<BrokerClient>(
        h, fabric.broker(cc.broker).stream_endpoint(), cfg));
    client->subscribe(topic_name(cc.topic));
    for (int e = 0; e < cc.events; ++e) {
      loop.schedule_at(traffic_start + cc.spacing * e,
                       [c = client.get(), t = topic_name(cc.topic)] {
                         c->publish(t, Bytes(128, 0));
                       });
    }
  }

  // --- Fault plan ---
  auto node_of = [&](const sim::ChaosRef& r) -> sim::NodeId {
    switch (r.kind) {
      case sim::ChaosRefKind::kBroker:
        return broker_hosts[static_cast<std::size_t>(r.index)]->id();
      case sim::ChaosRefKind::kClient:
        return client_hosts[static_cast<std::size_t>(r.index)]->id();
      case sim::ChaosRefKind::kRsub:
        return rsub_host.id();
    }
    return broker_hosts[0]->id();
  };
  sim::FaultPlan plan;
  for (const sim::ChaosFault& f : spec.faults) {
    switch (f.kind) {
      case sim::FaultPlan::FaultKind::kHostCrash:
        plan.crash_host(node_of(f.a), f.from, f.until);
        break;
      case sim::FaultPlan::FaultKind::kLinkFlap:
        plan.flap_link(node_of(f.a), node_of(f.b), f.from, f.until);
        break;
      case sim::FaultPlan::FaultKind::kLossBurst:
        plan.loss_burst(node_of(f.a), node_of(f.b), f.from, f.until, f.loss, f.burst_length);
        break;
      case sim::FaultPlan::FaultKind::kOneWayCut:
        plan.cut_oneway(node_of(f.a), node_of(f.b), f.from, f.until);
        break;
      case sim::FaultPlan::FaultKind::kGrayHost:
        plan.gray_host(node_of(f.a), f.from, f.until, f.loss, f.burst_length);
        break;
      case sim::FaultPlan::FaultKind::kPartition: {
        std::vector<sim::NodeId> side_a, side_b;
        for (int i : f.group_a) side_a.push_back(broker_hosts[static_cast<std::size_t>(i)]->id());
        for (int i : f.group_b) side_b.push_back(broker_hosts[static_cast<std::size_t>(i)]->id());
        plan.partition(std::move(side_a), std::move(side_b), f.from, f.until);
        break;
      }
    }
  }
  plan.install(net);

  loop.run_until(spec.horizon + spec.settle);

  // --- Oracle ---
  ChaosOutcome out;
  auto violate = [&out](const char* invariant, std::string detail) {
    out.violations.push_back({invariant, std::move(detail)});
  };

  // 1. Reliable eventual delivery.
  if (rsub.delivered() != static_cast<std::uint64_t>(spec.reliable_events) ||
      rsub.events_lost() != 0) {
    violate("reliable-delivery",
            "delivered " + std::to_string(rsub.delivered()) + "/" +
                std::to_string(spec.reliable_events) + ", lost " +
                std::to_string(rsub.events_lost()));
  }

  // 2. Route convergence after the last fault healed.
  const auto ref = reference_distances(spec);
  for (int from = 0; from < spec.brokers; ++from) {
    for (int to = 0; to < spec.brokers; ++to) {
      const auto& row = ref.at(from);
      const auto it = row.find(to);
      const int want = it == row.end() ? -1 : it->second;
      const int got = fabric.distance(from, to);
      if (got != want) {
        violate("route-convergence", "distance(" + std::to_string(from) + "," +
                                         std::to_string(to) + ") = " + std::to_string(got) +
                                         ", expected " + std::to_string(want));
      }
    }
  }
  for (const auto& [a, b] : spec.links) {
    if (!fabric.link_considered_up(a, b)) {
      violate("route-convergence", "link (" + std::to_string(a) + "," + std::to_string(b) +
                                       ") still down at a detector");
    }
  }

  // 3. No ghost client records: each broker holds exactly its genuinely
  // attached clients (plus the three pipeline clients on broker 0).
  std::map<int, std::size_t> expected;
  for (int i = 0; i < spec.brokers; ++i) expected[i] = i == 0 ? 3 : 0;
  for (std::size_t i = 0; i < spec.clients.size(); ++i) {
    if (!permanently_crashed(spec, static_cast<int>(i))) {
      ++expected[spec.clients[i].broker];
    }
  }
  for (int i = 0; i < spec.brokers; ++i) {
    const std::size_t got = fabric.broker(i).client_count();
    if (got != expected[i]) {
      violate("ghost-records", "broker " + std::to_string(i) + " has " + std::to_string(got) +
                                   " client records, expected " + std::to_string(expected[i]));
    }
  }

  // 4. No stuck streams: every surviving client is connected and flushed.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (permanently_crashed(spec, static_cast<int>(i))) continue;
    if (!clients[i]->ready() || clients[i]->pending_publishes() != 0) {
      violate("stuck-streams", "client c" + std::to_string(i) + " ready=" +
                                   (clients[i]->ready() ? "1" : "0") + " pending=" +
                                   std::to_string(clients[i]->pending_publishes()));
    }
  }
  if (!pub.ready() || pub.pending_publishes() != 0) {
    violate("stuck-streams", "reliable publisher ready=" + std::string(pub.ready() ? "1" : "0") +
                                 " pending=" + std::to_string(pub.pending_publishes()));
  }

  // --- Metrics fingerprint ---
  out.metrics.reliable_delivered = rsub.delivered();
  out.metrics.reliable_recovered = rsub.recovered();
  out.metrics.reliable_lost = rsub.events_lost();
  for (int i = 0; i < spec.brokers; ++i) {
    BrokerNode& b = fabric.broker(i);
    out.metrics.events_in += b.events_in();
    out.metrics.copies_delivered += b.copies_delivered();
    out.metrics.peer_forwards += b.peer_forwards();
    out.metrics.clients_reaped += b.clients_reaped();
    out.metrics.link_states_flooded += b.link_states_flooded();
    out.metrics.hop_limited_events += b.hop_limited_events();
    out.metrics.unroutable_events += b.unroutable_events();
  }
  out.metrics.route_recomputes = fabric.route_recomputes();
  for (const auto& c : clients) {
    out.metrics.client_events_received += c->events_received();
    out.metrics.client_reconnects += c->reconnects();
  }
  out.metrics.net_delivered = net.delivered();
  out.metrics.net_lost = net.lost();
  return out;
}

namespace {

/// Removes client `index` from the spec: its faults go with it and refs
/// to later clients shift down one.
sim::ChaosSpec without_client(const sim::ChaosSpec& spec, int index) {
  sim::ChaosSpec out = spec;
  out.clients.erase(out.clients.begin() + index);
  std::erase_if(out.faults, [index](const sim::ChaosFault& f) {
    return (f.a.kind == sim::ChaosRefKind::kClient && f.a.index == index) ||
           (f.b.kind == sim::ChaosRefKind::kClient && f.b.index == index);
  });
  for (sim::ChaosFault& f : out.faults) {
    if (f.a.kind == sim::ChaosRefKind::kClient && f.a.index > index) --f.a.index;
    if (f.b.kind == sim::ChaosRefKind::kClient && f.b.index > index) --f.b.index;
  }
  return out;
}

}  // namespace

sim::ChaosSpec shrink_chaos(const sim::ChaosSpec& spec, const ChaosOptions& opts) {
  auto fails = [&opts](const sim::ChaosSpec& s) { return !run_chaos(s, opts).ok(); };
  if (!fails(spec)) return spec;
  sim::ChaosSpec cur = spec;
  bool progress = true;
  while (progress) {
    progress = false;
    // Drop faults one at a time.
    for (std::size_t i = 0; i < cur.faults.size();) {
      sim::ChaosSpec trial = cur;
      trial.faults.erase(trial.faults.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(trial)) {
        cur = std::move(trial);
        progress = true;
      } else {
        ++i;
      }
    }
    // Drop clients (with their faults).
    for (int i = 0; i < static_cast<int>(cur.clients.size());) {
      sim::ChaosSpec trial = without_client(cur, i);
      if (fails(trial)) {
        cur = std::move(trial);
        progress = true;
      } else {
        ++i;
      }
    }
    // Halve traffic.
    if (cur.reliable_events > 0 ||
        std::any_of(cur.clients.begin(), cur.clients.end(),
                    [](const sim::ChaosClient& c) { return c.events > 0; })) {
      sim::ChaosSpec trial = cur;
      trial.reliable_events /= 2;
      for (sim::ChaosClient& c : trial.clients) c.events /= 2;
      if (fails(trial)) {
        cur = std::move(trial);
        progress = true;
      }
    }
  }
  return cur;
}

}  // namespace gmmcs::broker
