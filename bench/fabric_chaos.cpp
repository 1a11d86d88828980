// Self-healing fabric bench: delivery and repair under injected faults.
//
// A 6-broker ring runs a steady 50 events/s publish stream while a
// FaultPlan crashes brokers (overlapping, transiently partitioning the
// publisher's broker), flaps a fabric link and fires a loss burst at a
// reliable subscriber. Measured:
//   - best-effort delivery ratio while faults are active vs overall,
//   - eventual delivery ratio of the reliable (NAK-repair) profile,
//   - route-repair detection latency (idle-detector miss -> routes rebuilt),
//   - client reconnect latency (idle-detector miss -> backoff -> re-Hello).
// Writes BENCH_fabric_chaos.json. Fully deterministic per seed.
//
// Generated mode (--seed S [--plans N] [--quick]) swaps the
// scripted scenario for a ChaosGen batch: N generated (topology, plan)
// pairs run through the chaos harness + oracle, with one JSON data point
// per plan tagged by generator seed and plan hash so any point is
// replayable (`chaos-spec v1` from sim/chaos_gen). Scripted mode stays
// the default and its output is untouched.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/chaos.hpp"
#include "broker/client.hpp"
#include "broker/reliable.hpp"
#include "sim/chaos_gen.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

using namespace gmmcs;

namespace {

constexpr const char* kTopic = "/conf/chaos";

struct Pcts {
  double median_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t count = 0;
};

Pcts percentiles(std::vector<SimDuration> v) {
  Pcts out;
  out.count = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  out.median_ms = v[v.size() / 2].to_ms();
  auto idx = static_cast<std::size_t>(static_cast<double>(v.size()) * 0.99);
  out.p99_ms = v[std::min(idx, v.size() - 1)].to_ms();
  return out;
}

struct SubStats {
  std::set<std::uint32_t> seqs;  // received publisher sequence numbers
};

bool in_fault_window(const sim::FaultPlan& plan, SimTime t) {
  return plan.active_at(t);
}

int run_generated(std::uint64_t seed, std::uint64_t plans) {
  sim::ChaosGen gen(seed);
  std::uint64_t passed = 0, violations = 0;
  broker::ChaosMetrics total;
  FILE* json = std::fopen("BENCH_fabric_chaos_generated.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"fabric_chaos_generated\",\n");
    std::fprintf(json, "  \"generator_seed\": %llu,\n  \"plans\": %llu,\n",
                 static_cast<unsigned long long>(seed), static_cast<unsigned long long>(plans));
    std::fprintf(json, "  \"points\": [\n");
  }
  std::printf("=== Fabric chaos: generated plans (seed %llu, %llu plans) ===\n",
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(plans));
  for (std::uint64_t i = 0; i < plans; ++i) {
    const sim::ChaosSpec spec = gen.next();
    const broker::ChaosOutcome out = broker::run_chaos(spec);
    passed += out.ok() ? 1 : 0;
    violations += out.violations.size();
    const broker::ChaosMetrics& m = out.metrics;
    total.reliable_delivered += m.reliable_delivered;
    total.reliable_recovered += m.reliable_recovered;
    total.reliable_lost += m.reliable_lost;
    total.events_in += m.events_in;
    total.copies_delivered += m.copies_delivered;
    total.route_recomputes += m.route_recomputes;
    total.clients_reaped += m.clients_reaped;
    total.client_reconnects += m.client_reconnects;
    total.link_states_flooded += m.link_states_flooded;
    total.hop_limited_events += m.hop_limited_events;
    total.unroutable_events += m.unroutable_events;
    if (json != nullptr) {
      std::fprintf(json,
                   "    {\"seed\": %llu, \"plan_hash\": \"%016llx\", \"ok\": %s, "
                   "\"brokers\": %d, \"faults\": %zu, \"reliable_delivered\": %llu, "
                   "\"reliable_recovered\": %llu, \"route_recomputes\": %llu, "
                   "\"clients_reaped\": %llu}%s\n",
                   static_cast<unsigned long long>(spec.seed),
                   static_cast<unsigned long long>(spec.hash()), out.ok() ? "true" : "false",
                   spec.brokers, spec.faults.size(),
                   static_cast<unsigned long long>(m.reliable_delivered),
                   static_cast<unsigned long long>(m.reliable_recovered),
                   static_cast<unsigned long long>(m.route_recomputes),
                   static_cast<unsigned long long>(m.clients_reaped),
                   i + 1 < plans ? "," : "");
    }
    if (!out.ok()) {
      std::printf("plan %llu (seed %llu) VIOLATED:\n",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(spec.seed));
      for (const broker::ChaosViolation& v : out.violations) {
        std::printf("  %s: %s\n", v.invariant.c_str(), v.detail.c_str());
      }
      std::printf("replay spec:\n%s", spec.serialize().c_str());
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "  ],\n  \"passed\": %llu,\n  \"violations\": %llu,\n",
                 static_cast<unsigned long long>(passed),
                 static_cast<unsigned long long>(violations));
    std::fprintf(json,
                 "  \"totals\": {\"reliable_delivered\": %llu, \"reliable_recovered\": %llu, "
                 "\"reliable_lost\": %llu, \"events_in\": %llu, \"copies_delivered\": %llu, "
                 "\"route_recomputes\": %llu, \"clients_reaped\": %llu, "
                 "\"client_reconnects\": %llu, \"link_states_flooded\": %llu, "
                 "\"hop_limited_events\": %llu, \"unroutable_events\": %llu}\n}\n",
                 static_cast<unsigned long long>(total.reliable_delivered),
                 static_cast<unsigned long long>(total.reliable_recovered),
                 static_cast<unsigned long long>(total.reliable_lost),
                 static_cast<unsigned long long>(total.events_in),
                 static_cast<unsigned long long>(total.copies_delivered),
                 static_cast<unsigned long long>(total.route_recomputes),
                 static_cast<unsigned long long>(total.clients_reaped),
                 static_cast<unsigned long long>(total.client_reconnects),
                 static_cast<unsigned long long>(total.link_states_flooded),
                 static_cast<unsigned long long>(total.hop_limited_events),
                 static_cast<unsigned long long>(total.unroutable_events));
    std::fclose(json);
  }
  std::printf("\n%llu/%llu plans passed the oracle (%llu violations)\n",
              static_cast<unsigned long long>(passed), static_cast<unsigned long long>(plans),
              static_cast<unsigned long long>(violations));
  std::printf("totals: reliable %llu delivered / %llu recovered / %llu lost, "
              "%llu route recomputes, %llu clients reaped, %llu client reconnects, "
              "%llu LSAs, %llu hop-limited, %llu unroutable\n",
              static_cast<unsigned long long>(total.reliable_delivered),
              static_cast<unsigned long long>(total.reliable_recovered),
              static_cast<unsigned long long>(total.reliable_lost),
              static_cast<unsigned long long>(total.route_recomputes),
              static_cast<unsigned long long>(total.clients_reaped),
              static_cast<unsigned long long>(total.client_reconnects),
              static_cast<unsigned long long>(total.link_states_flooded),
              static_cast<unsigned long long>(total.hop_limited_events),
              static_cast<unsigned long long>(total.unroutable_events));
  if (json != nullptr) std::printf("wrote BENCH_fabric_chaos_generated.json\n");
  return passed == plans ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool generated = false, quick = false;
  std::uint64_t seed = 20260809, plans = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      generated = true;
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--plans") == 0 && i + 1 < argc) {
      generated = true;
      plans = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      generated = true;
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed S] [--plans N] [--quick]\n"
                   "With no flags, runs the scripted 6-broker scenario.\n",
                   argv[0]);
      return 2;
    }
  }
  if (generated) {
    if (plans == 0) plans = quick ? 5 : 50;
    return run_generated(seed, plans);
  }
  sim::EventLoop loop;
  sim::Network net(loop, 4242);

  broker::BrokerNetwork fabric(net);
  broker::BrokerNode::Config bcfg;
  bcfg.idle = {duration_ms(50), 3};
  std::vector<sim::Host*> broker_hosts;
  for (int i = 0; i < 6; ++i) {
    sim::Host& h = net.add_host("b" + std::to_string(i));
    broker_hosts.push_back(&h);
    fabric.add_broker(h, bcfg);
  }
  for (int i = 0; i < 6; ++i) fabric.link(i, (i + 1) % 6);
  fabric.finalize();

  // Publisher and the reliable pipeline sit on the never-crashed broker 0;
  // best-effort subscribers sit across the ring (b2: reroute coverage,
  // b5: broker-restart + client-reconnect coverage).
  broker::BrokerClient pub(net.add_host("pub"), fabric.broker(0).stream_endpoint(),
                           {.name = "pub"});
  broker::BrokerClient sub2(net.add_host("sub2"), fabric.broker(2).stream_endpoint(),
                            {.name = "sub2"});
  broker::BrokerClient::Config s5cfg;
  s5cfg.name = "sub5";
  s5cfg.reconnect.enabled = true;
  s5cfg.reconnect.backoff_base = duration_ms(100);
  s5cfg.reconnect.idle = {duration_ms(100), 3};
  broker::BrokerClient sub5(net.add_host("sub5"), fabric.broker(5).stream_endpoint(), s5cfg);

  sim::Host& rsub_host = net.add_host("rsub");
  broker::RecoveryService recovery(net.add_host("recovery"),
                                   fabric.broker(0).stream_endpoint(), kTopic);
  broker::ReliableSubscriber rsub(rsub_host, fabric.broker(0).stream_endpoint(), kTopic,
                                  recovery.endpoint());

  SubStats st2, st5;
  sub2.subscribe(kTopic);
  sub5.subscribe(kTopic);
  sub2.on_event([&](const broker::Event& ev) { st2.seqs.insert(ev.seq); });
  sub5.on_event([&](const broker::Event& ev) { st5.seqs.insert(ev.seq); });

  // --- The fault plan ---
  sim::FaultPlan plan;
  plan.crash_host(broker_hosts[5]->id(), SimTime{duration_ms(1500).ns()},
                  SimTime{duration_ms(2500).ns()});
  plan.crash_host(broker_hosts[1]->id(), SimTime{duration_ms(2000).ns()},
                  SimTime{duration_ms(3500).ns()});
  // Overlap 2.0-2.5 s: both neighbors of broker 0 are dead, transiently
  // partitioning the publisher's broker from the whole ring.
  plan.flap_link(broker_hosts[1]->id(), broker_hosts[2]->id(), SimTime{duration_ms(5000).ns()},
                 SimTime{duration_ms(5800).ns()});
  plan.loss_burst(broker_hosts[0]->id(), rsub_host.id(), SimTime{duration_ms(6500).ns()},
                  SimTime{duration_ms(7000).ns()}, /*loss=*/0.6, /*burst_length=*/4.0);
  plan.install(net);

  // --- Repair / reconnect instrumentation ---
  // Boundary times at which link state genuinely changed; detection
  // latency is measured from the most recent boundary.
  std::vector<SimTime> boundaries = {
      SimTime{duration_ms(1500).ns()}, SimTime{duration_ms(2000).ns()},
      SimTime{duration_ms(2500).ns()}, SimTime{duration_ms(3500).ns()},
      SimTime{duration_ms(5000).ns()}, SimTime{duration_ms(5800).ns()}};
  std::vector<SimDuration> repair_lat;
  fabric.on_route_repair([&](broker::BrokerId, broker::BrokerId, bool, SimTime at) {
    SimTime cause = SimTime::zero();
    for (SimTime b : boundaries) {
      if (b <= at && b > cause) cause = b;
    }
    repair_lat.push_back(at - cause);
  });
  std::vector<SimDuration> reconnect_lat;
  SimTime down_at = SimTime::zero();
  sub5.on_disconnect([&] { down_at = loop.now(); });
  sub5.on_reconnect([&] { reconnect_lat.push_back(loop.now() - down_at); });

  // --- Publish schedule: 50 events/s from 0.5 s to 8.0 s ---
  const SimTime pub_start{duration_ms(500).ns()};
  const SimDuration spacing = duration_ms(20);
  const int n_events = 375;
  std::vector<SimTime> origins;
  for (int i = 0; i < n_events; ++i) {
    SimTime at = pub_start + spacing * i;
    origins.push_back(at);
    loop.schedule_at(at, [&pub] { pub.publish(kTopic, Bytes(256, 0)); });
  }
  loop.run_until(SimTime{duration_s(10).ns()});

  // --- Report ---
  auto ratio = [&](const SubStats& st, bool during_faults) {
    int published = 0, got = 0;
    for (int i = 0; i < n_events; ++i) {
      if (in_fault_window(plan, origins[i]) != during_faults) continue;
      ++published;
      if (st.seqs.contains(static_cast<std::uint32_t>(i))) ++got;
    }
    return published == 0 ? 1.0 : static_cast<double>(got) / published;
  };
  const double sub2_fault = ratio(st2, true), sub2_calm = ratio(st2, false);
  const double sub5_fault = ratio(st5, true), sub5_calm = ratio(st5, false);
  const double eventual =
      static_cast<double>(rsub.delivered()) / static_cast<double>(n_events);
  Pcts repair = percentiles(repair_lat);
  Pcts reconnect = percentiles(reconnect_lat);

  std::printf("=== Fabric chaos: self-healing under injected faults ===\n");
  std::printf("6-broker ring, idle detector 50 ms x3, %d events @50/s, seed 4242\n\n", n_events);
  std::printf("%-34s %10s %10s\n", "best-effort delivery ratio", "in-fault", "calm");
  std::printf("%-34s %9.1f%% %9.1f%%\n", "  sub on rerouted broker (b2)", sub2_fault * 100,
              sub2_calm * 100);
  std::printf("%-34s %9.1f%% %9.1f%%\n", "  sub on crashed broker (b5)", sub5_fault * 100,
              sub5_calm * 100);
  std::printf("\nreliable profile (NAK/SYNC repair, recovery on b0):\n");
  std::printf("  delivered %llu  recovered %llu  lost %llu  -> eventual ratio %.4f\n",
              static_cast<unsigned long long>(rsub.delivered()),
              static_cast<unsigned long long>(rsub.recovered()),
              static_cast<unsigned long long>(rsub.events_lost()), eventual);
  std::printf("\nself-healing latencies:\n");
  std::printf("  route repair   n=%zu  median %.1f ms  p99 %.1f ms  (%llu recomputes)\n",
              repair.count, repair.median_ms, repair.p99_ms,
              static_cast<unsigned long long>(fabric.route_recomputes()));
  std::printf("  client reconnect n=%zu  median %.1f ms  p99 %.1f ms\n", reconnect.count,
              reconnect.median_ms, reconnect.p99_ms);

  FILE* json = std::fopen("BENCH_fabric_chaos.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"fabric_chaos\",\n  \"seed\": 4242,\n");
    std::fprintf(json, "  \"events_published\": %d,\n", n_events);
    std::fprintf(json,
                 "  \"best_effort\": {\n"
                 "    \"sub_rerouted\": {\"delivery_during_faults\": %.4f, \"calm\": %.4f},\n"
                 "    \"sub_crashed_broker\": {\"delivery_during_faults\": %.4f, \"calm\": "
                 "%.4f}\n  },\n",
                 sub2_fault, sub2_calm, sub5_fault, sub5_calm);
    std::fprintf(json,
                 "  \"reliable\": {\"delivered\": %llu, \"recovered\": %llu, \"lost\": %llu, "
                 "\"eventual_delivery_ratio\": %.4f},\n",
                 static_cast<unsigned long long>(rsub.delivered()),
                 static_cast<unsigned long long>(rsub.recovered()),
                 static_cast<unsigned long long>(rsub.events_lost()), eventual);
    std::fprintf(json,
                 "  \"route_repair_ms\": {\"count\": %zu, \"median\": %.2f, \"p99\": %.2f},\n",
                 repair.count, repair.median_ms, repair.p99_ms);
    std::fprintf(json,
                 "  \"client_reconnect_ms\": {\"count\": %zu, \"median\": %.2f, \"p99\": "
                 "%.2f},\n",
                 reconnect.count, reconnect.median_ms, reconnect.p99_ms);
    std::fprintf(json, "  \"route_recomputes\": %llu\n}\n",
                 static_cast<unsigned long long>(fabric.route_recomputes()));
    std::fclose(json);
    std::printf("\nwrote BENCH_fabric_chaos.json\n");
  }
  return 0;
}
