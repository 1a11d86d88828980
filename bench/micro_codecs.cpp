// Extension bench A5 (DESIGN.md §4): micro-benchmarks of the hot codec
// and matching paths, via google-benchmark. These are the per-message
// costs every experiment above pays millions of times: RTP and broker
// event serialization, SIP/RTSP/XML text parsing, topic filter matching,
// and the discrete-event core itself; plus what one broker receiver
// costs to set up and to keep.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/event.hpp"
#include "broker/topic.hpp"
#include "common/random.hpp"
#include "rtp/packet.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "sip/message.hpp"
#include "transport/datagram_socket.hpp"
#include "xgsp/messages.hpp"
#include "xml/xml.hpp"

using namespace gmmcs;

namespace {
// Live heap bytes, for BM_ReceiverFootprint: each block carries its
// requested size in a header, so delete subtracts what new added. Every
// other benchmark here pays one relaxed atomic add per allocation.
constexpr std::size_t kHeader = alignof(std::max_align_t);
std::atomic<std::int64_t> g_live_bytes{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc{};
  *static_cast<std::size_t*>(base) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  return static_cast<std::byte*>(base) + kHeader;
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<std::byte*>(p) - kHeader;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(base)),
                         std::memory_order_relaxed);
  std::free(base);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

void BM_RtpSerialize(benchmark::State& state) {
  rtp::RtpPacket p;
  p.ssrc = 42;
  p.payload = Bytes(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RtpSerialize)->Arg(160)->Arg(960);

void BM_RtpParse(benchmark::State& state) {
  rtp::RtpPacket p;
  p.ssrc = 42;
  p.payload = Bytes(static_cast<std::size_t>(state.range(0)), 0xAB);
  const Payload wire{p.serialize()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtp::RtpPacket::parse(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RtpParse)->Arg(160)->Arg(960);

void BM_BrokerEventRoundTrip(benchmark::State& state) {
  broker::Event ev;
  ev.topic = "/xgsp/session/12345/video";
  ev.payload = Bytes(972, 0xCD);
  for (auto _ : state) {
    Payload wire{broker::encode(ev)};
    benchmark::DoNotOptimize(broker::decode(wire));
  }
}
BENCHMARK(BM_BrokerEventRoundTrip);

void BM_TopicFilterMatch(benchmark::State& state) {
  broker::TopicFilter exact("/xgsp/session/42/video");
  broker::TopicFilter star("/xgsp/session/*/video");
  broker::TopicFilter hash("/xgsp/session/42/#");
  std::string topic = "/xgsp/session/42/video";
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact.matches(topic));
    benchmark::DoNotOptimize(star.matches(topic));
    benchmark::DoNotOptimize(hash.matches(topic));
  }
}
BENCHMARK(BM_TopicFilterMatch);

void BM_SipParse(benchmark::State& state) {
  sip::SipMessage inv = sip::SipMessage::request("INVITE", "sip:conf-7@gmmcs",
                                                 "sip:alice@iu.edu", "sip:conf-7@gmmcs",
                                                 "call-123", 1);
  inv.set_header("Contact", "sim:9:5060");
  inv.body = "v=0\r\no=- 0 0 IN SIM 9\r\ns=x\r\nc=IN SIM 9\r\nt=0 0\r\n"
             "m=video 5004 RTP/AVP 31\r\na=rtpmap:31 H261/90000\r\n";
  std::string text = inv.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sip::SipMessage::parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SipParse);

void BM_XgspMessageRoundTrip(benchmark::State& state) {
  xgsp::Message m = xgsp::Message::create_session(
      "weekly", "gcf", xgsp::SessionMode::kScheduled, {{"audio", "PCMU"}, {"video", "H261"}});
  for (auto _ : state) {
    std::string text = m.serialize();
    benchmark::DoNotOptimize(xgsp::Message::parse(text));
  }
}
BENCHMARK(BM_XgspMessageRoundTrip);

void BM_XmlParse(benchmark::State& state) {
  xml::Element root("session");
  root.set_attr("id", "42");
  for (int i = 0; i < 20; ++i) {
    xml::Element& p = root.add_child("participant");
    p.set_attr("user", "user-" + std::to_string(i));
    p.set_attr("kind", "sip");
  }
  std::string text = root.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(xml::parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_XmlParse);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(SimTime{i * 1000}, [] {});
    }
    loop.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventLoopScheduleRun);

// The loop's steady state: N events stay pending, and each one schedules
// one successor a seeded delay later, so every iteration is one pop, one
// callback run in place and one push at depth N. The depths are the
// traced sim.loop.pending_peak of the perfbench workloads fig3_video
// (24), fabric_audio_churn (108) and batched_video_1200 (5,600) while
// every datagram in flight was its own loop event (5, 82 and 22 since
// link arrivals became lazy).
struct SteadyChain {
  sim::EventLoop* loop;
  const std::vector<std::int64_t>* delays;
  std::size_t* next;
  void operator()() const {
    const std::int64_t d = (*delays)[(*next)++ % delays->size()];
    loop->schedule_after(SimDuration{d}, *this);
  }
};

void BM_EventLoopSteadyState(benchmark::State& state) {
  sim::EventLoop loop;
  Rng rng(2003);
  std::vector<std::int64_t> delays(4096);
  for (std::int64_t& d : delays) d = rng.uniform_int(1, 2'000'000);  // 1 ns .. 2 ms
  std::size_t next = 0;
  const SteadyChain chain{&loop, &delays, &next};
  for (std::int64_t i = 0; i < state.range(0); ++i) chain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLoopSteadyState)->Arg(24)->Arg(108)->Arg(5600);

// The same steady state on direct events: each one fires a target that
// schedules its successor on the same target, with the delay index as its
// arg, so an iteration is one pop, one call through the target's function
// pointer and one push, with no parked callable. Beside
// BM_EventLoopSteadyState at the same depths, it prices what parking
// costs an event.
struct SteadyTarget : sim::EventTarget {
  sim::EventLoop* loop;
  const std::vector<std::int64_t>* delays;
  SteadyTarget(sim::EventLoop& l, const std::vector<std::int64_t>& d)
      : EventTarget{&SteadyTarget::fire_next}, loop(&l), delays(&d) {}
  static void fire_next(sim::EventTarget& target, std::uint64_t next) {
    auto& self = static_cast<SteadyTarget&>(target);
    const std::int64_t d = (*self.delays)[next % self.delays->size()];
    self.loop->schedule_at(self.loop->now() + SimDuration{d}, self, next + 1);
  }
};

void BM_EventLoopTarget(benchmark::State& state) {
  sim::EventLoop loop;
  Rng rng(2003);
  std::vector<std::int64_t> delays(4096);
  for (std::int64_t& d : delays) d = rng.uniform_int(1, 2'000'000);  // 1 ns .. 2 ms
  SteadyTarget target(loop, delays);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    SteadyTarget::fire_next(target, static_cast<std::uint64_t>(i) * 97);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLoopTarget)->Arg(24)->Arg(108);

// The fabric's heap shape: 48 parked periodic timers, one per audio
// source's 20 ms packet clock, spread over the period, beside a chain of N
// direct events that each schedule a successor 1-100 µs later (a link
// arrival, a dispatch completion). Almost every step runs a chain event,
// whose successor belongs near the root above the timers; the uniform
// delays of BM_EventLoopSteadyState and BM_EventLoopTarget land their
// successors at the leaves instead. fabric_audio_churn holds about 62
// entries at a push, 48 of them timers: N = 14.
struct ParkedTimer {
  sim::EventLoop* loop;
  void operator()() const { loop->schedule_after(duration_ms(20), *this); }
};

void BM_EventLoopTimerMix(benchmark::State& state) {
  constexpr int kTimers = 48;
  sim::EventLoop loop;
  Rng rng(2003);
  std::vector<std::int64_t> delays(4096);
  for (std::int64_t& d : delays) d = rng.uniform_int(1'000, 100'000);  // 1 .. 100 µs
  for (int t = 0; t < kTimers; ++t) {
    loop.schedule_after(SimDuration{rng.uniform_int(0, 20'000'000)}, ParkedTimer{&loop});
  }
  SteadyTarget chain(loop, delays);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    SteadyTarget::fire_next(chain, static_cast<std::uint64_t>(i) * 97);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLoopTimerMix)->Arg(1)->Arg(14);

// The wire's steady state: one sender keeps N datagrams between
// Host::send and delivery, round-robin to 12 receivers, and each delivery
// sends the next one. Every iteration is one arrival run to delivery plus
// one Host::send (NIC egress, path, arrival scheduling) at a fixed depth
// N; at N = 5,600 almost all of them wait in the sender's NIC backlog.
// The depths are the pending_peak values above for fig3_video (24) and
// batched_video_1200 (5,600).
void BM_NetworkBacklog(benchmark::State& state) {
  constexpr int kReceivers = 12;
  sim::EventLoop loop;
  sim::Network net(loop, 2003);
  net.set_default_path(sim::PathConfig{.latency = duration_us(200)});
  sim::Host& tx = net.add_host("tx");
  const Payload frame{Bytes(100, 0xAB)};
  int next = 0;
  std::vector<sim::Endpoint> to;
  for (int i = 0; i < kReceivers; ++i) {
    sim::Host& rx = net.add_host("rx" + std::to_string(i));
    rx.bind(5004, [&](const sim::Datagram&) {
      (void)tx.send(to[next++ % kReceivers], 5004, frame);
    });
    to.push_back(sim::Endpoint{rx.id(), 5004});
  }
  // The backlog stays far below the NIC's 4 MB queue: every send is taken.
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    (void)tx.send(to[next++ % kReceivers], 5004, frame);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkBacklog)->Arg(24)->Arg(5600);

// The receive path: N DatagramSockets on one host, each iteration one
// datagram delivered to the next of them, round-robin. Each delivery's
// handler sends the following datagram, so every iteration is one
// arrival (port lookup, socket handler) plus one Host::send. A handler
// captures one pointer, as a socket's owner binds `this`. N = 2 is a
// host with a couple of ports; N = 1,024 spreads the lookups over a
// table ten times the 100 sockets a batched_video_1200 receiver host
// holds.
struct RoundRobin {
  sim::Host* tx = nullptr;
  std::vector<sim::Endpoint> to;
  std::size_t next = 0;
  Payload frame{Bytes(100, 0xAB)};

  void send_next() { (void)tx->send(to[next++ % to.size()], 5004, frame); }
};

void BM_HostDeliver(benchmark::State& state) {
  sim::EventLoop loop;
  sim::Network net(loop, 2003);
  net.set_default_path(sim::PathConfig{.latency = duration_us(200)});
  RoundRobin rr;
  rr.tx = &net.add_host("tx");
  sim::Host& rx = net.add_host("rx");
  std::vector<std::unique_ptr<transport::DatagramSocket>> sockets;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sockets.push_back(std::make_unique<transport::DatagramSocket>(rx));
    sockets.back()->on_receive([&rr](const sim::Datagram&) { rr.send_next(); });
    rr.to.push_back(sockets.back()->local());
  }
  rr.send_next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HostDeliver)->Arg(2)->Arg(1024);

// One receiver's cost, in batched_video_1200's shape: one broker on 8
// dispatch threads, 100 receivers per host, every receiver a BrokerClient
// subscribed to one 4-segment topic. An iteration builds N receivers and
// runs the loop until every handshake and subscription has settled; the
// teardown is not timed. Counters: heap_B_per_rx, the live heap the
// fleet added per receiver (the same count as tests/footprint_test.cpp),
// and setup_us_per_rx, the timed work per receiver.
struct ReceiverFleet {
  sim::EventLoop loop;
  sim::Network net{loop, 2003};
  broker::BrokerNode broker{net.add_host("server-machine"), 0,
                            broker::BrokerNode::Config{
                                .dispatch = broker::DispatchConfig::snapshot()}};
  std::vector<std::unique_ptr<broker::BrokerClient>> rx;

  void add_receivers(int n) {
    sim::Host* host = nullptr;
    for (int i = 0; i < n; ++i) {
      if (i % 100 == 0) host = &net.add_host("rx-machine-" + std::to_string(i / 100));
      rx.push_back(std::make_unique<broker::BrokerClient>(
          *host, broker.stream_endpoint(),
          broker::BrokerClient::Config{.name = "rx-" + std::to_string(i)}));
      rx.back()->subscribe("/xgsp/session/lecture/video");
    }
    loop.run();
  }
};

void BM_ReceiverFootprint(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  double setup_s = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fleet = std::make_unique<ReceiverFleet>();
    fleet->rx.reserve(static_cast<std::size_t>(n));
    const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    fleet->add_receivers(n);
    setup_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    state.PauseTiming();
    bytes = g_live_bytes.load(std::memory_order_relaxed) - before;
    if (fleet->broker.client_count() != static_cast<std::size_t>(n)) {
      // Timing stays paused: ResumeTiming() after SkipWithError fails
      // google-benchmark's own check.
      state.SkipWithError("not every receiver completed its handshake");
      fleet.reset();
      break;
    }
    fleet.reset();
    state.ResumeTiming();
  }
  state.counters["heap_B_per_rx"] = static_cast<double>(bytes) / n;
  state.counters["setup_us_per_rx"] =
      setup_s * 1e6 / static_cast<double>(state.iterations()) / n;
}
BENCHMARK(BM_ReceiverFootprint)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// One client's departure from a broker whose subscription table holds N
// exact topics (a standing client subscribes to all of them). Each
// iteration connects 100 clients, each on one of those topics, untimed,
// then times their disconnects: the client drops its stream and the loop
// runs the broker's close path. A departure unsubscribes the client's own
// filters, so the cost per disconnect stays flat in N.
void BM_ClientDisconnect(benchmark::State& state) {
  constexpr int kLeaving = 100;
  const auto topics = static_cast<int>(state.range(0));
  sim::EventLoop loop;
  sim::Network net{loop, 2003};
  broker::BrokerNode broker{net.add_host("server-machine"), 0};
  sim::Host& rx_host = net.add_host("rx-machine");
  broker::BrokerClient standing(rx_host, broker.stream_endpoint(), {.name = "standing"});
  for (int t = 0; t < topics; ++t) standing.subscribe("/xgsp/session/" + std::to_string(t));
  loop.run();
  std::vector<std::unique_ptr<broker::BrokerClient>> leaving;
  int next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < kLeaving; ++i, ++next) {
      leaving.push_back(std::make_unique<broker::BrokerClient>(
          rx_host, broker.stream_endpoint(),
          broker::BrokerClient::Config{.name = "rx-" + std::to_string(next)}));
      leaving.back()->subscribe("/xgsp/session/" + std::to_string(next % topics));
    }
    loop.run();
    state.ResumeTiming();
    leaving.clear();
    loop.run();
  }
  if (broker.client_count() != 1) state.SkipWithError("a departed client kept its record");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kLeaving);
}
BENCHMARK(BM_ClientDisconnect)->Arg(10)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
