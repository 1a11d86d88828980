// Extension bench A5 (DESIGN.md §4): micro-benchmarks of the hot codec
// and matching paths, via google-benchmark. These are the per-message
// costs every experiment above pays millions of times: RTP and broker
// event serialization, SIP/RTSP/XML text parsing, topic filter matching,
// and the discrete-event core itself.
#include <benchmark/benchmark.h>

#include <vector>

#include "broker/event.hpp"
#include "broker/topic.hpp"
#include "common/random.hpp"
#include "rtp/packet.hpp"
#include "sim/event_loop.hpp"
#include "sip/message.hpp"
#include "xgsp/messages.hpp"
#include "xml/xml.hpp"

using namespace gmmcs;

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
// (24), fabric_audio_churn (108) and batched_video_1200 (5,600).
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

}  // namespace

BENCHMARK_MAIN();
