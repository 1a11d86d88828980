#include "core/experiments.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "baseline/jmf_reflector.hpp"
#include "broker/client.hpp"
#include "media/generator.hpp"
#include "media/probe.hpp"
#include "rtp/session.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "transport/datagram_socket.hpp"

namespace gmmcs::core {

const char* to_string(Fanout f) {
  switch (f) {
    case Fanout::kBroker: return "NaradaBrokering";
    case Fanout::kBrokerNaive: return "NaradaBrokering-unoptimized";
    case Fanout::kJmfReflector: return "JMF-reflector";
  }
  return "?";
}

namespace {

/// Averages the per-receiver (index, value) series pointwise across
/// receivers, truncated to `limit` points.
Series average_series(const std::vector<const Series*>& series, std::size_t limit) {
  Series out;
  if (series.empty()) return out;
  std::size_t len = limit;
  for (const Series* s : series) len = std::min(len, s->points().size());
  for (std::size_t i = 0; i < len; ++i) {
    double sum = 0;
    for (const Series* s : series) sum += s->points()[i].y;
    out.add(static_cast<double>(i), sum / static_cast<double>(series.size()));
  }
  return out;
}

constexpr const char* kFig3Topic = "/xgsp/session/fig3/video";

}  // namespace

Fig3Result run_fig3(const Fig3Config& cfg) {
  sim::EventLoop loop;
  sim::Network net(loop, cfg.seed);
  // Gigabit LAN, sub-millisecond propagation, no physical loss — matching
  // the paper's testbed conditions.
  net.set_default_path(sim::PathConfig{.latency = duration_us(200), .loss = 0.0});
  sim::Host& sender_host = net.add_host("sender-machine");
  sim::Host& far_host = net.add_host("receiver-machine");
  sim::Host& server_host = net.add_host("server-machine");

  // The 600 Kbps video sender.
  rtp::RtpSession tx(sender_host, {.ssrc = 1, .payload_type = 96, .clock_rate = 90000});
  media::VideoSource source(tx, {.codec = media::codecs::mpeg4_sim(), .seed = cfg.seed});

  std::vector<std::unique_ptr<media::MediaProbe>> probes;
  for (int i = 0; i < cfg.measured; ++i) {
    probes.push_back(std::make_unique<media::MediaProbe>(90000, /*record_series=*/true));
  }

  std::unique_ptr<broker::BrokerNode> broker_node;
  std::vector<std::unique_ptr<broker::BrokerClient>> broker_clients;
  std::unique_ptr<broker::BrokerClient> publisher;
  std::unique_ptr<baseline::JmfReflector> reflector;
  std::vector<std::unique_ptr<transport::DatagramSocket>> raw_receivers;

  if (cfg.fanout == Fanout::kJmfReflector) {
    reflector = std::make_unique<baseline::JmfReflector>(server_host);
    for (int i = 0; i < cfg.receivers; ++i) {
      sim::Host& h = i < cfg.measured ? sender_host : far_host;
      auto sock = std::make_unique<transport::DatagramSocket>(h);
      if (i < cfg.measured) {
        media::MediaProbe* probe = probes[static_cast<std::size_t>(i)].get();
        sock->on_receive([probe, &loop](const sim::Datagram& d) {
          probe->on_wire(d.payload, loop.now());
        });
      }
      reflector->add_receiver(sock->local());
      raw_receivers.push_back(std::move(sock));
    }
    tx.add_destination(reflector->endpoint());
  } else {
    broker::BrokerNode::Config bcfg;
    bcfg.dispatch = cfg.fanout == Fanout::kBroker ? broker::DispatchConfig::optimized()
                                                  : broker::DispatchConfig::unoptimized();
    broker_node = std::make_unique<broker::BrokerNode>(server_host, 0, bcfg);
    for (int i = 0; i < cfg.receivers; ++i) {
      sim::Host& h = i < cfg.measured ? sender_host : far_host;
      auto client = std::make_unique<broker::BrokerClient>(
          h, broker_node->stream_endpoint(),
          broker::BrokerClient::Config{.name = "rx-" + std::to_string(i)});
      client->subscribe(kFig3Topic);
      if (i < cfg.measured) {
        media::MediaProbe* probe = probes[static_cast<std::size_t>(i)].get();
        client->on_event([probe, &loop](const broker::Event& ev) {
          probe->on_wire(ev.payload, loop.now());
        });
      }
      broker_clients.push_back(std::move(client));
    }
    publisher = std::make_unique<broker::BrokerClient>(
        sender_host, broker_node->stream_endpoint(),
        broker::BrokerClient::Config{.name = "video-sender", .udp_delivery = false});
    tx.on_send([&](const Payload& wire) { publisher->publish(kFig3Topic, wire); });
  }

  // Let every handshake and subscription settle before media starts.
  loop.run();
  SimTime media_start = loop.now();
  source.start();
  auto target = static_cast<std::uint64_t>(cfg.packets) + 32;  // headroom for tail loss
  while (source.packets_emitted() < target) {
    loop.run_for(duration_ms(500));
  }
  source.stop();
  double media_seconds = (loop.now() - media_start).to_seconds();
  loop.run_for(duration_s(5));  // drain queues
  double sim_seconds = (loop.now() - media_start).to_seconds();

  Fig3Result out;
  std::vector<const Series*> delays, jitters;
  RunningStats avg_delay, avg_jitter, loss;
  for (auto& probe : probes) {
    delays.push_back(&probe->stats().delay_series());
    jitters.push_back(&probe->stats().jitter_series());
    avg_delay.add(probe->stats().delay_ms().mean());
    avg_jitter.add(probe->stats().jitter_ms());
    loss.add(probe->stats().loss_ratio());
  }
  auto limit = static_cast<std::size_t>(cfg.packets);
  out.delay_ms = average_series(delays, limit);
  out.jitter_ms = average_series(jitters, limit);
  out.avg_delay_ms = out.delay_ms.mean_y();
  out.avg_jitter_ms = avg_jitter.mean();
  out.loss_ratio = loss.mean();
  out.dispatch_jobs_dropped =
      reflector ? reflector->jobs_dropped() : broker_node->jobs_dropped();
  out.stream_kbps = static_cast<double>(tx.octets_sent()) * 8.0 / media_seconds / 1000.0;
  out.sim_seconds = sim_seconds;
  return out;
}

CapacityPoint run_capacity(const CapacityConfig& cfg) {
  sim::EventLoop loop;
  sim::Network net(loop, cfg.seed);
  net.set_default_path(sim::PathConfig{.latency = duration_us(200), .loss = 0.0});
  sim::Host& sender_host = net.add_host("sender-machine");
  sim::Host& server_host = net.add_host("server-machine");

  broker::BrokerNode::Config bcfg;
  bcfg.dispatch = cfg.dispatch;
  broker::BrokerNode broker_node(server_host, 0, bcfg);

  const std::string topic = cfg.kind == MediaKind::kAudio ? "/cap/audio" : "/cap/video";
  const media::CodecInfo& codec = cfg.kind == MediaKind::kAudio
                                      ? media::codecs::g711u()
                                      : media::codecs::mpeg4_sim();

  rtp::RtpSession tx(sender_host,
                     {.ssrc = 1, .payload_type = codec.payload_type,
                      .clock_rate = codec.clock_rate});
  broker::BrokerClient publisher(
      sender_host, broker_node.stream_endpoint(),
      broker::BrokerClient::Config{.name = "sender", .udp_delivery = false});
  tx.on_send([&](const Payload& wire) { publisher.publish(topic, wire); });

  std::unique_ptr<media::AudioSource> audio;
  std::unique_ptr<media::VideoSource> video;
  if (cfg.kind == MediaKind::kAudio) {
    audio = std::make_unique<media::AudioSource>(
        tx, media::AudioSource::Config{.codec = codec, .seed = cfg.seed});
  } else {
    video = std::make_unique<media::VideoSource>(
        tx, media::VideoSource::Config{.codec = codec, .seed = cfg.seed});
  }

  // Receivers spread over hosts, ~100 per machine.
  std::vector<sim::Host*> rx_hosts;
  for (int i = 0; i * 100 < cfg.clients; ++i) {
    rx_hosts.push_back(&net.add_host("rx-machine-" + std::to_string(i)));
  }
  std::vector<std::unique_ptr<broker::BrokerClient>> clients;
  for (int i = 0; i < cfg.clients; ++i) {
    auto& h = *rx_hosts[static_cast<std::size_t>(i / 100)];
    auto c = std::make_unique<broker::BrokerClient>(
        h, broker_node.stream_endpoint(),
        broker::BrokerClient::Config{.name = "rx-" + std::to_string(i)});
    c->subscribe(topic);
    clients.push_back(std::move(c));
  }

  loop.run();  // settle handshakes
  if (audio) audio->start();
  if (video) video->start();

  // Warm-up half: media flows but nothing is measured.
  loop.run_for(duration_seconds(cfg.seconds / 2.0));

  // Attach probes to a spread sample of receivers for the measured half.
  // The sample walk must not alias with the 100-per-host receiver fill
  // above: a receiver's delay depends on its position in the broker's
  // per-host fan-out order (later copies queue behind earlier ones at the
  // rx NIC), and a plain j*stride walk samples only gcd-limited positions
  // once stride reaches kPerHost. At exactly 1000 clients (stride 100)
  // every probe was first-on-host — no intra-host queueing at all — which
  // put the audio point at 0.57 ms between 4.4 ms and 6.3 ms neighbours.
  // For stride >= kPerHost, nudge each probe so its within-host position
  // is exactly j*kPerHost/kSample: uniform coverage of queue depth at
  // every sweep size. Below that, the plain walk already spreads.
  constexpr int kSample = 10;
  constexpr int kPerHost = 100;  // matches the rx-machine fill above
  std::vector<std::unique_ptr<media::MediaProbe>> probes;
  int stride = std::max(1, cfg.clients / kSample);
  int last_idx = -1;
  for (int j = 0; j * stride < cfg.clients; ++j) {
    int idx = j * stride;
    if (stride >= kPerHost) {
      idx += (j * kPerHost / kSample - idx % kPerHost + kPerHost) % kPerHost;
    }
    idx = std::min(idx, cfg.clients - 1);
    if (idx <= last_idx) continue;  // clamp collision on ragged final stride
    last_idx = idx;
    auto probe = std::make_unique<media::MediaProbe>(codec.clock_rate);
    media::MediaProbe* p = probe.get();
    clients[static_cast<std::size_t>(idx)]->on_event(
        [p, &loop](const broker::Event& ev) { p->on_wire(ev.payload, loop.now()); });
    probes.push_back(std::move(probe));
  }
  loop.run_for(duration_seconds(cfg.seconds / 2.0));
  if (audio) audio->stop();
  if (video) video->stop();
  loop.run_for(duration_s(3));  // drain

  CapacityPoint out;
  out.clients = cfg.clients;
  RunningStats delay, loss, maxima;
  for (auto& probe : probes) {
    delay.add(probe->stats().delay_ms().mean());
    maxima.add(probe->stats().delay_ms().max());
    loss.add(probe->stats().loss_ratio());
  }
  out.avg_delay_ms = delay.mean();
  out.mean_max_delay_ms = maxima.mean();  // conservative tail proxy (per-client max)
  out.loss_ratio = loss.mean();
  out.offered_mbps = codec.bitrate_bps * cfg.clients / 1e6;
  out.good_quality = out.avg_delay_ms < 150.0 && out.loss_ratio < 0.02;
  return out;
}

}  // namespace gmmcs::core
