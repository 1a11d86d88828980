#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/event.hpp"
#include "broker/topic.hpp"
#include "common/payload.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "media/codec.hpp"
#include "media/generator.hpp"
#include "media/stamp.hpp"
#include "rtp/packet.hpp"
#include "rtp/receiver_stats.hpp"
#include "rtp/session.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"

namespace perfbench {
namespace {

using namespace gmmcs;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}
double seconds_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) * 1e-9;
}

/// Generator seed of the paper's Figure-3 video stream. Both video
/// workloads replay this one stream: at ~93% dispatch load a different
/// frame-size draw moves delay by up to 3x (p50 82-252 ms over seeds 1-8),
/// so --seed varies the receiver paths instead (see seeded_paths).
constexpr std::uint64_t kPaperStreamSeed = 2003;

/// The paper's quality bar for a receiver (EXPERIMENTS.md).
constexpr double kGoodDelayMs = 150.0;
constexpr double kGoodLoss = 0.02;

/// How long a workload's media runs: until the first source has emitted
/// `packet_target` packets (checked every slice), or else for `media`;
/// then `drain` more.
struct Phase {
  std::uint64_t packet_target = 0;
  SimDuration media{};
  SimDuration drain{};
};

/// The media phase is checked against its packet target every kSlice of
/// sim time. The loop runs in kTimingSlice steps, and the host time of
/// each step is recorded (see RepResult::slice_s). Fine steps let the
/// lower envelope pick up the quiet moments of a busy shared host: on
/// batched_video_1200, 500 ms steps read 10% below 20 ms ones in a run
/// slowed throughout by neighbours, and 2% below in a quiet run.
constexpr SimDuration kSlice = duration_ms(500);
constexpr SimDuration kTimingSlice = duration_ms(5);

/// One media source: RTP session, generator, and the broker client that
/// publishes every packet the session sends.
struct Source {
  std::string topic;
  std::unique_ptr<rtp::RtpSession> tx;
  std::unique_ptr<media::VideoSource> video;
  std::unique_ptr<media::AudioSource> audio;
  std::unique_ptr<broker::BrokerClient> publisher;
  SimDuration start_offset{};
  sim::NodeId host = 0;
  sim::NodeId broker_host = 0;
  double path_ms = 0;  // publisher -> ingress broker, set before media

  [[nodiscard]] std::uint64_t emitted() const {
    return video ? video->packets_emitted() : audio->packets_emitted();
  }
};

/// A subscribing client. A measured receiver maps each source SSRC it is
/// subscribed to onto its ledger stream; a zapper has no streams.
struct Receiver {
  std::unique_ptr<broker::BrokerClient> client;
  std::vector<std::int32_t> stream_of_ssrc;
  bool zapper = false;
  std::string zap_topic;
  sim::NodeId host = 0;
  sim::NodeId broker_host = 0;
  double path_ms = 0;  // edge broker -> receiver, set before media
};

/// One built topology plus everything the benchmark observes about it.
/// Member order is destruction order in reverse: clients go before the
/// brokers they talk to, and the loop outlives everything.
class World {
 public:
  /// The Network's generator draws only for path loss, which is zero on
  /// every path here; it is seeded as core::run_fig3 seeds it.
  explicit World(SimDuration latency) : net(loop, kPaperStreamSeed) {
    net.set_default_path(sim::PathConfig{.latency = latency, .loss = 0.0});
    latency_ms = latency.to_ms();
  }

  Source& add_source(std::string topic, sim::Host& host, const media::CodecInfo& codec) {
    Source s;
    s.topic = std::move(topic);
    s.host = host.id();
    s.tx = std::make_unique<rtp::RtpSession>(
        host, rtp::RtpSession::Config{.ssrc = static_cast<std::uint32_t>(sources.size() + 1),
                                      .payload_type = codec.payload_type,
                                      .clock_rate = codec.clock_rate});
    std::size_t index = sources.size();
    s.tx->on_send([this, index](const Payload& wire) { publish(index, wire); });
    sources.push_back(std::move(s));
    return sources.back();
  }

  void set_publisher(Source& s, sim::Host& host, sim::Endpoint broker, std::string name) {
    s.broker_host = broker.node;
    s.publisher = std::make_unique<broker::BrokerClient>(
        host, broker, broker::BrokerClient::Config{.name = std::move(name), .udp_delivery = false});
  }

  broker::BrokerNode& add_broker(sim::Host& host, broker::DispatchConfig dispatch) {
    broker::BrokerNode::Config cfg;
    cfg.dispatch = dispatch;
    own_brokers.push_back(std::make_unique<broker::BrokerNode>(
        host, static_cast<broker::BrokerId>(own_brokers.size()), cfg));
    track_broker(*own_brokers.back(), host, dispatch.threads);
    return *own_brokers.back();
  }

  void track_broker(broker::BrokerNode& b, sim::Host& host, int threads) {
    brokers.push_back(&b);
    broker_hosts.push_back(&host);
    broker_threads.push_back(threads);
  }

  /// A measured receiver: one ledger stream per (filter-matched) source,
  /// registered against the sources built so far.
  void add_receiver(sim::Host& host, sim::Endpoint broker, std::string name,
                    const std::vector<std::string>& filters, bool series = false) {
    auto r = make_client(host, broker, std::move(name));
    r->stream_of_ssrc.assign(sources.size() + 1, -1);
    for (const auto& f : filters) {
      r->client->subscribe(f);
      broker::TopicFilter filter(f);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        auto& slot = r->stream_of_ssrc[i + 1];
        if (slot >= 0 || !filter.matches(sources[i].topic)) continue;
        slot = static_cast<std::int32_t>(ledger.add_stream());
        stream_source.push_back(i);
        stats.emplace_back(sources[i].tx->config().clock_rate);
        stats.back().enable_series(series);
      }
    }
    receivers.push_back(std::move(r));
  }

  /// An unmeasured receiver whose subscription moves during the media phase.
  void add_zapper(sim::Host& host, sim::Endpoint broker, std::string name, std::string topic) {
    auto r = make_client(host, broker, std::move(name));
    r->zapper = true;
    r->zap_topic = std::move(topic);
    r->client->subscribe(r->zap_topic);
    zappers.push_back(r.get());
    receivers.push_back(std::move(r));
  }

  /// Draws the seeded receiver-path latencies (after the handshakes
  /// settled, so join order and fan-out order stay the paper's) and caches
  /// every client's path latency for the wire stage.
  void apply_paths() {
    for (auto [a, b] : seeded_paths) {
      auto us = 100 + static_cast<std::int64_t>(path_rng.next() % 201);
      net.set_path(a, b, sim::PathConfig{.latency = duration_us(us), .loss = 0.0});
    }
    for (Source& s : sources) s.path_ms = net.path(s.host, s.broker_host).latency.to_ms();
    for (auto& r : receivers) r->path_ms = net.path(r->broker_host, r->host).latency.to_ms();
  }

  void on_copy(const Receiver& r, const broker::Event& ev);
  void publish(std::size_t index, const Payload& wire);
  void zap(std::uint64_t tick);
  void sample();

  sim::EventLoop loop;
  sim::Network net;
  double latency_ms = 0;
  /// Leading ledger streams whose per-packet series feed the Figure-3
  /// harness parity check (fig3_video only).
  std::size_t parity_streams = 0;
  /// Receiver-machine <-> broker paths whose LAN latency (100-300 us) the
  /// seed draws, and the draw's generator.
  std::vector<std::pair<sim::NodeId, sim::NodeId>> seeded_paths;
  Rng path_rng;
  std::unique_ptr<broker::BrokerNetwork> fabric;
  std::vector<std::unique_ptr<broker::BrokerNode>> own_brokers;
  std::vector<broker::BrokerNode*> brokers;
  std::vector<sim::Host*> broker_hosts;
  std::vector<int> broker_threads;
  std::vector<Source> sources;
  std::vector<std::unique_ptr<Receiver>> receivers;
  std::vector<Receiver*> zappers;
  Rng zap_rng;
  std::unique_ptr<sim::PeriodicTask> zap_task;
  std::unique_ptr<sim::PeriodicTask> sampler;

  // Sim-clock observations.
  CopyLedger ledger;
  std::vector<rtp::ReceiverStats> stats;    // per ledger stream
  std::vector<std::size_t> stream_source;   // ledger stream -> source index
  LogHistogram delay_ns;
  double hops_sum = 0;
  double wire_ms_sum = 0;
  std::uint64_t copies = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t unstamped = 0;
  std::uint64_t early = 0;
  std::uint64_t stray = 0;

  // Traced-rep observations (host clock and sampled sim state).
  bool traced = false;
  std::uint64_t parse_ns = 0;
  std::uint64_t stats_ns = 0;
  std::uint64_t handler_ns = 0;
  std::uint64_t publish_ns = 0;
  std::uint64_t publishes = 0;
  Payload last_wire;
  LogHistogram event_ns;
  Clock::time_point last_event{};
  std::size_t pending_peak = 0;
  std::uint64_t sampler_ticks = 0;
  RunningStats busy;
  LogHistogram queue_len;
  LogHistogram nic_backlog_ns;

 private:
  std::unique_ptr<Receiver> make_client(sim::Host& host, sim::Endpoint broker, std::string name) {
    auto r = std::make_unique<Receiver>();
    r->host = host.id();
    r->broker_host = broker.node;
    r->client = std::make_unique<broker::BrokerClient>(
        host, broker, broker::BrokerClient::Config{.name = std::move(name)});
    const Receiver* self = r.get();
    r->client->on_event([this, self](const broker::Event& ev) { on_copy(*self, ev); });
    return r;
  }
};

void World::on_copy(const Receiver& r, const broker::Event& ev) {
  ++copies;
  if (r.zapper) {
    ledger.observe_unmeasured();
    return;
  }
  Clock::time_point t0{};
  Clock::time_point t1{};
  if (traced) t0 = Clock::now();
  auto parsed = rtp::RtpPacket::parse(ev.payload);
  if (traced) t1 = Clock::now();
  if (!parsed.ok()) {
    ++parse_errors;
    return;
  }
  const rtp::RtpPacket& p = parsed.value();
  const SimTime arrival = loop.now();
  const std::optional<SimTime> origin = media::extract_origin(p.payload);
  if (!origin) {
    ++unstamped;
    return;
  }
  if (arrival < *origin) {
    ++early;
    return;
  }
  std::int32_t s = p.ssrc < r.stream_of_ssrc.size() ? r.stream_of_ssrc[p.ssrc] : -1;
  if (s < 0) {
    ++stray;
    return;
  }
  delay_ns.add(static_cast<std::uint64_t>((arrival - *origin).ns()));
  hops_sum += ev.hops;
  auto stream = static_cast<std::size_t>(s);
  ledger.observe(stream);
  stats[stream].on_packet(p, arrival, *origin);
  if (traced) {
    Clock::time_point t2 = Clock::now();
    wire_ms_sum += sources[p.ssrc - 1].path_ms + latency_ms * ev.hops + r.path_ms;
    parse_ns += ns_between(t0, t1);
    stats_ns += ns_between(t1, t2);
    handler_ns += ns_between(t0, t2);
  }
}

void World::publish(std::size_t index, const Payload& wire) {
  Source& s = sources[index];
  if (!traced) {
    s.publisher->publish(s.topic, wire);
    return;
  }
  Clock::time_point t0 = Clock::now();
  s.publisher->publish(s.topic, wire);
  publish_ns += ns_between(t0, Clock::now());
  ++publishes;
  last_wire = wire;
}

void World::zap(std::uint64_t tick) {
  Receiver& z = *zappers[tick % zappers.size()];
  z.client->unsubscribe(z.zap_topic);
  z.zap_topic = sources[zap_rng.next() % sources.size()].topic;
  z.client->subscribe(z.zap_topic);
}

void World::sample() {
  ++sampler_ticks;
  for (std::size_t b = 0; b < brokers.size(); ++b) {
    const sim::ServiceCenter& d = brokers[b]->dispatch();
    busy.add(static_cast<double>(d.busy_servers()) / broker_threads[b]);
    queue_len.add(d.queue_length());
    nic_backlog_ns.add(static_cast<std::uint64_t>(broker_hosts[b]->nic_backlog_delay().ns()));
  }
}

// ---------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------

/// The paper's Figure-3 NaradaBrokering arm, built in exactly the order
/// core::run_fig3 builds it (ports and event order depend on it), but with
/// every one of the 400 receivers measured.
std::unique_ptr<World> build_fig3(std::uint64_t seed, Phase& phase) {
  phase = Phase{.packet_target = 2000 + 32, .drain = duration_s(5)};
  auto w = std::make_unique<World>(duration_us(200));
  sim::Host& sender = w->net.add_host("sender-machine");
  sim::Host& far = w->net.add_host("receiver-machine");
  sim::Host& server = w->net.add_host("server-machine");
  Source& src = w->add_source("/xgsp/session/fig3/video", sender, media::codecs::mpeg4_sim());
  src.video = std::make_unique<media::VideoSource>(
      *src.tx,
      media::VideoSource::Config{.codec = media::codecs::mpeg4_sim(), .seed = kPaperStreamSeed});
  broker::BrokerNode& b = w->add_broker(server, broker::DispatchConfig::optimized());
  for (int i = 0; i < 400; ++i) {
    // The first 12 sit on the sender's machine, as in the paper; their
    // per-packet series feed the harness parity check.
    w->add_receiver(i < 12 ? sender : far, b.stream_endpoint(), "rx-" + std::to_string(i),
                    {w->sources[0].topic}, /*series=*/i < 12);
  }
  w->set_publisher(w->sources[0], sender, b.stream_endpoint(), "video-sender");
  w->parity_streams = 12;
  // The sender machine's path is the paper's measured one; the far
  // machine's is seeded.
  w->seeded_paths = {{far.id(), server.id()}};
  w->path_rng = Rng(seed);
  return w;
}

/// 1200 video receivers behind one broker on the batched, NIC-gated
/// fan-out path with 8 simulated dispatch threads.
std::unique_ptr<World> build_batched(std::uint64_t seed, Phase& phase) {
  phase = Phase{.media = duration_s(8), .drain = duration_s(3)};
  auto w = std::make_unique<World>(duration_us(200));
  sim::Host& sender = w->net.add_host("sender-machine");
  sim::Host& server = w->net.add_host("server-machine");
  broker::BrokerNode& b = w->add_broker(server, broker::DispatchConfig::snapshot());
  Source& src = w->add_source("/xgsp/session/lecture/video", sender, media::codecs::mpeg4_sim());
  w->set_publisher(src, sender, b.stream_endpoint(), "sender");
  src.video = std::make_unique<media::VideoSource>(
      *src.tx,
      media::VideoSource::Config{.codec = media::codecs::mpeg4_sim(), .seed = kPaperStreamSeed});
  constexpr int kClients = 1200;
  constexpr int kPerHost = 100;
  std::vector<sim::Host*> rx_hosts;
  for (int i = 0; i * kPerHost < kClients; ++i) {
    rx_hosts.push_back(&w->net.add_host("rx-machine-" + std::to_string(i)));
  }
  for (int i = 0; i < kClients; ++i) {
    w->add_receiver(*rx_hosts[static_cast<std::size_t>(i / kPerHost)], b.stream_endpoint(),
                    "rx-" + std::to_string(i), {w->sources[0].topic});
  }
  for (sim::Host* h : rx_hosts) w->seeded_paths.emplace_back(h->id(), server.id());
  w->path_rng = Rng(seed);
  return w;
}

/// Twelve brokers (3 super-clusters x 2 clusters x 2 nodes) carrying 48
/// G.711 audio sessions with talkspurts, ~12 subscribers each spread over
/// the fabric, a few wildcard subscribers, and 24 zappers switching
/// sessions every 40 ms. Talkspurts make the set of active speakers, and
/// so every broker's queue, vary over time; constant-rate sources would
/// repeat one 20 ms pattern and show no jitter at all.
std::unique_ptr<World> build_fabric(std::uint64_t seed, Phase& phase) {
  phase = Phase{.media = duration_s(40), .drain = duration_s(2)};
  constexpr int kSessions = 48;
  constexpr int kSubsPerSession = 12;
  constexpr int kZappers = 24;
  auto w = std::make_unique<World>(duration_ms(1));
  w->fabric = std::make_unique<broker::BrokerNetwork>(w->net);
  for (int sc = 0; sc < 3; ++sc) {
    for (int c = 0; c < 2; ++c) {
      for (int n = 0; n < 2; ++n) {
        sim::Host& h = w->net.add_host("broker-" + std::to_string(sc) + std::to_string(c) +
                                       std::to_string(n));
        broker::BrokerNode& b = w->fabric->add_broker(h);
        w->fabric->set_address(b.id(), broker::ClusterAddress{sc, c, n});
        w->track_broker(b, h, broker::DispatchConfig::optimized().threads);
      }
    }
  }
  w->fabric->link_hierarchy();
  const std::size_t nb = w->brokers.size();
  // Each broker serves one publisher machine and one subscriber machine.
  std::vector<sim::Host*> pub_sites;
  std::vector<sim::Host*> sites;
  for (std::size_t b = 0; b < nb; ++b) {
    pub_sites.push_back(&w->net.add_host("pub-site-" + std::to_string(b)));
    sites.push_back(&w->net.add_host("site-" + std::to_string(b)));
  }
  auto endpoint = [&](std::size_t b) { return w->brokers[b]->stream_endpoint(); };

  // Placement, talkspurts, packet phases and the zappers' walk are all
  // part of the workload (fixed). Like the video workloads, the seed draws
  // the subscriber machines' access paths: jitter here is microseconds of
  // queueing coincidence, and a seeded talkspurt or zap pattern moves it
  // by 13-44% (IQR over seeds 1-8), which no bound can hold.
  Rng layout(0xFAB12);
  w->zap_rng = Rng(0x2A9);
  for (int s = 0; s < kSessions; ++s) {
    std::size_t home = static_cast<std::size_t>(s) % nb;
    Source& src = w->add_source("/xgsp/session/" + std::to_string(s) + "/audio", *pub_sites[home],
                                media::codecs::g711u());
    src.audio = std::make_unique<media::AudioSource>(
        *src.tx, media::AudioSource::Config{.codec = media::codecs::g711u(),
                                            .talkspurt = true,
                                            .seed = layout.next()});
    src.start_offset = duration_us(static_cast<std::int64_t>(layout.next() % 20000));
    w->set_publisher(src, *pub_sites[home], endpoint(home), "pub-" + std::to_string(s));
  }
  for (int s = 0; s < kSessions; ++s) {
    for (int k = 0; k < kSubsPerSession; ++k) {
      std::size_t b = layout.next() % nb;
      w->add_receiver(*sites[b], endpoint(b), "sub-" + std::to_string(s) + "-" + std::to_string(k),
                      {w->sources[static_cast<std::size_t>(s)].topic});
    }
  }
  for (int k = 0; k < 4; ++k) {
    std::size_t b = layout.next() % nb;
    std::string filter = "/xgsp/session/" + std::to_string(layout.next() % kSessions) + "/#";
    w->add_receiver(*sites[b], endpoint(b), "session-wild-" + std::to_string(k), {filter});
  }
  for (int k = 0; k < 2; ++k) {
    std::size_t b = layout.next() % nb;
    w->add_receiver(*sites[b], endpoint(b), "audio-wild-" + std::to_string(k),
                    {"/xgsp/session/*/audio"});
  }
  for (int z = 0; z < kZappers; ++z) {
    std::size_t b = static_cast<std::size_t>(z) % nb;
    w->add_zapper(*sites[b], endpoint(b), "zap-" + std::to_string(z),
                  w->sources[layout.next() % w->sources.size()].topic);
  }
  for (std::size_t b = 0; b < nb; ++b) {
    w->seeded_paths.emplace_back(sites[b]->id(), w->broker_hosts[b]->id());
  }
  w->path_rng = Rng(seed);
  w->zap_task = std::make_unique<sim::PeriodicTask>(
      w->loop, duration_ms(40), [wp = w.get()](std::uint64_t n) { wp->zap(n); });
  return w;
}

std::unique_ptr<World> build(const std::string& workload, std::uint64_t seed, Phase& phase) {
  if (workload == "fig3_video") return build_fig3(seed, phase);
  if (workload == "batched_video_1200") return build_batched(seed, phase);
  if (workload == "fabric_audio_churn") return build_fabric(seed, phase);
  throw std::invalid_argument("unknown workload: " + workload);
}

// ---------------------------------------------------------------------------
// Sums over the topology
// ---------------------------------------------------------------------------

struct Totals {
  std::uint64_t nic_sent = 0;
  std::uint64_t nic_dropped = 0;
  std::uint64_t lost = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t total_wait_ns = 0;
  std::uint64_t copies_out = 0;
  std::uint64_t peer_forwards = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t emitted = 0;
  std::uint64_t executed = 0;
  std::uint64_t encodes = 0;
  std::uint64_t payload_copies = 0;
  AllocCount allocs;
};

Totals totals(World& w) {
  Totals t;
  for (sim::NodeId id = 0; id < w.net.host_count(); ++id) {
    t.nic_sent += w.net.host(id).nic_sent();
    t.nic_dropped += w.net.host(id).nic_dropped();
  }
  t.lost = w.net.lost();
  for (const broker::BrokerNode* b : w.brokers) {
    t.jobs_completed += b->dispatch().completed();
    t.jobs_rejected += b->dispatch().rejected();
    t.total_wait_ns += static_cast<std::uint64_t>(b->dispatch().total_wait().ns());
    t.copies_out += b->copies_delivered();
    t.peer_forwards += b->peer_forwards();
    t.unroutable += b->unroutable_events();
  }
  for (const Source& s : w.sources) t.emitted += s.emitted();
  t.executed = w.loop.executed();
  t.encodes = broker::event_encode_count();
  t.payload_copies = payload_copy_count();
  t.allocs = thread_allocs();
  return t;
}

// Keeps timed micro-loops observable.
volatile std::uint64_t g_sink = 0;

/// Host ns per call of `fn` over `n` calls.
template <typename Fn>
double time_per_call(std::size_t n, Fn&& fn) {
  Clock::time_point t0 = Clock::now();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += fn(i);
  double ns = static_cast<double>(ns_between(t0, Clock::now())) / static_cast<double>(n);
  g_sink = g_sink + acc;
  return ns;
}

/// Outside-in per-call costs of the broker layers on this topology's own
/// topics and tables, timed after the run (never inside it).
void probe_layers(World& w, std::map<std::string, double>& m) {
  std::vector<std::string> topics;
  for (const Source& s : w.sources) topics.push_back(s.topic);

  broker::Event ev;
  ev.topic = topics[0];
  ev.payload = w.last_wire;
  ev.origin = w.loop.now();
  const Payload frame(broker::encode(ev));
  m["broker.node.decode_ns"] = time_per_call(20000, [&](std::size_t) {
    auto r = broker::decode(frame);
    return r.ok() ? r.value().event.payload.size() : 0;
  });
  m["broker.node.match_ns"] = time_per_call(20000, [&](std::size_t i) {
    const broker::BrokerNode& b = *w.brokers[i % w.brokers.size()];
    return b.subscriptions().matches(topics[i % topics.size()]).size();
  });

  // broker.fabric.* stay at zero calls on the single-broker workloads.
  double calls = 0;
  double interest_ns = 0;
  double interest_allocs = 0;
  double route_ns = 0;
  double advertise_ns = 0;
  if (w.fabric) {
    const broker::ControlSnapshotPtr snap = w.fabric->snapshot();
    constexpr std::size_t kMatches = 20000;
    AllocCount a0 = thread_allocs();
    interest_ns = time_per_call(kMatches, [&](std::size_t i) {
      return snap->interest().matches(topics[i % topics.size()], 0).size();
    });
    interest_allocs = static_cast<double>(thread_allocs().allocs - a0.allocs) / kMatches;
    const auto nb = static_cast<std::uint32_t>(w.brokers.size());
    constexpr std::size_t kLookups = 20000;
    route_ns = time_per_call(kLookups, [&](std::size_t i) -> std::uint64_t {
      auto from = static_cast<std::uint32_t>(i % nb);
      auto to = static_cast<std::uint32_t>((from + 1 + i / nb) % nb);
      if (from == to) to = (to + 1) % nb;
      return snap->routes().next_hop(from, to) +
             static_cast<std::uint64_t>(snap->routes().distance(from, to));
    });
    const broker::TopicFilter probe("/perfbench/probe/audio");
    constexpr std::size_t kAdvertise = 20;
    advertise_ns = time_per_call(kAdvertise, [&](std::size_t) {
      w.fabric->advertise(probe, 0, /*add=*/true);
      w.fabric->advertise(probe, 0, /*add=*/false);
      return std::uint64_t{1};
    });
    // Two epoch reads around the media phase, one snapshot load, and the
    // timed calls above.
    calls = 3 + kMatches + 2 * kLookups + 2 * kAdvertise;
  }
  m["broker.fabric.calls"] = calls;
  m["broker.fabric.interest_match_ns"] = interest_ns;
  m["broker.fabric.interest_match_allocs"] = interest_allocs;
  m["broker.fabric.route_lookup_ns"] = route_ns;
  m["broker.fabric.advertise_ns"] = advertise_ns;
}

SimOutcome summarize(World& w, std::uint64_t counted_drops, bool one_broker) {
  SimOutcome o;
  for (std::size_t s = 0; s < w.ledger.streams(); ++s) {
    w.ledger.expect(s, w.sources[w.stream_source[s]].emitted());
  }
  o.delays = w.delay_ns.count();
  o.delay_mean_ns = w.delay_ns.mean();
  o.delay_p50_ns = w.delay_ns.quantile(0.5);
  o.delay_p99_ns = w.delay_ns.quantile(0.99);
  o.delay_p999_ns = w.delay_ns.quantile(0.999);
  o.delay_max_ns = static_cast<double>(w.delay_ns.max());
  o.streams = w.ledger.streams();
  o.expected = w.ledger.expected_total();
  o.observed = w.ledger.observed_total();
  o.missing = w.ledger.missing_total();
  RunningStats jitter;
  std::uint64_t good = 0;
  for (std::size_t s = 0; s < o.streams; ++s) {
    const rtp::ReceiverStats& st = w.stats[s];
    jitter.add(st.jitter_ms());
    double exp = static_cast<double>(w.ledger.expected(s));
    double loss = exp > 0 ? 1.0 - static_cast<double>(w.ledger.observed(s)) / exp : 1.0;
    if (exp > 0 && st.delay_ms().mean() < kGoodDelayMs && loss < kGoodLoss) ++good;
  }
  o.jitter_ms = jitter.mean();
  o.good_rx_ratio = o.streams ? static_cast<double>(good) / static_cast<double>(o.streams) : 0.0;

  auto fail = [&o](const std::string& why) {
    if (o.error.empty()) o.error = why;
  };
  if (w.parse_errors) fail(std::to_string(w.parse_errors) + " copies failed RTP parse");
  if (w.unstamped) fail(std::to_string(w.unstamped) + " copies carry no origin stamp");
  if (w.early) fail(std::to_string(w.early) + " copies arrived before their origin");
  if (w.stray) fail(std::to_string(w.stray) + " copies reached a receiver not subscribed to them");
  if (o.streams == 0 || o.expected == 0) fail("no measured copies expected");
  std::string books = w.ledger.check(counted_drops, one_broker ? 1 : w.ledger.streams());
  if (!books.empty()) fail("copy accounting: " + books);

  // Harness parity: the Figure-3 streams recorded per-packet series.
  if (w.parity_streams > 0) {
    const std::size_t kMeasured = w.parity_streams;
    constexpr std::size_t kPackets = 2000;
    std::size_t len = kPackets;
    for (std::size_t j = 0; j < kMeasured; ++j) {
      len = std::min(len, w.stats[j].delay_series().points().size());
    }
    Series avg;
    for (std::size_t i = 0; i < len; ++i) {
      double sum = 0;
      for (std::size_t j = 0; j < kMeasured; ++j) sum += w.stats[j].delay_series().points()[i].y;
      avg.add(static_cast<double>(i), sum / static_cast<double>(kMeasured));
    }
    RunningStats jit;
    for (std::size_t j = 0; j < kMeasured; ++j) jit.add(w.stats[j].jitter_ms());
    o.has_parity = true;
    o.parity_delay_ms = avg.mean_y();
    o.parity_jitter_ms = jit.mean();
  }
  return o;
}

double settle(World& w, Clock::time_point t0) {
  w.loop.run();  // handshakes and subscriptions
  return seconds_between(t0, Clock::now());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig3_video", "batched_video_1200",
                                                 "fabric_audio_churn"};
  return names;
}

std::string SimOutcome::signature() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "n=%llu mean=%.17g p50=%.17g p99=%.17g p999=%.17g max=%.17g jitter=%.17g "
                "good=%.17g streams=%llu expected=%llu observed=%llu parity=%.17g/%.17g",
                static_cast<unsigned long long>(delays), delay_mean_ns, delay_p50_ns, delay_p99_ns,
                delay_p999_ns, delay_max_ns, jitter_ms, good_rx_ratio,
                static_cast<unsigned long long>(streams), static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(observed), parity_delay_ms, parity_jitter_ms);
  return buf + error;
}

double setup_only(const std::string& workload, std::uint64_t seed) {
  Clock::time_point t0 = Clock::now();
  Phase phase;
  std::unique_ptr<World> w = build(workload, seed, phase);
  return settle(*w, t0);
}

RepResult run_rep(const std::string& workload, std::uint64_t seed, bool traced) {
  RepResult out;
  Clock::time_point t0 = Clock::now();
  Phase phase;
  std::unique_ptr<World> w = build(workload, seed, phase);
  out.setup_s = settle(*w, t0);
  World& world = *w;
  world.traced = traced;
  world.apply_paths();

  const SimTime media_start = world.loop.now();
  const Totals before = totals(world);
  const std::uint64_t epoch0 = world.fabric ? world.fabric->snapshot()->epoch() : 0;
  if (traced) {
    world.sampler = std::make_unique<sim::PeriodicTask>(
        world.loop, duration_ms(1), [&world](std::uint64_t) { world.sample(); });
    world.sampler->start();
    world.loop.set_trace([&world](SimTime, std::uint64_t) {
      Clock::time_point now = Clock::now();
      if (world.last_event != Clock::time_point{}) {
        world.event_ns.add(ns_between(world.last_event, now));
      }
      world.last_event = now;
      world.pending_peak = std::max(world.pending_peak, world.loop.pending());
    });
  }

  Clock::time_point run0 = Clock::now();
  auto run_sliced = [&](SimDuration total) {
    for (SimDuration left = total; left > SimDuration{}; left -= kTimingSlice) {
      Clock::time_point s0 = Clock::now();
      world.loop.run_for(std::min(left, kTimingSlice));
      out.slice_s.push_back(seconds_between(s0, Clock::now()));
    }
  };
  for (Source& s : world.sources) {
    if (s.start_offset == SimDuration{}) {
      if (s.video) s.video->start();
      if (s.audio) s.audio->start();
      continue;
    }
    Source* sp = &s;
    world.loop.schedule_at(media_start + s.start_offset, [sp] {
      if (sp->video) sp->video->start();
      if (sp->audio) sp->audio->start();
    });
  }
  if (world.zap_task) world.zap_task->start();
  if (phase.packet_target > 0) {
    while (world.sources[0].emitted() < phase.packet_target) run_sliced(kSlice);
  } else {
    run_sliced(phase.media);
  }
  for (Source& s : world.sources) {
    if (s.video) s.video->stop();
    if (s.audio) s.audio->stop();
  }
  if (world.zap_task) world.zap_task->stop();
  std::uint64_t queue_end = 0;
  for (const broker::BrokerNode* b : world.brokers) queue_end += b->dispatch().queue_length();
  if (world.sampler) world.sampler->stop();
  run_sliced(phase.drain);
  out.run_s = seconds_between(run0, Clock::now());
  world.loop.set_trace({});
  const Totals after = totals(world);
  const std::uint64_t epoch1 = world.fabric ? world.fabric->snapshot()->epoch() : 0;
  out.copies = world.copies;

  const std::uint64_t drops = (after.jobs_rejected - before.jobs_rejected) +
                              (after.nic_dropped - before.nic_dropped) + (after.lost - before.lost);
  out.sim = summarize(world, drops, world.fabric == nullptr);

  if (traced) {
    auto& m = out.layers;
    // Counter growth over the media phase, as a double.
    auto grew = [](std::uint64_t after_v, std::uint64_t before_v) {
      return static_cast<double>(after_v - before_v);
    };
    const double copies = static_cast<double>(std::max<std::uint64_t>(out.copies, 1));
    const double measured = static_cast<double>(std::max<std::uint64_t>(out.sim.observed, 1));
    const double events = std::max(grew(after.emitted, before.emitted), 1.0);
    const double jobs = grew(after.jobs_completed, before.jobs_completed);
    const double wait_ms =
        jobs > 0 ? grew(after.total_wait_ns, before.total_wait_ns) / jobs * 1e-6 : 0.0;
    const double mean_hops = world.hops_sum / measured;
    m["sim.loop.events_per_copy"] =
        (grew(after.executed, before.executed) - static_cast<double>(world.sampler_ticks)) / copies;
    m["sim.loop.event_host_ns_p50"] = world.event_ns.quantile(0.5);
    m["sim.loop.event_host_ns_p99"] = world.event_ns.quantile(0.99);
    m["sim.loop.pending_peak"] = static_cast<double>(world.pending_peak);
    m["sim.net.datagrams_per_copy"] = grew(after.nic_sent, before.nic_sent) / copies;
    m["sim.net.broker_nic_backlog_ms_p50"] = world.nic_backlog_ns.quantile(0.5) * 1e-6;
    m["sim.net.broker_nic_backlog_ms_p99"] = world.nic_backlog_ns.quantile(0.99) * 1e-6;
    m["sim.net.nic_drops"] = grew(after.nic_dropped, before.nic_dropped);
    m["sim.net.lost"] = grew(after.lost, before.lost);
    m["sim.svc.busy_ratio"] = world.busy.mean();
    m["sim.svc.wait_ms_mean"] = wait_ms;
    m["sim.svc.queue_p99"] = world.queue_len.quantile(0.99);
    m["sim.svc.dispatch_queue_end"] = static_cast<double>(queue_end);
    m["sim.svc.jobs_per_copy"] = jobs / copies;
    m["sim.svc.jobs_rejected"] = grew(after.jobs_rejected, before.jobs_rejected);
    m["broker.node.copies_out"] = grew(after.copies_out, before.copies_out);
    m["broker.node.encodes_per_event"] = grew(after.encodes, before.encodes) / events;
    m["broker.node.peer_forwards_per_event"] =
        grew(after.peer_forwards, before.peer_forwards) / events;
    m["broker.node.unroutable"] = grew(after.unroutable, before.unroutable);
    m["broker.client.publish_ns"] =
        static_cast<double>(world.publish_ns) /
        static_cast<double>(std::max<std::uint64_t>(world.publishes, 1));
    m["rtp.parse_ns"] = static_cast<double>(world.parse_ns) / measured;
    m["media.stats_ns"] = static_cast<double>(world.stats_ns) / measured;
    m["common.allocs_per_copy"] = grew(after.allocs.allocs, before.allocs.allocs) / copies;
    m["common.alloc_bytes_per_copy"] = grew(after.allocs.bytes, before.allocs.bytes) / copies;
    m["common.payload_copies"] = grew(after.payload_copies, before.payload_copies);
    const double handler_s = static_cast<double>(world.handler_ns) * 1e-9;
    const double publish_s = static_cast<double>(world.publish_ns) * 1e-9;
    m["host.run_s"] = out.run_s;
    m["host.handler_s"] = handler_s;
    m["host.publish_s"] = publish_s;
    m["host.loop_self_s"] = out.run_s - handler_s - publish_s;
    // Sim-time stages: a copy waits at, and leaves through the NIC of,
    // every broker it crosses (hops + 1), and crosses hops + 2 links.
    const double dispatch_ms = wait_ms * (mean_hops + 1);
    const double nic_ms = world.nic_backlog_ns.mean() * 1e-6 * (mean_hops + 1);
    const double wire_ms = world.wire_ms_sum / measured;
    m["stage.dispatch_wait_ms"] = dispatch_ms;
    m["stage.nic_backlog_ms"] = nic_ms;
    m["stage.wire_ms"] = wire_ms;
    m["stage.residual_ms"] = out.sim.delay_mean_ns * 1e-6 - dispatch_ms - nic_ms - wire_ms;
    m["broker.fabric.epochs"] = grew(epoch1, epoch0);
    probe_layers(world, m);
  }
  return out;
}

}  // namespace perfbench
