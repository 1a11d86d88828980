#include "broker/client.hpp"

#include <algorithm>

#include "broker/topic.hpp"

namespace gmmcs::broker {

namespace {
/// Stable jitter seed from (host, name): std::hash is not guaranteed
/// stable across platforms, FNV-1a is.
std::uint64_t jitter_seed(const sim::Host& host, const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h ^ (static_cast<std::uint64_t>(host.id()) << 32);
}
}  // namespace

BrokerClient::BrokerClient(sim::Host& host, sim::Endpoint broker_stream)
    : BrokerClient(host, broker_stream, Config{}) {}

BrokerClient::BrokerClient(sim::Host& host, sim::Endpoint broker_stream, Config cfg)
    : host_(&host),
      cfg_(cfg),
      broker_stream_(broker_stream),
      jitter_rng_(jitter_seed(host, cfg.name)) {
  open_stream();
}

BrokerClient::~BrokerClient() {
  // Timers and handlers capture `this`; disarm them all before the members
  // they reach into are torn down.
  if (retry_timer_ != 0) host_->loop().cancel(retry_timer_);
  cancel_connect_timer();
  keepalive_task_.reset();
  if (stream_) stream_->on_close(nullptr);
}

void BrokerClient::open_stream() {
  ++conn_generation_;
  bool tunneled = cfg_.via_proxy.has_value();
  if (tunneled) {
    stream_ = transport::connect_via_proxy(*host_, *cfg_.via_proxy, broker_stream_);
  } else {
    transport::ConnectOptions opts;
    if (cfg_.reconnect.enabled) {
      // SYN-level retransmission under the connect_timeout watchdog: a lost
      // handshake segment recovers in one syn_retry instead of a full
      // teardown + backoff + re-Hello round.
      opts.syn_retry = cfg_.reconnect.syn_retry;
      opts.max_syn_retries = cfg_.reconnect.syn_retries;
    }
    stream_ = transport::StreamConnection::connect(*host_, broker_stream_, opts);
  }
  if (!tunneled && (cfg_.udp_delivery || cfg_.udp_publish) && !udp_) {
    // The UDP socket outlives reconnects: keeping its port stable is what
    // lets the broker recognize a returning client's Hello and evict the
    // ghost record of the crashed incarnation.
    udp_.emplace(*host_);
    udp_->on_receive([this](const sim::Datagram& d) { handle_frame(d.payload); });
  }
  HelloMessage hello;
  hello.client_name = cfg_.name;
  if (udp_ && cfg_.udp_delivery) hello.udp_port = udp_->local().port;
  stream_->send(encode(hello));
  stream_->on_message([this](const Payload& data) { handle_frame(data); });
  last_heard_ = host_->loop().now();
  if (cfg_.reconnect.enabled) {
    stream_->on_close([this] { stream_down(); });
    // Connect-timeout watchdog, generation-guarded so a late firing after
    // this attempt was superseded is a no-op. Armed only when reconnect is
    // opted into: a pending timer would extend loop.run() horizons and
    // shift fault-free bench timestamps.
    connect_timer_ = host_->loop().schedule_after(
        cfg_.reconnect.connect_timeout, [this, gen = conn_generation_] {
          connect_timer_ = 0;
          if (gen == conn_generation_ && !ready_) stream_down();
        });
  }
}

void BrokerClient::stream_down() {
  if (retry_pending_) return;
  cancel_connect_timer();
  ready_ = false;
  ++disconnects_;
  if (stream_) {
    // Disarm first: close() below must not re-enter stream_down().
    stream_->on_close(nullptr);
    stream_->close();
  }
  if (disconnect_handler_) disconnect_handler_();
  if (cfg_.reconnect.enabled) schedule_retry();
}

void BrokerClient::schedule_retry() {
  // Exponential backoff with jitter: base * 2^attempts, capped, then
  // spread by a uniform +-jitter fraction.
  std::int64_t delay_ns = cfg_.reconnect.backoff_base.ns();
  for (int i = 0; i < attempt_ && delay_ns < cfg_.reconnect.backoff_max.ns(); ++i) {
    delay_ns *= 2;
  }
  delay_ns = std::min(delay_ns, cfg_.reconnect.backoff_max.ns());
  if (cfg_.reconnect.jitter > 0) {
    double factor = jitter_rng_.uniform(1.0 - cfg_.reconnect.jitter, 1.0 + cfg_.reconnect.jitter);
    delay_ns = std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                             static_cast<double>(delay_ns) * factor));
  }
  retry_pending_ = true;
  retry_timer_ = host_->loop().schedule_after(SimDuration{delay_ns}, [this] {
    retry_timer_ = 0;
    retry_pending_ = false;
    attempt_connect();
  });
}

void BrokerClient::attempt_connect() {
  if (!host_->up()) {
    // Our own host is still down (bind would refuse); keep backing off.
    ++attempt_;
    schedule_retry();
    return;
  }
  ++attempt_;
  open_stream();
}

void BrokerClient::cancel_connect_timer() {
  if (connect_timer_ != 0) {
    host_->loop().cancel(connect_timer_);
    connect_timer_ = 0;
  }
}

void BrokerClient::keepalive_tick() {
  if (!ready_) return;  // during an outage the backoff machinery owns liveness
  PingMessage ping;
  ping.sent = host_->loop().now();
  stream_->send(encode(ping, /*pong=*/false));
  if (host_->loop().now() - last_heard_ > cfg_.keepalive_interval * cfg_.keepalive_miss) {
    stream_down();
  }
}

void BrokerClient::handle_frame(const Payload& data) {
  // Media hot path: a kEvent frame decodes in place into rx_event_,
  // reusing its topic capacity; no Frame is built.
  if (decode_event_into(data, rx_event_)) {
    last_heard_ = host_->loop().now();
    ++events_received_;
    // Last statement: the handler may publish, resubscribe or destroy
    // this client, so nothing here touches client state after it.
    if (event_handler_) event_handler_(rx_event_);
    return;
  }
  auto frame = decode(data);
  if (!frame.ok()) return;
  Frame f = std::move(frame).value();
  last_heard_ = host_->loop().now();
  switch (f.type) {
    case MessageType::kHelloAck:
      client_id_ = f.hello_ack.client_id;
      broker_udp_ = sim::Endpoint{stream_->remote().node, f.hello_ack.broker_udp_port};
      ready_ = true;
      attempt_ = 0;
      cancel_connect_timer();
      if (hello_acks_++ > 0) {
        // Re-handshake: the broker minted a fresh (empty) client record, so
        // replay the whole subscription set. The first HelloAck must NOT
        // replay — subscribe() already sent those frames.
        ++reconnects_;
        for (const auto& filter : filters_) {
          stream_->send(encode(SubscribeMessage{filter, true}));
        }
        if (reconnect_handler_) reconnect_handler_();
      }
      if (cfg_.keepalive_interval.ns() > 0 && !keepalive_task_) {
        keepalive_task_ = std::make_unique<sim::PeriodicTask>(
            host_->loop(), cfg_.keepalive_interval, [this](std::uint64_t) { keepalive_tick(); });
        keepalive_task_->start();
      }
      flush_queue();
      if (ready_handler_) ready_handler_();
      break;
    case MessageType::kPing:
      // Broker-side client keepalive probe (DESIGN.md §13): answer so the
      // broker can tell a quiet-but-alive client from a ghost record.
      stream_->send(encode(f.ping, /*pong=*/true));
      break;
    case MessageType::kHello:
    case MessageType::kSubscribe:
    case MessageType::kUnsubscribe:
    case MessageType::kEvent:
    case MessageType::kPeerEvent:
    case MessageType::kPong:
    case MessageType::kHeartbeat:
    case MessageType::kLinkState:
      // Clients only consume kHelloAck/kEvent/kPing (kEvent is handled
      // above); other frames addressed to us are ignored.
      break;
  }
}

void BrokerClient::subscribe(const std::string& filter) {
  if (std::find(filters_.begin(), filters_.end(), filter) == filters_.end()) {
    filters_.push_back(filter);
  }
  stream_->send(encode(SubscribeMessage{filter, true}));
}

void BrokerClient::unsubscribe(const std::string& filter) {
  std::erase(filters_, filter);
  stream_->send(encode(SubscribeMessage{filter, false}));
}

void BrokerClient::publish(const std::string& topic, Payload payload, QoS qos) {
  Event ev;
  ev.topic = normalize_topic(topic);
  ev.payload = std::move(payload);
  ev.qos = qos;
  ev.origin = host_->loop().now();
  ev.seq = next_seq_++;
  if (!ready_) {
    pending_.push(std::move(ev));
    return;
  }
  // Self-stamp the broker-assigned id: the published frame is then
  // byte-identical to the one the broker fans out, so the broker adopts it
  // instead of re-encoding (encode-once across the whole tree).
  ev.publisher = client_id_;
  ++events_published_;
  if (udp_ && cfg_.udp_publish && qos == QoS::kBestEffort) {
    udp_->send_to(broker_udp_, encode(ev));
  } else {
    stream_->send(encode(ev));
  }
}

void BrokerClient::flush_queue() {
  while (!pending_.empty()) {
    Event ev = pending_.pop();
    ev.publisher = client_id_;  // see publish(): enables broker frame adoption
    ++events_published_;
    if (udp_ && cfg_.udp_publish && ev.qos == QoS::kBestEffort) {
      udp_->send_to(broker_udp_, encode(ev));
    } else {
      stream_->send(encode(ev));
    }
  }
}

void BrokerClient::on_event(std::function<void(const Event&)> handler) {
  event_handler_ = std::move(handler);
}

void BrokerClient::on_ready(std::function<void()> handler) {
  ready_handler_ = std::move(handler);
  if (ready_ && ready_handler_) ready_handler_();
}

void BrokerClient::on_disconnect(std::function<void()> handler) {
  disconnect_handler_ = std::move(handler);
}

void BrokerClient::on_reconnect(std::function<void()> handler) {
  reconnect_handler_ = std::move(handler);
}

}  // namespace gmmcs::broker
