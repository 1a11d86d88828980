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
      broker_stream_(broker_stream),
      udp_delivery_(cfg.udp_delivery),
      udp_publish_(cfg.udp_publish),
      via_proxy_(cfg.via_proxy),
      name_(std::move(cfg.name)) {
  if (cfg.reconnect.enabled) cold().reconnect = cfg.reconnect;
  open_stream();
}

BrokerClient::~BrokerClient() {
  // Timers and handlers capture `this`; disarm them all before the members
  // they reach into are torn down.
  if (cold_ && cold_->retry_timer != 0) host_->loop().cancel(cold_->retry_timer);
  if (stream_) stream_->on_close(nullptr);
}

BrokerClient::Cold& BrokerClient::cold() {
  if (!cold_) cold_.reset(new Cold{.jitter_rng = Rng(jitter_seed(*host_, name_))});
  return *cold_;
}

void BrokerClient::open_stream() {
  const bool tunneled = via_proxy_.has_value();
  stream_ = tunneled ? transport::connect_via_proxy(*host_, *via_proxy_, broker_stream_)
                     : transport::StreamConnection::connect(*host_, broker_stream_);
  if (!tunneled && (udp_delivery_ || udp_publish_) && !udp_) {
    // The UDP socket outlives reconnects: keeping its port stable is what
    // lets the broker recognize a returning client's Hello and evict the
    // ghost record of the crashed incarnation.
    udp_.emplace(*host_);
    udp_->on_receive([this](const sim::Datagram& d) { handle_frame(d.payload); });
  }
  HelloMessage hello;
  hello.client_name = name_;
  if (udp_ && udp_delivery_) hello.udp_port = udp_->local().port;
  stream_->send(encode(hello));
  stream_->on_message([this](const Payload& data) { handle_frame(data); });
  stream_->on_close([this] { stream_down(); });
  // The detector covers the handshake too (its probe is the SYN), so an
  // attempt nobody answers fails and re-enters backoff.
  if (reconnect_enabled()) {
    stream_->watch(cold_->reconnect.idle, [this](bool alive) {
      if (!alive) stream_down();
    });
  }
}

void BrokerClient::stream_down() {
  if (cold_ && cold_->retry_pending) return;
  ready_ = false;
  // Disarm first: close() below must not re-enter stream_down().
  stream_->on_close(nullptr);
  stream_->close();
  if (!cold_) return;
  Cold& c = *cold_;
  ++c.disconnects;
  if (c.disconnect_handler) c.disconnect_handler();
  if (c.reconnect.enabled) schedule_retry();
}

void BrokerClient::schedule_retry() {
  Cold& c = *cold_;
  // Exponential backoff with jitter: base * 2^attempts, capped, then
  // spread by a uniform +-jitter fraction.
  std::int64_t delay_ns = c.reconnect.backoff_base.ns();
  for (int i = 0; i < c.attempt && delay_ns < c.reconnect.backoff_max.ns(); ++i) {
    delay_ns *= 2;
  }
  delay_ns = std::min(delay_ns, c.reconnect.backoff_max.ns());
  if (c.reconnect.jitter > 0) {
    double factor = c.jitter_rng.uniform(1.0 - c.reconnect.jitter, 1.0 + c.reconnect.jitter);
    delay_ns = std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                             static_cast<double>(delay_ns) * factor));
  }
  c.retry_pending = true;
  c.retry_timer = host_->loop().schedule_after(SimDuration{delay_ns}, [this] {
    cold_->retry_timer = 0;
    cold_->retry_pending = false;
    attempt_connect();
  });
}

void BrokerClient::attempt_connect() {
  ++cold_->attempt;
  if (!host_->up()) {
    // Our own host is still down (bind would refuse); keep backing off.
    schedule_retry();
    return;
  }
  open_stream();
}

void BrokerClient::handle_frame(const Payload& data) {
  // Media hot path: a kEvent frame decodes in place into rx_event_,
  // reusing its topic capacity; no Frame is built.
  if (decode_event_into(data, rx_event_)) {
    ++events_received_;
    // Last statement: the handler may publish, resubscribe or destroy
    // this client, so nothing here touches client state after it.
    if (event_handler_) event_handler_(rx_event_);
    return;
  }
  auto frame = decode(data);
  if (!frame.ok()) return;
  Frame f = std::move(frame).value();
  switch (f.type) {
    case MessageType::kHelloAck:
      client_id_ = f.hello_ack.client_id;
      broker_udp_ = sim::Endpoint{stream_->remote().node, f.hello_ack.broker_udp_port};
      ready_ = true;
      if (cold_) cold_->attempt = 0;
      if (acked_) {
        // Re-handshake: the broker minted a fresh (empty) client record, so
        // replay the whole subscription set. The first HelloAck must NOT
        // replay — subscribe() already sent those frames.
        Cold& c = cold();
        ++c.reconnects;
        for (const auto& filter : c.filters) {
          stream_->send(encode(SubscribeMessage{filter, true}));
        }
        if (c.reconnect_handler) c.reconnect_handler();
      }
      acked_ = true;
      flush_queue();
      if (cold_ && cold_->ready_handler) cold_->ready_handler();
      break;
    case MessageType::kHello:
    case MessageType::kSubscribe:
    case MessageType::kUnsubscribe:
    case MessageType::kEvent:
    case MessageType::kPeerEvent:
    case MessageType::kPing:
    case MessageType::kPong:
    case MessageType::kLinkState:
      // Clients only consume kHelloAck and kEvent (handled above); other
      // frames addressed to us are ignored.
      break;
  }
}

void BrokerClient::subscribe(const std::string& filter) {
  if (reconnect_enabled()) {
    std::vector<std::string>& filters = cold_->filters;
    if (std::find(filters.begin(), filters.end(), filter) == filters.end()) {
      filters.push_back(filter);
    }
  }
  stream_->send(encode(SubscribeMessage{filter, true}));
}

void BrokerClient::unsubscribe(const std::string& filter) {
  if (cold_) std::erase(cold_->filters, filter);
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
    // A stream closed for good never flushes the queue: drop, counted.
    if (stream_->closed() && !reconnect_enabled()) {
      ++cold().publishes_dropped;
      return;
    }
    pending_.push(std::move(ev));
    return;
  }
  // Self-stamp the broker-assigned id: the published frame is then
  // byte-identical to the one the broker fans out, so the broker adopts it
  // instead of re-encoding (encode-once across the whole tree).
  ev.publisher = client_id_;
  ++events_published_;
  if (udp_ && udp_publish_ && qos == QoS::kBestEffort) {
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
    if (udp_ && udp_publish_ && ev.qos == QoS::kBestEffort) {
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
  Cold& c = cold();
  c.ready_handler = std::move(handler);
  if (ready_ && c.ready_handler) c.ready_handler();
}

void BrokerClient::on_disconnect(std::function<void()> handler) {
  cold().disconnect_handler = std::move(handler);
}

void BrokerClient::on_reconnect(std::function<void()> handler) {
  cold().reconnect_handler = std::move(handler);
}

}  // namespace gmmcs::broker
