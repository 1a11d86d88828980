#include "broker/event.hpp"

namespace gmmcs::broker {

namespace {
std::uint64_t g_event_encodes = 0;

void encode_event_body(FrameWriter& w, const Event& e) {
  w.u8(static_cast<std::uint8_t>(e.qos));
  w.u8(e.hops);
  w.u64(static_cast<std::uint64_t>(e.origin.ns()));
  w.u32(e.seq);
  w.u32(e.publisher);
  w.lstr(e.topic);
  w.u32(static_cast<std::uint32_t>(e.payload.size()));
  w.raw(e.payload);
}

// The one event-body decoder, shared by decode() and the in-place
// decode_event_into() / decode_peer_event_into().
// Fills `e` in place: the topic is assigned into its existing capacity.
void decode_event_body(ByteReader& r, const Payload& frame, Event& e) {
  e.qos = static_cast<QoS>(r.u8());
  e.hops = r.u8();
  e.origin = SimTime{static_cast<std::int64_t>(r.u64())};
  e.seq = r.u32();
  e.publisher = r.u32();
  e.topic.assign(r.lstr_view());
  auto len = r.read_len_bounded(r.remaining());
  if (!len.ok()) return;  // reader is poisoned; caller checks r.ok()
  std::size_t at = r.position();
  // Advance through the reader, but take the payload as a zero-copy
  // slice of the frame buffer rather than an owned vector.
  r.skip(len.value());
  e.payload = frame.slice(at, len.value());
}
}  // namespace

Payload encode(const HelloMessage& m) {
  FrameWriter w(1 + 2 + m.client_name.size() + 2);
  w.u8(static_cast<std::uint8_t>(MessageType::kHello));
  w.lstr(m.client_name);
  w.u16(m.udp_port);
  return w.take();
}

Payload encode(const HelloAckMessage& m) {
  FrameWriter w(1 + 4 + 2);
  w.u8(static_cast<std::uint8_t>(MessageType::kHelloAck));
  w.u32(m.client_id);
  w.u16(m.broker_udp_port);
  return w.take();
}

Payload encode(const SubscribeMessage& m) {
  FrameWriter w(1 + 2 + m.filter.size());
  w.u8(static_cast<std::uint8_t>(m.subscribe ? MessageType::kSubscribe
                                             : MessageType::kUnsubscribe));
  w.lstr(m.filter);
  return w.take();
}

// Fixed kEvent overhead: type + qos + hops (3×u8) + origin (u64) +
// seq + publisher + payload length (3×u32) + the topic's lstr prefix
// (u16) = 25 bytes. FrameWriter sizes the frame exactly, so a miscount
// throws rather than re-copying the frame.
constexpr std::size_t kEventFixedOverhead = 25;

Payload encode(const Event& e) {
  ++g_event_encodes;
  FrameWriter w(e.payload.size() + e.topic.size() + kEventFixedOverhead);
  w.u8(static_cast<std::uint8_t>(MessageType::kEvent));
  encode_event_body(w, e);
  return w.take();
}

Payload encode_peer_event(const Event& e, std::span<const BrokerId> targets) {
  FrameWriter w(e.payload.size() + e.topic.size() + kEventFixedOverhead + 2 +
                4 * targets.size());
  w.u8(static_cast<std::uint8_t>(MessageType::kPeerEvent));
  w.u16(static_cast<std::uint16_t>(targets.size()));
  for (BrokerId id : targets) w.u32(id);
  encode_event_body(w, e);
  return w.take();
}

Payload encode(const PeerEventMessage& m) {
  return encode_peer_event(m.event, m.targets);
}

std::uint64_t event_encode_count() {
  return g_event_encodes;
}

const Payload& RoutedEvent::wire() const {
  if (!encoded_) {
    wire_ = encode(event_);
    encoded_ = true;
  }
  return wire_;
}

Payload encode(const PingMessage& m, bool pong) {
  FrameWriter w(1 + 4 + 8);
  w.u8(static_cast<std::uint8_t>(pong ? MessageType::kPong : MessageType::kPing));
  w.u32(m.token);
  w.u64(static_cast<std::uint64_t>(m.sent.ns()));
  return w.take();
}

Payload encode(const LinkStateMessage& m) {
  FrameWriter w(1 + 4 * 4 + 1);
  w.u8(static_cast<std::uint8_t>(MessageType::kLinkState));
  w.u32(m.origin);
  w.u32(m.seq);
  w.u32(m.a);
  w.u32(m.b);
  w.u8(m.up ? 1 : 0);
  return w.take();
}

Result<Frame> decode(const Payload& data) {
  if (data.empty()) return fail<Frame>("broker: empty frame");
  ByteReader r(data);
  Frame f;
  auto type = r.u8();
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello:
      f.type = MessageType::kHello;
      f.hello.client_name = r.lstr();
      f.hello.udp_port = r.u16();
      break;
    case MessageType::kHelloAck:
      f.type = MessageType::kHelloAck;
      f.hello_ack.client_id = r.u32();
      f.hello_ack.broker_udp_port = r.u16();
      break;
    case MessageType::kSubscribe:
    case MessageType::kUnsubscribe:
      f.type = static_cast<MessageType>(type);
      f.subscribe.filter = r.lstr();
      f.subscribe.subscribe = (static_cast<MessageType>(type) == MessageType::kSubscribe);
      break;
    case MessageType::kEvent:
      f.type = MessageType::kEvent;
      decode_event_body(r, data, f.event);
      break;
    case MessageType::kPeerEvent: {
      f.type = MessageType::kPeerEvent;
      // A hostile 3-byte frame used to claim 65535 targets and allocate
      // 256 KiB before the truncation check; the clamped count read
      // rejects any count that can't fit in the bytes actually left.
      auto n = r.read_count_u16(4);
      if (!n.ok()) break;  // reader poisoned; truncation check below fires
      f.peer_event.targets.reserve(n.value());
      for (std::size_t i = 0; i < n.value(); ++i) {
        f.peer_event.targets.push_back(r.u32());
      }
      decode_event_body(r, data, f.peer_event.event);
      break;
    }
    case MessageType::kPing:
    case MessageType::kPong:
      f.type = static_cast<MessageType>(type);
      f.ping.token = r.u32();
      f.ping.sent = SimTime{static_cast<std::int64_t>(r.u64())};
      break;
    case MessageType::kLinkState:
      f.type = MessageType::kLinkState;
      f.link_state.origin = r.u32();
      f.link_state.seq = r.u32();
      f.link_state.a = r.u32();
      f.link_state.b = r.u32();
      f.link_state.up = r.u8() != 0;
      break;
    default:
      return fail<Frame>("broker: unknown frame type " + std::to_string(type));
  }
  if (!r.ok()) return fail<Frame>("broker: truncated frame");
  return f;
}

bool decode_event_into(const Payload& data, Event& out) {
  if (data.empty() || data[0] != static_cast<std::uint8_t>(MessageType::kEvent)) return false;
  ByteReader r(data);
  r.skip(1);
  decode_event_body(r, data, out);
  return r.ok();
}

bool decode_peer_event_into(const Payload& data, Event& out, PeerTargets& targets) {
  if (data.empty() || data[0] != static_cast<std::uint8_t>(MessageType::kPeerEvent)) return false;
  ByteReader r(data);
  r.skip(1);
  // The same clamped count read as decode(); the ids stay in the frame.
  auto n = r.read_count_u16(4);
  if (!n.ok()) return false;
  const std::size_t at = r.position();
  r.skip(4 * n.value());
  targets = PeerTargets(data.slice(at, 4 * n.value()));
  decode_event_body(r, data, out);
  return r.ok();
}

}  // namespace gmmcs::broker
