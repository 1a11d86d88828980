// Broker events and the client/broker wire protocol.
//
// One binary frame format is shared by the stream (TCP-profile) and
// datagram (UDP-profile) channels, and by broker-to-broker links. Events
// carry an origin timestamp stamped at the publisher so receivers can
// measure true end-to-end delay across any number of broker hops — the
// quantity Figure 3 plots.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/payload.hpp"
#include "common/result.hpp"
#include "common/time.hpp"

namespace gmmcs::broker {

using BrokerId = std::uint32_t;
using ClientId = std::uint32_t;

enum class QoS : std::uint8_t {
  /// Delivered over the client's datagram channel if it has one.
  kBestEffort = 0,
  /// Always delivered over the reliable stream channel.
  kReliable = 1,
};

/// A published event.
struct Event {
  std::string topic;
  /// Ref-counted view. Decoded events hold a zero-copy slice of the frame
  /// they arrived in; published events adopt the buffer the application
  /// framed. Bytes are allocated once at the publisher, then shared.
  Payload payload;
  QoS qos = QoS::kBestEffort;
  /// Publisher's simulated send instant (end-to-end delay reference).
  SimTime origin;
  /// Publisher-assigned sequence number (monotonic per publisher).
  std::uint32_t seq = 0;
  /// Broker hops traversed so far.
  std::uint8_t hops = 0;
  /// Publishing client's id, stamped by its ingress broker (0 = unknown).
  /// (publisher, seq) identifies an event for the recovery service.
  ClientId publisher = 0;
};

/// Message kinds on client<->broker and broker<->broker channels.
enum class MessageType : std::uint8_t {
  kHello = 1,       // client -> broker: announce, optional UDP receive port
  kHelloAck = 2,    // broker -> client: client id + broker UDP port
  kSubscribe = 3,   // client -> broker: filter
  kUnsubscribe = 4, // client -> broker: filter
  kEvent = 5,       // either direction: a published/delivered event
  kPeerEvent = 6,   // broker -> broker: event + remaining target brokers
  kPing = 7,        // link performance probe (monitoring service)
  kPong = 8,        // probe reply, echoing token and send time
  // 9 is retired (it was a peer heartbeat): an old frame must not decode.
  kLinkState = 10,  // broker -> broker: gossiped link up/down advertisement
};

struct HelloMessage {
  std::string client_name;
  /// 0 means "deliver events over the stream".
  std::uint16_t udp_port = 0;
};

struct HelloAckMessage {
  ClientId client_id = 0;
  std::uint16_t broker_udp_port = 0;
};

struct SubscribeMessage {
  std::string filter;
  bool subscribe = true;  // false = unsubscribe
};

/// Broker-to-broker forwarded event with its remaining target set.
struct PeerEventMessage {
  Event event;
  std::vector<BrokerId> targets;
};

/// Link probe (same payload both directions; pong echoes the ping).
struct PingMessage {
  std::uint32_t token = 0;
  SimTime sent;
};

/// Gossiped link-state advertisement (DESIGN.md §8, §13):
/// `origin` observed link (a, b) transition to `up` and floods the news
/// over its peer links; `seq` is a per-origin sequence number brokers use
/// to forward each advertisement at most once.
struct LinkStateMessage {
  BrokerId origin = 0;
  std::uint32_t seq = 0;
  BrokerId a = 0;
  BrokerId b = 0;
  bool up = false;
};

// Every encoder writes its frame straight into one Payload block sized
// exactly, with the headroom a stream's kData byte needs (FrameWriter):
// a frame costs one allocation and is never copied on its way out.
Payload encode(const HelloMessage& m);
Payload encode(const HelloAckMessage& m);
Payload encode(const SubscribeMessage& m);
Payload encode(const Event& e);
Payload encode(const PeerEventMessage& m);
/// kPeerEvent framing straight from an Event and a target set, avoiding
/// the intermediate PeerEventMessage copy of topic + payload.
Payload encode_peer_event(const Event& e, std::span<const BrokerId> targets);
Payload encode(const PingMessage& m, bool pong);
Payload encode(const LinkStateMessage& m);

/// Process-wide count of kEvent encodes (encode(Event) calls). Host-side
/// instrumentation for the encode-once fan-out path; tests and benches
/// diff it around a publish to prove the wire frame is built exactly once
/// per event regardless of recipient count. Not part of the cost model.
std::uint64_t event_encode_count();

/// An event in flight through the routing fast path: one Event plus its
/// lazily-encoded kEvent wire frame. Fan-out jobs share one RoutedEvent,
/// so a 400-recipient delivery holds one payload buffer and encodes one
/// frame instead of copying and re-encoding per recipient — the
/// transmission-path optimization behind the paper's Figure-3 gap.
/// BrokerNode recycles them (refill()), so a warmed broker decodes each
/// arriving event into one whose topic string already has the capacity.
class RoutedEvent {
 public:
  RoutedEvent() = default;
  explicit RoutedEvent(Event ev) : event_(std::move(ev)) {}

  [[nodiscard]] const Event& event() const { return event_; }
  /// The cached kEvent frame; adopted at ingress or encoded on first use,
  /// shared afterwards.
  [[nodiscard]] const Payload& wire() const;

  /// The event to decode a fresh arrival into, in place: the cached frame
  /// is dropped and the topic keeps its capacity.
  Event& refill() {
    wire_ = Payload{};
    encoded_ = false;
    return event_;
  }
  /// Frame adoption: when the decoded event is forwarded verbatim, the
  /// arrival frame IS the delivery frame — the broker re-encodes nothing
  /// and every recipient shares the publisher's one allocation.
  void adopt_wire(Payload frame) {
    wire_ = std::move(frame);
    encoded_ = true;
  }
  /// Drops the payload and frame handles (their blocks may be freed),
  /// keeping the topic's capacity for the next refill().
  void clear() {
    event_.payload = Payload{};
    wire_ = Payload{};
    encoded_ = false;
  }

 private:
  Event event_;
  mutable Payload wire_;
  mutable bool encoded_ = false;
};

/// The target-broker list of a kPeerEvent frame, read in place: a
/// zero-copy slice of the frame's big-endian u32 ids, so holding it keeps
/// the frame alive and no id vector is built.
class PeerTargets {
 public:
  PeerTargets() = default;
  /// `ids` holds the list's bytes: size() whole big-endian u32s.
  explicit PeerTargets(Payload ids) : ids_(std::move(ids)) {}

  [[nodiscard]] std::size_t size() const { return ids_.size() / 4; }
  [[nodiscard]] BrokerId operator[](std::size_t i) const {
    const std::uint8_t* p = ids_.data() + 4 * i;
    return (static_cast<BrokerId>(p[0]) << 24) | (static_cast<BrokerId>(p[1]) << 16) |
           (static_cast<BrokerId>(p[2]) << 8) | static_cast<BrokerId>(p[3]);
  }

 private:
  Payload ids_;
};

/// A decoded frame; `type` selects which member is meaningful.
struct Frame {
  MessageType type;
  HelloMessage hello;
  HelloAckMessage hello_ack;
  SubscribeMessage subscribe;
  Event event;
  PeerEventMessage peer_event;
  PingMessage ping;
  LinkStateMessage link_state;
};

/// Decodes a frame. The event payload inside a kEvent/kPeerEvent frame is
/// a zero-copy slice of `data` (it shares the buffer; no bytes move).
[[nodiscard]] Result<Frame> decode(const Payload& data);

/// In-place kEvent decoder for the receive hot path: fills `out` from a
/// kEvent frame, assigning the topic into `out`'s existing capacity and
/// slicing the payload out of `data`, with no Frame built. True exactly
/// when decode(data) yields a kEvent frame, with identical fields (both
/// run the same body decoder); on false `out` is unspecified.
[[nodiscard]] bool decode_event_into(const Payload& data, Event& out);

/// In-place kPeerEvent decoder for the broker-to-broker hop: fills `out`
/// like decode_event_into and points `targets` at the frame's id list,
/// with no Frame, PeerEventMessage or target vector built. True exactly
/// when decode(data) yields a kPeerEvent frame, with identical event
/// fields and targets (both run the same clamped count read and the one
/// body decoder); on false `out` and `targets` are unspecified.
[[nodiscard]] bool decode_peer_event_into(const Payload& data, Event& out, PeerTargets& targets);

}  // namespace gmmcs::broker
