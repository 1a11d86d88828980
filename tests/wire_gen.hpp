// Seeded generators of valid binary wire messages, shared by the codec
// round trips (roundtrip_property_test.cpp, property_test.cpp's
// WireRoundTrip grids) and the decoder fuzzer, which mutates their images
// (decode_fuzz_test.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "broker/event.hpp"
#include "common/bytes.hpp"
#include "common/random.hpp"
#include "h323/messages.hpp"
#include "rtp/packet.hpp"
#include "rtp/rtcp.hpp"

namespace gmmcs::gen {

inline std::string rand_token(Rng& rng, std::size_t max_len = 24) {
  static const char kAlpha[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.";
  auto len = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(kAlpha[rng.uniform_int(0, sizeof(kAlpha) - 2)]);
  }
  return s;
}

inline Bytes rand_bytes(Rng& rng, std::size_t max_len = 64) {
  Bytes b(static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return b;
}

inline std::uint32_t rand_u32(Rng& rng) { return static_cast<std::uint32_t>(rng.next()); }
inline std::uint16_t rand_u16(Rng& rng) { return static_cast<std::uint16_t>(rng.next()); }
inline std::uint8_t rand_u8(Rng& rng) { return static_cast<std::uint8_t>(rng.next()); }

inline sim::Endpoint rand_endpoint(Rng& rng) { return {rand_u32(rng), rand_u16(rng)}; }
inline SimTime rand_time(Rng& rng) { return SimTime{rng.uniform_int(0, 1'000'000'000)}; }

inline broker::Event rand_event(Rng& rng) {
  broker::Event ev;
  ev.topic = rand_token(rng);
  ev.payload = rand_bytes(rng);
  ev.qos = rng.chance(0.5) ? broker::QoS::kReliable : broker::QoS::kBestEffort;
  ev.origin = rand_time(rng);
  ev.seq = rand_u32(rng);
  ev.hops = rand_u8(rng);
  ev.publisher = rand_u32(rng);
  return ev;
}

inline broker::PeerEventMessage rand_peer_event(Rng& rng) {
  broker::PeerEventMessage m;
  m.event = rand_event(rng);
  for (auto n = rng.uniform_int(0, 6); n > 0; --n) m.targets.push_back(rand_u32(rng));
  return m;
}

/// The kinds rand_broker_frame makes: Hello, HelloAck, Subscribe,
/// Unsubscribe, Event, PeerEvent, Ping, Pong and LinkState.
constexpr int kBrokerFrameKinds = 9;

/// A valid broker frame of kind `kind` (0 .. kBrokerFrameKinds - 1).
inline Payload rand_broker_frame(Rng& rng, int kind) {
  switch (kind) {
    case 0:
      return encode(broker::HelloMessage{rand_token(rng), rand_u16(rng)});
    case 1:
      return encode(broker::HelloAckMessage{rand_u32(rng), rand_u16(rng)});
    case 2:
    case 3:
      return encode(broker::SubscribeMessage{rand_token(rng), kind == 2});
    case 4:
      return encode(rand_event(rng));
    case 5:
      return encode(rand_peer_event(rng));
    case 6:
    case 7:
      return encode(broker::PingMessage{rand_u32(rng), rand_time(rng)}, /*pong=*/kind == 7);
    default:
      return encode(broker::LinkStateMessage{
          rand_u32(rng), rand_u32(rng), rand_u32(rng), rand_u32(rng), rng.chance(0.5)});
  }
}

inline h323::RasMessage rand_ras(Rng& rng) {
  h323::RasMessage m;
  m.type = static_cast<h323::RasType>(rng.uniform_int(1, 14));
  m.seq = rand_u32(rng);
  m.endpoint_alias = rand_token(rng);
  m.gatekeeper_id = rand_token(rng);
  m.call_signal_address = rand_endpoint(rng);
  m.bandwidth = rand_u32(rng);
  m.destination_alias = rand_token(rng);
  m.reject_reason = rand_token(rng);
  return m;
}

inline h323::Q931Message rand_q931(Rng& rng) {
  const h323::Q931Type types[] = {h323::Q931Type::kSetup, h323::Q931Type::kCallProceeding,
                                  h323::Q931Type::kAlerting, h323::Q931Type::kConnect,
                                  h323::Q931Type::kReleaseComplete};
  h323::Q931Message m;
  m.type = types[rng.uniform_int(0, 4)];
  m.call_reference = rand_u16(rng);
  m.calling_party = rand_token(rng);
  m.called_party = rand_token(rng);
  m.h245_address = rand_endpoint(rng);
  m.release_reason = rand_token(rng);
  return m;
}

inline h323::H245Message rand_h245(Rng& rng) {
  h323::H245Message m;
  m.type = static_cast<h323::H245Type>(rng.uniform_int(1, 10));
  m.seq = rand_u32(rng);
  for (auto n = rng.uniform_int(0, 8); n > 0; --n) m.capabilities.push_back(rand_u8(rng));
  m.channel = rand_u16(rng);
  m.media_kind = rng.chance(0.5) ? "audio" : "video";
  m.payload_type = rand_u8(rng);
  m.media_address = rand_endpoint(rng);
  m.reject_reason = rand_token(rng);
  return m;
}

inline rtp::RtpPacket rand_rtp(Rng& rng) {
  rtp::RtpPacket p;
  p.marker = rng.chance(0.5);
  p.payload_type = static_cast<std::uint8_t>(rng.uniform_int(0, 127));  // 7-bit field
  p.sequence = rand_u16(rng);
  p.timestamp = rand_u32(rng);
  p.ssrc = rand_u32(rng);
  for (auto n = rng.uniform_int(0, 15); n > 0; --n) p.csrcs.push_back(rand_u32(rng));  // 4-bit count
  p.payload = rand_bytes(rng, 256);
  return p;
}

inline rtp::ReportBlock rand_block(Rng& rng) {
  rtp::ReportBlock b;
  b.ssrc = rand_u32(rng);
  b.fraction_lost = rand_u8(rng);
  b.cumulative_lost = rand_u32(rng) & 0xFFFFFFu;  // 24 bits on the wire
  b.highest_seq = rand_u32(rng);
  b.jitter = rand_u32(rng);
  b.lsr = rand_u32(rng);
  b.dlsr = rand_u32(rng);
  return b;
}

inline rtp::SenderReport rand_sender_report(Rng& rng) {
  rtp::SenderReport sr;
  sr.ssrc = rand_u32(rng);
  sr.ntp_timestamp = rng.next();
  sr.rtp_timestamp = rand_u32(rng);
  sr.packet_count = rand_u32(rng);
  sr.octet_count = rand_u32(rng);
  for (auto n = rng.uniform_int(0, 4); n > 0; --n) sr.blocks.push_back(rand_block(rng));
  return sr;
}

inline rtp::ReceiverReport rand_receiver_report(Rng& rng) {
  rtp::ReceiverReport rr;
  rr.ssrc = rand_u32(rng);
  for (auto n = rng.uniform_int(0, 4); n > 0; --n) rr.blocks.push_back(rand_block(rng));
  return rr;
}

}  // namespace gmmcs::gen
