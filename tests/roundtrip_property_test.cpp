// Seeded-random encode -> decode -> re-encode byte-identity properties for
// every wire family (DESIGN.md §10.2). They are what checks that every
// decoder mirrors its encoder: a field the decoder drops or reads at the
// wrong width changes the re-encoded bytes (or text).
//
// Identity is checked on the *wire image*: re-encoding the decoded value
// must reproduce the original encoding bit-for-bit. That is stronger than
// field-by-field equality (it also pins header flag packing, length
// prefixes, ordering) and is exactly what a relay node relies on when it
// re-emits a message.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "broker/event.hpp"
#include "common/random.hpp"
#include "h323/messages.hpp"
#include "rtp/packet.hpp"
#include "rtp/rtcp.hpp"
#include "sip/message.hpp"
#include "sip/sdp.hpp"
#include "streaming/rtsp.hpp"
#include "xgsp/messages.hpp"

namespace {

using gmmcs::Bytes;
using gmmcs::Rng;
using gmmcs::SimTime;

constexpr int kRounds = 200;

std::string rand_token(Rng& rng, std::size_t max_len = 24) {
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

Bytes rand_bytes(Rng& rng, std::size_t max_len = 64) {
  auto len = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  Bytes b;
  b.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    b.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  return b;
}

std::uint32_t rand_u32(Rng& rng) { return static_cast<std::uint32_t>(rng.next()); }
std::uint16_t rand_u16(Rng& rng) { return static_cast<std::uint16_t>(rng.next()); }
std::uint8_t rand_u8(Rng& rng) { return static_cast<std::uint8_t>(rng.next()); }

gmmcs::sim::Endpoint rand_endpoint(Rng& rng) {
  return {rand_u32(rng), rand_u16(rng)};
}

// --- broker frames -------------------------------------------------------

gmmcs::broker::Event rand_event(Rng& rng) {
  gmmcs::broker::Event ev;
  ev.topic = rand_token(rng);
  ev.payload = rand_bytes(rng);
  ev.qos = rng.chance(0.5) ? gmmcs::broker::QoS::kReliable : gmmcs::broker::QoS::kBestEffort;
  ev.origin = SimTime{rng.uniform_int(0, 1'000'000'000)};
  ev.seq = rand_u32(rng);
  ev.hops = rand_u8(rng);
  ev.publisher = rand_u32(rng);
  return ev;
}

gmmcs::Payload reencode(const gmmcs::broker::Frame& f) {
  using gmmcs::broker::MessageType;
  switch (f.type) {
    case MessageType::kHello:
      return encode(f.hello);
    case MessageType::kHelloAck:
      return encode(f.hello_ack);
    case MessageType::kSubscribe:
    case MessageType::kUnsubscribe:
      return encode(f.subscribe);
    case MessageType::kEvent:
      return encode(f.event);
    case MessageType::kPeerEvent:
      return encode(f.peer_event);
    case MessageType::kPing:
      return encode(f.ping, /*pong=*/false);
    case MessageType::kPong:
      return encode(f.ping, /*pong=*/true);
    case MessageType::kLinkState:
      return encode(f.link_state);
  }
  return {};
}

void expect_broker_roundtrip(const gmmcs::Payload& frame) {
  // Decode the encoder's own frame (the shape every arrival takes);
  // re-encoding must reproduce the wire image bit-for-bit.
  auto decoded = gmmcs::broker::decode(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(reencode(decoded.value()), frame);
}

TEST(RoundtripBroker, AllFrameTypesSurviveReencoding) {
  Rng rng(0xB40CE12ull);
  for (int i = 0; i < kRounds; ++i) {
    {
      gmmcs::broker::HelloMessage m{rand_token(rng), rand_u16(rng)};
      expect_broker_roundtrip(encode(m));
    }
    {
      gmmcs::broker::HelloAckMessage m{rand_u32(rng), rand_u16(rng)};
      expect_broker_roundtrip(encode(m));
    }
    {
      gmmcs::broker::SubscribeMessage m{rand_token(rng), rng.chance(0.5)};
      expect_broker_roundtrip(encode(m));
    }
    expect_broker_roundtrip(encode(rand_event(rng)));
    {
      gmmcs::broker::PeerEventMessage m;
      m.event = rand_event(rng);
      auto n = rng.uniform_int(0, 6);
      for (std::int64_t k = 0; k < n; ++k) m.targets.push_back(rand_u32(rng));
      expect_broker_roundtrip(encode(m));
      // The copy-avoiding framing helper must produce the same wire image.
      EXPECT_EQ(gmmcs::broker::encode_peer_event(m.event, m.targets), encode(m));
    }
    {
      gmmcs::broker::PingMessage m{rand_u32(rng), SimTime{rng.uniform_int(0, 1'000'000'000)}};
      expect_broker_roundtrip(encode(m, /*pong=*/false));
      expect_broker_roundtrip(encode(m, /*pong=*/true));
    }
    {
      gmmcs::broker::LinkStateMessage m{rand_u32(rng), rand_u32(rng), rand_u32(rng),
                                        rand_u32(rng), rng.chance(0.5)};
      expect_broker_roundtrip(encode(m));
    }
  }
}

TEST(RoundtripBroker, PayloadBackedEventDecodeIsZeroCopyAndByteIdentical) {
  Rng rng(0xFACEull);
  for (int i = 0; i < kRounds; ++i) {
    auto ev = rand_event(rng);
    const gmmcs::Payload reference = encode(ev);
    const gmmcs::Payload frame = encode(ev);
    auto back = gmmcs::broker::decode(frame);
    ASSERT_TRUE(back.ok()) << back.error().message;
    const gmmcs::broker::Event& decoded = back.value().event;
    // A Payload-backed decode re-encodes to the identical wire image.
    EXPECT_EQ(encode(decoded), reference);
    // And its payload is a slice of the arrival frame, not a fresh buffer.
    if (!decoded.payload.empty()) {
      EXPECT_GE(decoded.payload.data(), frame.data());
      EXPECT_LE(decoded.payload.data() + decoded.payload.size(), frame.data() + frame.size());
    }
  }
}

TEST(RoundtripBroker, EveryStrictPrefixOfEveryFrameKindIsRejected) {
  // Broker frames are fixed-field or length-prefixed throughout, so no
  // strict prefix of a valid frame is itself a valid frame: truncation
  // anywhere must poison the reader and surface as a decode error, never
  // as a silently zero-filled message. (RTP is excluded by design — its
  // payload is the trailing byte run, so prefixes are legitimate
  // shorter packets.)
  Rng rng(0x7E1Full);
  std::vector<gmmcs::Payload> wires;
  wires.push_back(encode(gmmcs::broker::HelloMessage{rand_token(rng), rand_u16(rng)}));
  wires.push_back(encode(gmmcs::broker::HelloAckMessage{rand_u32(rng), rand_u16(rng)}));
  wires.push_back(encode(gmmcs::broker::SubscribeMessage{rand_token(rng), true}));
  wires.push_back(encode(gmmcs::broker::SubscribeMessage{rand_token(rng), false}));
  wires.push_back(encode(rand_event(rng)));
  {
    gmmcs::broker::PeerEventMessage m;
    m.event = rand_event(rng);
    for (int k = 0; k < 3; ++k) m.targets.push_back(rand_u32(rng));
    wires.push_back(encode(m));
  }
  {
    gmmcs::broker::PingMessage m{rand_u32(rng), SimTime{12345}};
    wires.push_back(encode(m, /*pong=*/false));
    wires.push_back(encode(m, /*pong=*/true));
  }
  wires.push_back(encode(gmmcs::broker::LinkStateMessage{
      rand_u32(rng), rand_u32(rng), rand_u32(rng), rand_u32(rng), true}));
  for (const gmmcs::Payload& wire : wires) {
    ASSERT_TRUE(gmmcs::broker::decode(wire).ok());
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      const gmmcs::Payload prefix = wire.slice(0, cut);
      auto decoded = gmmcs::broker::decode(prefix);
      EXPECT_FALSE(decoded.ok())
          << cut << "-byte prefix of a " << wire.size() << "-byte frame "
          << "(type " << int(wire.empty() ? 0 : wire[0]) << ") decoded";
    }
  }
}

// --- H.323: RAS / Q.931 / H.245 ------------------------------------------

TEST(RoundtripH323, RasMessages) {
  Rng rng(0x4A51ull);
  const gmmcs::h323::RasType types[] = {
      gmmcs::h323::RasType::kGatekeeperRequest, gmmcs::h323::RasType::kRegistrationRequest,
      gmmcs::h323::RasType::kAdmissionRequest, gmmcs::h323::RasType::kAdmissionConfirm,
      gmmcs::h323::RasType::kBandwidthRequest, gmmcs::h323::RasType::kDisengageConfirm};
  for (int i = 0; i < kRounds; ++i) {
    gmmcs::h323::RasMessage m;
    m.type = types[rng.uniform_int(0, 5)];
    m.seq = rand_u32(rng);
    m.endpoint_alias = rand_token(rng);
    m.gatekeeper_id = rand_token(rng);
    m.call_signal_address = rand_endpoint(rng);
    m.bandwidth = rand_u32(rng);
    m.destination_alias = rand_token(rng);
    m.reject_reason = rand_token(rng);
    Bytes wire = m.encode();
    auto back = gmmcs::h323::RasMessage::decode(wire);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().encode(), wire);
  }
}

TEST(RoundtripH323, Q931Messages) {
  Rng rng(0x0931ull);
  const gmmcs::h323::Q931Type types[] = {
      gmmcs::h323::Q931Type::kSetup, gmmcs::h323::Q931Type::kCallProceeding,
      gmmcs::h323::Q931Type::kAlerting, gmmcs::h323::Q931Type::kConnect,
      gmmcs::h323::Q931Type::kReleaseComplete};
  for (int i = 0; i < kRounds; ++i) {
    gmmcs::h323::Q931Message m;
    m.type = types[rng.uniform_int(0, 4)];
    m.call_reference = rand_u16(rng);
    m.calling_party = rand_token(rng);
    m.called_party = rand_token(rng);
    m.h245_address = rand_endpoint(rng);
    m.release_reason = rand_token(rng);
    Bytes wire = m.encode();
    auto back = gmmcs::h323::Q931Message::decode(wire);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().encode(), wire);
  }
}

TEST(RoundtripH323, H245Messages) {
  Rng rng(0x0245ull);
  for (int i = 0; i < kRounds; ++i) {
    gmmcs::h323::H245Message m;
    m.type = static_cast<gmmcs::h323::H245Type>(rng.uniform_int(1, 10));
    m.seq = rand_u32(rng);
    auto caps = rng.uniform_int(0, 8);
    for (std::int64_t k = 0; k < caps; ++k) m.capabilities.push_back(rand_u8(rng));
    m.channel = rand_u16(rng);
    m.media_kind = rng.chance(0.5) ? "audio" : "video";
    m.payload_type = rand_u8(rng);
    m.media_address = rand_endpoint(rng);
    m.reject_reason = rand_token(rng);
    Bytes wire = m.encode();
    auto back = gmmcs::h323::H245Message::decode(wire);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().encode(), wire);
  }
}

// --- RTP / RTCP -----------------------------------------------------------

TEST(RoundtripRtp, Packets) {
  Rng rng(0x4274ull);
  for (int i = 0; i < kRounds; ++i) {
    gmmcs::rtp::RtpPacket p;
    p.marker = rng.chance(0.5);
    p.payload_type = static_cast<std::uint8_t>(rng.uniform_int(0, 127));  // 7-bit field
    p.sequence = rand_u16(rng);
    p.timestamp = rand_u32(rng);
    p.ssrc = rand_u32(rng);
    auto cc = rng.uniform_int(0, 15);  // 4-bit CSRC count
    for (std::int64_t k = 0; k < cc; ++k) p.csrcs.push_back(rand_u32(rng));
    p.payload = rand_bytes(rng, 256);
    const Bytes reference = p.serialize();
    const gmmcs::Payload frame{p.serialize()};
    auto back = gmmcs::rtp::RtpPacket::parse(frame);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().serialize(), reference);
    // Zero-copy parse: the decoded payload aliases the arrival frame.
    const gmmcs::rtp::RtpPacket& q = back.value();
    if (!q.payload.empty()) {
      EXPECT_GE(q.payload.data(), frame.data());
      EXPECT_LE(q.payload.data() + q.payload.size(), frame.data() + frame.size());
    }
  }
}

gmmcs::rtp::ReportBlock rand_block(Rng& rng) {
  gmmcs::rtp::ReportBlock b;
  b.ssrc = rand_u32(rng);
  b.fraction_lost = rand_u8(rng);
  b.cumulative_lost = rand_u32(rng) & 0xFFFFFFu;  // 24 bits on the wire
  b.highest_seq = rand_u32(rng);
  b.jitter = rand_u32(rng);
  b.lsr = rand_u32(rng);
  b.dlsr = rand_u32(rng);
  return b;
}

TEST(RoundtripRtcp, SenderReceiverAndBye) {
  Rng rng(0x47C9ull);
  for (int i = 0; i < kRounds; ++i) {
    {
      gmmcs::rtp::SenderReport sr;
      sr.ssrc = rand_u32(rng);
      sr.ntp_timestamp = rng.next();
      sr.rtp_timestamp = rand_u32(rng);
      sr.packet_count = rand_u32(rng);
      sr.octet_count = rand_u32(rng);
      auto n = rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < n; ++k) sr.blocks.push_back(rand_block(rng));
      Bytes wire = serialize(sr);
      auto back = gmmcs::rtp::parse_rtcp(wire);
      ASSERT_TRUE(back.ok()) << back.error().message;
      ASSERT_EQ(back.value().type, gmmcs::rtp::kRtcpSenderReport);
      EXPECT_EQ(serialize(back.value().sr), wire);
    }
    {
      gmmcs::rtp::ReceiverReport rr;
      rr.ssrc = rand_u32(rng);
      auto n = rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < n; ++k) rr.blocks.push_back(rand_block(rng));
      Bytes wire = serialize(rr);
      auto back = gmmcs::rtp::parse_rtcp(wire);
      ASSERT_TRUE(back.ok()) << back.error().message;
      ASSERT_EQ(back.value().type, gmmcs::rtp::kRtcpReceiverReport);
      EXPECT_EQ(serialize(back.value().rr), wire);
    }
    {
      gmmcs::rtp::Bye bye{rand_u32(rng)};
      Bytes wire = serialize(bye);
      auto back = gmmcs::rtp::parse_rtcp(wire);
      ASSERT_TRUE(back.ok()) << back.error().message;
      ASSERT_EQ(back.value().type, gmmcs::rtp::kRtcpBye);
      EXPECT_EQ(serialize(back.value().bye), wire);
    }
  }
}

// --- Text codecs: SIP, SDP, RTSP, XGSP ------------------------------------
//
// For text protocols the round-trip identity is on the serialized string:
// serialize(parse(s)) == s. Random field values are drawn from the token
// alphabet (text protocols do not carry arbitrary bytes in headers).

TEST(RoundtripSip, RequestsAndResponses) {
  Rng rng(0x51Bull);
  const char* methods[] = {"INVITE", "ACK", "BYE", "REGISTER", "MESSAGE"};
  for (int i = 0; i < kRounds; ++i) {
    auto req = gmmcs::sip::SipMessage::request(
        methods[rng.uniform_int(0, 4)], "sip:" + rand_token(rng, 10) + "@gmmcs",
        "sip:" + rand_token(rng, 10) + "@gmmcs", "sip:" + rand_token(rng, 10) + "@gmmcs",
        rand_token(rng, 12), rand_u32(rng) % 10000);
    req.add_header("X-Prop", rand_token(rng));
    if (rng.chance(0.5)) req.body = rand_token(rng, 40);
    std::string s1 = req.serialize();
    auto back = gmmcs::sip::SipMessage::parse(s1);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().serialize(), s1);

    auto resp = gmmcs::sip::SipMessage::response(req, 200, "OK");
    if (rng.chance(0.5)) resp.body = rand_token(rng, 40);
    std::string s2 = resp.serialize();
    auto back2 = gmmcs::sip::SipMessage::parse(s2);
    ASSERT_TRUE(back2.ok()) << back2.error().message;
    EXPECT_EQ(back2.value().serialize(), s2);
  }
}

TEST(RoundtripSdp, OfferAnswer) {
  Rng rng(0x5D9ull);
  for (int i = 0; i < kRounds; ++i) {
    gmmcs::sip::Sdp sdp;
    sdp.origin_user = rand_token(rng, 8);
    if (sdp.origin_user.empty()) sdp.origin_user = "-";
    sdp.address = rand_u32(rng);
    sdp.session_name = rand_token(rng, 8);
    if (sdp.session_name.empty()) sdp.session_name = "s";
    auto n = rng.uniform_int(0, 3);
    for (std::int64_t k = 0; k < n; ++k) {
      gmmcs::sip::SdpMedia m;
      m.kind = rng.chance(0.5) ? "audio" : "video";
      m.port = rand_u16(rng);
      m.payload_type = rand_u8(rng);
      m.codec = rand_token(rng, 6) + "/8000";
      sdp.media.push_back(m);
    }
    std::string s1 = sdp.serialize();
    auto back = gmmcs::sip::Sdp::parse(s1);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().serialize(), s1);
  }
}

TEST(RoundtripRtsp, RequestsAndResponses) {
  Rng rng(0x4754ull);
  const char* methods[] = {"OPTIONS", "DESCRIBE", "SETUP", "PLAY", "PAUSE", "TEARDOWN"};
  for (int i = 0; i < kRounds; ++i) {
    auto req = gmmcs::streaming::RtspMessage::request(
        methods[rng.uniform_int(0, 5)], "rtsp://helix/" + rand_token(rng, 10),
        static_cast<int>(rng.uniform_int(1, 9999)));
    req.set_header("X-Prop", rand_token(rng));
    if (rng.chance(0.5)) req.body = rand_token(rng, 40);
    std::string s1 = req.serialize();
    auto back = gmmcs::streaming::RtspMessage::parse(s1);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().serialize(), s1);

    auto resp = gmmcs::streaming::RtspMessage::response(req, 200, "OK");
    std::string s2 = resp.serialize();
    auto back2 = gmmcs::streaming::RtspMessage::parse(s2);
    ASSERT_TRUE(back2.ok()) << back2.error().message;
    EXPECT_EQ(back2.value().serialize(), s2);
  }
}

gmmcs::xgsp::Message rand_xgsp_request(Rng& rng) {
  using gmmcs::xgsp::EndpointKind;
  using gmmcs::xgsp::Message;
  using gmmcs::xgsp::SessionMode;
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return Message::create_session(
          rand_token(rng, 10), rand_token(rng, 8),
          rng.chance(0.5) ? SessionMode::kAdHoc : SessionMode::kScheduled,
          {{rng.chance(0.5) ? "audio" : "video", rand_token(rng, 6)}});
    case 1:
      return Message::join(rand_token(rng, 8), rand_token(rng, 8),
                           static_cast<EndpointKind>(rng.uniform_int(0, 5)));
    case 2:
      return Message::leave(rand_token(rng, 8), rand_token(rng, 8));
    case 3:
      return Message::end_session(rand_token(rng, 8));
    default:
      return Message::error(rand_token(rng, 16));
  }
}

TEST(RoundtripXgsp, RequestsAndReplies) {
  Rng rng(0x9357ull);
  for (int i = 0; i < kRounds; ++i) {
    auto m = rand_xgsp_request(rng);
    m.seq = rand_u32(rng) % 100000;
    m.reply_to = rand_token(rng, 12);
    std::string s1 = m.serialize();
    auto back = gmmcs::xgsp::Message::parse(s1);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().serialize(), s1);
  }
}

TEST(RoundtripXgsp, SessionInfoWithLiveState) {
  Rng rng(0x5E55ull);
  for (int i = 0; i < 50; ++i) {
    gmmcs::xgsp::Session s("conf-" + std::to_string(rng.uniform_int(1, 99)),
                           rand_token(rng, 10), rand_token(rng, 8),
                           gmmcs::xgsp::SessionMode::kAdHoc);
    s.add_stream("audio", rand_token(rng, 6));
    s.join({rand_token(rng, 8), gmmcs::xgsp::EndpointKind::kSip, false});
    s.activate();

    gmmcs::xgsp::Message m;
    m.type = gmmcs::xgsp::MsgType::kSessionInfo;
    m.seq = rand_u32(rng) % 100000;
    m.sessions.push_back(s);
    m.floor_holder = rand_token(rng, 8);
    m.floor_queue.push_back(rand_token(rng, 8));
    std::string s1 = m.serialize();
    auto back = gmmcs::xgsp::Message::parse(s1);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value().serialize(), s1);
  }
}

}  // namespace
