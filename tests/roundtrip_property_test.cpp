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
#include "property.hpp"
#include "rtp/packet.hpp"
#include "rtp/rtcp.hpp"
#include "sip/message.hpp"
#include "sip/sdp.hpp"
#include "streaming/rtsp.hpp"
#include "wire_gen.hpp"
#include "xgsp/messages.hpp"

namespace {

using gmmcs::Bytes;
using gmmcs::Rng;
namespace prop = gmmcs::prop;
using namespace gmmcs::gen;

// --- broker frames -------------------------------------------------------

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
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int kind = 0; kind < kBrokerFrameKinds; ++kind) {
      expect_broker_roundtrip(rand_broker_frame(rng, kind));
    }
    // The copy-avoiding framing helper must produce the same wire image.
    const gmmcs::broker::PeerEventMessage m = rand_peer_event(rng);
    EXPECT_EQ(gmmcs::broker::encode_peer_event(m.event, m.targets), encode(m));
  });
}

TEST(RoundtripBroker, PayloadBackedEventDecodeIsZeroCopyAndByteIdentical) {
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
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
  });
}

TEST(RoundtripBroker, EveryStrictPrefixOfEveryFrameKindIsRejected) {
  // Broker frames are fixed-field or length-prefixed throughout, so no
  // strict prefix of a valid frame is itself a valid frame: truncation
  // anywhere must poison the reader and surface as a decode error, never
  // as a silently zero-filled message. (RTP is excluded by design — its
  // payload is the trailing byte run, so prefixes are legitimate
  // shorter packets.)
  Rng rng(0x7E1Full);
  for (int kind = 0; kind < kBrokerFrameKinds; ++kind) {
    const gmmcs::Payload wire = rand_broker_frame(rng, kind);
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

/// Decoding `m`'s wire image and re-encoding it gives back the same bytes.
template <class Msg>
void expect_h323_roundtrip(const Msg& m) {
  const Bytes wire = m.encode();
  auto back = Msg::decode(wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().encode(), wire);
}

TEST(RoundtripH323, RasMessages) {
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    expect_h323_roundtrip(rand_ras(rng));
  });
}

TEST(RoundtripH323, Q931Messages) {
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    expect_h323_roundtrip(rand_q931(rng));
  });
}

TEST(RoundtripH323, H245Messages) {
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    expect_h323_roundtrip(rand_h245(rng));
  });
}

// --- RTP / RTCP -----------------------------------------------------------

TEST(RoundtripRtp, Packets) {
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    const gmmcs::rtp::RtpPacket p = rand_rtp(rng);
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
  });
}

/// Parsing `wire` gives an RTCP packet of `type` whose `part`, serialized
/// again, is `wire`.
template <class Part>
void expect_rtcp_roundtrip(const Bytes& wire, std::uint8_t type,
                           Part gmmcs::rtp::RtcpPacket::*part) {
  auto back = gmmcs::rtp::parse_rtcp(wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  ASSERT_EQ(back.value().type, type);
  EXPECT_EQ(serialize(back.value().*part), wire);
}

TEST(RoundtripRtcp, SenderReceiverAndBye) {
  using gmmcs::rtp::RtcpPacket;
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    const Bytes sr = serialize(rand_sender_report(rng));
    expect_rtcp_roundtrip(sr, gmmcs::rtp::kRtcpSenderReport, &RtcpPacket::sr);
    const Bytes rr = serialize(rand_receiver_report(rng));
    expect_rtcp_roundtrip(rr, gmmcs::rtp::kRtcpReceiverReport, &RtcpPacket::rr);
    const Bytes bye = serialize(gmmcs::rtp::Bye{rand_u32(rng)});
    expect_rtcp_roundtrip(bye, gmmcs::rtp::kRtcpBye, &RtcpPacket::bye);
  });
}

// --- Text codecs: SIP, SDP, RTSP, XGSP ------------------------------------
//
// For text protocols the round-trip identity is on the serialized string:
// serialize(parse(s)) == s. Random field values are drawn from the token
// alphabet (text protocols do not carry arbitrary bytes in headers).

template <class Msg>
void expect_text_roundtrip(const std::string& text) {
  auto back = Msg::parse(text);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().serialize(), text);
}

TEST(RoundtripSip, RequestsAndResponses) {
  const char* methods[] = {"INVITE", "ACK", "BYE", "REGISTER", "MESSAGE"};
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    auto req = gmmcs::sip::SipMessage::request(
        methods[rng.uniform_int(0, 4)], "sip:" + rand_token(rng, 10) + "@gmmcs",
        "sip:" + rand_token(rng, 10) + "@gmmcs", "sip:" + rand_token(rng, 10) + "@gmmcs",
        rand_token(rng, 12), rand_u32(rng) % 10000);
    req.add_header("X-Prop", rand_token(rng));
    if (rng.chance(0.5)) req.body = rand_token(rng, 40);
    expect_text_roundtrip<gmmcs::sip::SipMessage>(req.serialize());

    auto resp = gmmcs::sip::SipMessage::response(req, 200, "OK");
    if (rng.chance(0.5)) resp.body = rand_token(rng, 40);
    expect_text_roundtrip<gmmcs::sip::SipMessage>(resp.serialize());
  });
}

TEST(RoundtripSdp, OfferAnswer) {
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
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
    expect_text_roundtrip<gmmcs::sip::Sdp>(sdp.serialize());
  });
}

TEST(RoundtripRtsp, RequestsAndResponses) {
  const char* methods[] = {"OPTIONS", "DESCRIBE", "SETUP", "PLAY", "PAUSE", "TEARDOWN"};
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    auto req = gmmcs::streaming::RtspMessage::request(
        methods[rng.uniform_int(0, 5)], "rtsp://helix/" + rand_token(rng, 10),
        static_cast<int>(rng.uniform_int(1, 9999)));
    req.set_header("X-Prop", rand_token(rng));
    if (rng.chance(0.5)) req.body = rand_token(rng, 40);
    expect_text_roundtrip<gmmcs::streaming::RtspMessage>(req.serialize());

    auto resp = gmmcs::streaming::RtspMessage::response(req, 200, "OK");
    expect_text_roundtrip<gmmcs::streaming::RtspMessage>(resp.serialize());
  });
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
  prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    auto m = rand_xgsp_request(rng);
    m.seq = rand_u32(rng) % 100000;
    m.reply_to = rand_token(rng, 12);
    expect_text_roundtrip<gmmcs::xgsp::Message>(m.serialize());
  });
}

TEST(RoundtripXgsp, SessionInfoWithLiveState) {
  prop::for_each_seed(50, [&](std::uint64_t seed) {
    Rng rng(seed);
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
    expect_text_roundtrip<gmmcs::xgsp::Message>(m.serialize());
  });
}

}  // namespace
