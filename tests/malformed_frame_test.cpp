// Targeted regressions for every decode-plane hardening fix (DESIGN.md
// §16). Each test replays the exact
// hostile input the pre-fix code mishandled — counts and lengths claimed
// by the frame that the bytes on hand cannot back, numeric text fields
// that used to throw, and nesting that used to convert wire bytes into
// stack frames. The decoders must reject all of them as plain parse
// errors: no throw, no oversized allocation, no crash.
//
// The fuzzer (tests/decode_fuzz_test.cpp) searches for new inputs of
// this shape; this file pins the ones already found so they stay fixed.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "broker/event.hpp"
#include "common/bytes.hpp"
#include "h323/messages.hpp"
#include "rtp/packet.hpp"
#include "rtp/rtcp.hpp"
#include "sip/message.hpp"
#include "sip/sdp.hpp"
#include "streaming/rtsp.hpp"
#include "xgsp/messages.hpp"
#include "xml/xml.hpp"

namespace {

using gmmcs::Bytes;
using gmmcs::ByteWriter;

// --- broker ---------------------------------------------------------------

TEST(MalformedBroker, PeerEventCountClaimOnTruncatedFrame) {
  // Three bytes claiming 65535 peer targets. The pre-fix decode reserved
  // 65535 * 4 = 256 KiB before the first bounds check ran.
  const Bytes wire = {0x06, 0xFF, 0xFF};
  auto decoded = gmmcs::broker::decode(gmmcs::Payload{Bytes(wire)});
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("truncated"), std::string::npos);
}

TEST(MalformedBroker, EventPayloadLengthClaimExceedsFrame) {
  ByteWriter w;
  w.u8(0x05);  // kEvent
  w.u8(0);     // qos
  w.u8(0);     // hops
  w.u64(0);    // origin
  w.u32(1);    // seq
  w.u32(1);    // publisher
  w.lstr("t");
  w.u32(0xFFFFFFFF);  // payload length: 4 GiB claimed, 0 bytes present
  auto decoded = gmmcs::broker::decode(gmmcs::Payload{w.take()});
  ASSERT_FALSE(decoded.ok());
}

// --- H.323 ----------------------------------------------------------------

TEST(MalformedH323, H245CapabilityCountClaimOnEmptyTail) {
  ByteWriter w;
  w.u8(0x45);  // H.245 tag
  w.u8(1);     // type
  w.u32(7);    // seq
  w.u8(0xFF);  // 255 capabilities claimed, none present
  auto decoded = gmmcs::h323::H245Message::decode(w.take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("capability count"), std::string::npos);
}

// --- RTP / RTCP -----------------------------------------------------------

TEST(MalformedRtp, CsrcCountClaimOnHeaderOnlyPacket) {
  // 12-byte header with CC=15: the CSRC list alone would need 60 bytes.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>((2 << 6) | 0x0F));
  w.u8(0);
  w.u16(1);   // sequence
  w.u32(2);   // timestamp
  w.u32(3);   // ssrc
  auto decoded = gmmcs::rtp::RtpPacket::parse(gmmcs::Payload{w.take()});
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("CSRC"), std::string::npos);
}

TEST(MalformedRtcp, ReceiverReportBlockCountClaim) {
  // Count bits say 31 report blocks (744 bytes); the packet is 8 bytes.
  // The pre-fix parse pushed 31 zero-filled blocks before ok() caught it.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>((2 << 6) | 0x1F));
  w.u8(gmmcs::rtp::kRtcpReceiverReport);
  w.u16(7);   // length in words (ignored)
  w.u32(42);  // ssrc
  auto decoded = gmmcs::rtp::parse_rtcp(w.take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("report block count"), std::string::npos);
}

TEST(MalformedRtcp, SenderReportBlockCountClaim) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>((2 << 6) | 0x1F));
  w.u8(gmmcs::rtp::kRtcpSenderReport);
  w.u16(6);
  w.u32(42);  // ssrc
  w.u64(1);   // ntp
  w.u32(2);   // rtp ts
  w.u32(3);   // packets
  w.u32(4);   // octets
  auto decoded = gmmcs::rtp::parse_rtcp(w.take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("report block count"), std::string::npos);
}

// --- SIP / SDP ------------------------------------------------------------

TEST(MalformedSip, OverflowingStatusCodeIsAParseError) {
  // Used to throw std::out_of_range from std::stoi.
  auto decoded = gmmcs::sip::SipMessage::parse("SIP/2.0 99999999999 OK\r\n\r\n");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("status code"), std::string::npos);
}

TEST(MalformedSip, OverflowingCseqReadsAsZero) {
  auto decoded = gmmcs::sip::SipMessage::parse(
      "INVITE sip:alice@gw SIP/2.0\r\nCSeq: 99999999999 INVITE\r\n\r\n");
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value().cseq_number(), 0u);
  EXPECT_EQ(decoded.value().cseq_method(), "INVITE");
}

TEST(MalformedSdp, OverflowingMediaPortIsAParseError) {
  // 99999 does not fit a u16; std::stoi used to truncate-accept it.
  auto decoded = gmmcs::sip::Sdp::parse("v=0\r\nm=audio 99999 RTP/AVP 0\r\n");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("m= line"), std::string::npos);
}

// --- RTSP -----------------------------------------------------------------

TEST(MalformedRtsp, OverflowingStatusCodeIsAParseError) {
  auto decoded =
      gmmcs::streaming::RtspMessage::parse("RTSP/1.0 4294967296 OK\r\n\r\n");
  ASSERT_FALSE(decoded.ok());
}

// --- XML / XGSP -----------------------------------------------------------

TEST(MalformedXml, DeepNestingIsRejectedNotStackOverflow) {
  // 512 nested elements: the recursive-descent parser used to burn one
  // stack frame per '<a>' with no depth cap.
  std::string doc;
  for (int i = 0; i < 512; ++i) doc += "<a>";
  for (int i = 0; i < 512; ++i) doc += "</a>";
  auto decoded = gmmcs::xml::parse(doc);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("nesting too deep"), std::string::npos);
}

TEST(MalformedXml, OverflowingCharacterReferenceIsDropped) {
  // &#<huge>; used to throw from std::stoi inside unescape().
  auto decoded = gmmcs::xml::parse("<a>&#99999999999999999999;</a>");
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value().text(), "");
}

TEST(MalformedXgsp, OverflowingSeqIsAParseError) {
  auto decoded = gmmcs::xgsp::Message::parse(
      "<xgsp type=\"ack\" seq=\"99999999999\"/>");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("malformed seq"), std::string::npos);
}

}  // namespace
