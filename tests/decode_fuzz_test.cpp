// Deterministic structure-aware decoder fuzzer (DESIGN.md §16.4).
//
// Every decoder family — broker frames, RAS, Q.931, H.245, RTP, RTCP,
// SIP, SDP, RTSP, XGSP/XML, HTTP — is driven with seeded mutations of
// valid wire images: truncation, length-field inflation, count
// explosion, bit flips, and digit-run inflation for the text protocols.
// Two invariants hold for every input:
//
//   1. No throw. Malformed input is data, not an exception: decoders
//      return an error Result (or a zero-filled value for fields
//      documented as best-effort), never propagate.
//   2. O(N) allocation. Decoding an N-byte frame allocates at most
//      kAllocFactor * N + kAllocSlack bytes, certified by a counting
//      global operator new: a count or length claimed by the frame but
//      not backed by its bytes must be rejected before it sizes an
//      allocation.
//
// Failures shrink greedily to a minimal reproducer, printed as hex to
// commit under tests/fuzz_seeds/ (replayed by the first test here; the
// corpus is named <family>-<what>.hex). Each family's cases take their
// seeds from the property harness (property.hpp), so
// `scripts/check.sh props` runs them deeper from a commit-derived seed.
//
// Own binary because it replaces global new/delete (like
// zero_copy_cert_test).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "broker/broker_network.hpp"
#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/event.hpp"
#include "common/bytes.hpp"
#include "common/random.hpp"
#include "h323/messages.hpp"
#include "property.hpp"
#include "rtp/packet.hpp"
#include "rtp/rtcp.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "sip/message.hpp"
#include "sip/sdp.hpp"
#include "soap/soap.hpp"
#include "streaming/rtsp.hpp"
#include "transport/stream.hpp"
#include "wire_gen.hpp"
#include "xgsp/messages.hpp"

namespace {

using gmmcs::Bytes;
using gmmcs::ByteWriter;
using gmmcs::Rng;
using gmmcs::to_string;
namespace prop = gmmcs::prop;
using namespace gmmcs::gen;

std::atomic<std::uint64_t> g_alloc_bytes{0};

}  // namespace

// Counting global new/delete: single-process, diffed around
// single-threaded decode calls only.
void* operator new(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

// Generous constants: real decoders sit far below (a broker frame
// decode allocates ~2N), while the bugs this hunts sit far above (the
// pre-fix kPeerEvent decode turned a 3-byte frame into a 256 KiB
// reserve — 3 * 128 + 8192 = 8576 would have caught it 30x over).
constexpr std::uint64_t kAllocFactor = 128;
constexpr std::uint64_t kAllocSlack = 8192;

// --- family registry ------------------------------------------------------

struct Family {
  const char* name;
  bool text;  // enables digit-run inflation mutations
  void (*decode)(const Bytes&);
  Bytes (*seed)(Rng&);
};

// The valid images the cases mutate: the round trips' (wire_gen.hpp) for
// the binary families, hand-written ones for the text families.
Bytes seed_broker(Rng& rng) {
  const auto kind = static_cast<int>(rng.uniform_int(0, kBrokerFrameKinds - 1));
  return rand_broker_frame(rng, kind).to_bytes();  // mutable bytes of a Payload frame
}
Bytes seed_rtcp(Rng& rng) {
  if (rng.chance(0.5)) return serialize(rand_sender_report(rng));
  return serialize(rand_receiver_report(rng));
}

Bytes from_text(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

Bytes seed_sip(Rng& rng) {
  if (rng.chance(0.5)) {
    return from_text("INVITE sip:" + rand_token(rng) + "@gw SIP/2.0\r\nCSeq: " +
                     std::to_string(rng.uniform_int(1, 100000)) +
                     " INVITE\r\nCall-ID: " + rand_token(rng) + "\r\n\r\nbody");
  }
  return from_text("SIP/2.0 " + std::to_string(rng.uniform_int(100, 699)) +
                   " Reason\r\nCSeq: 1 INVITE\r\n\r\n");
}

Bytes seed_sdp(Rng& rng) {
  return from_text("v=0\r\no=" + rand_token(rng) + " 1 1 IN IP4 7\r\ns=s\r\nc=IN IP4 " +
                   std::to_string(rng.uniform_int(1, 1000)) + "\r\nm=audio " +
                   std::to_string(rng.uniform_int(1024, 65535)) + " RTP/AVP " +
                   std::to_string(rng.uniform_int(0, 127)) + "\r\na=rtpmap:0 PCMU/8000\r\n");
}

Bytes seed_rtsp(Rng& rng) {
  if (rng.chance(0.5)) {
    return from_text("SETUP rtsp://h/" + rand_token(rng) +
                     " RTSP/1.0\r\nCSeq: " + std::to_string(rng.uniform_int(1, 100000)) +
                     "\r\nTransport: RTP/AVP;client_node=7;client_port=9\r\n\r\n");
  }
  return from_text("RTSP/1.0 " + std::to_string(rng.uniform_int(100, 699)) +
                   " OK\r\nCSeq: 2\r\nSession: " + rand_token(rng) + "\r\n\r\n");
}

Bytes seed_xgsp(Rng& rng) {
  return from_text("<xgsp type=\"join-session\" seq=\"" +
                   std::to_string(rng.uniform_int(0, 100000)) + "\" session=\"" +
                   rand_token(rng) + "\" user=\"" + rand_token(rng) +
                   "\"><media kind=\"audio\" topic=\"/t\"/></xgsp>");
}

Bytes seed_http(Rng& rng) {
  return from_text("HTTP/1.1 " + std::to_string(rng.uniform_int(100, 599)) +
                   " OK\r\nContent-Type: text/xml\r\n\r\n<env>" + rand_token(rng) +
                   "</env>");
}

void decode_broker(const Bytes& b) { (void)gmmcs::broker::decode(gmmcs::Payload{Bytes(b)}); }
void decode_ras(const Bytes& b) { (void)gmmcs::h323::RasMessage::decode(b); }
void decode_q931(const Bytes& b) { (void)gmmcs::h323::Q931Message::decode(b); }
void decode_h245(const Bytes& b) { (void)gmmcs::h323::H245Message::decode(b); }
void decode_rtp(const Bytes& b) { (void)gmmcs::rtp::RtpPacket::parse(gmmcs::Payload{Bytes(b)}); }
void decode_rtcp(const Bytes& b) { (void)gmmcs::rtp::parse_rtcp(b); }
void decode_sip(const Bytes& b) { (void)gmmcs::sip::SipMessage::parse(to_string(b)); }
void decode_sdp(const Bytes& b) { (void)gmmcs::sip::Sdp::parse(to_string(b)); }
void decode_rtsp(const Bytes& b) { (void)gmmcs::streaming::RtspMessage::parse(to_string(b)); }
void decode_xgsp(const Bytes& b) { (void)gmmcs::xgsp::Message::parse(to_string(b)); }
void decode_http(const Bytes& b) { (void)gmmcs::soap::parse_http_response(to_string(b)); }

constexpr Family kFamilies[] = {
    {"broker", false, decode_broker, seed_broker},
    {"ras", false, decode_ras, [](Rng& rng) { return rand_ras(rng).encode(); }},
    {"q931", false, decode_q931, [](Rng& rng) { return rand_q931(rng).encode(); }},
    {"h245", false, decode_h245, [](Rng& rng) { return rand_h245(rng).encode(); }},
    {"rtp", false, decode_rtp, [](Rng& rng) { return rand_rtp(rng).serialize(); }},
    {"rtcp", false, decode_rtcp, seed_rtcp},
    {"sip", true, decode_sip, seed_sip},
    {"sdp", true, decode_sdp, seed_sdp},
    {"rtsp", true, decode_rtsp, seed_rtsp},
    {"xgsp", true, decode_xgsp, seed_xgsp},
    {"http", true, decode_http, seed_http},
};

// --- the invariant --------------------------------------------------------

struct Verdict {
  bool threw = false;
  std::uint64_t allocated = 0;
  std::string what;
  [[nodiscard]] bool violated(std::size_t input_size) const {
    return threw || allocated > kAllocFactor * input_size + kAllocSlack;
  }
};

Verdict run_decode(const Family& fam, const Bytes& input) {
  Verdict v;
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  try {
    fam.decode(input);
  } catch (const std::exception& e) {
    v.threw = true;
    v.what = e.what();
  } catch (...) {
    v.threw = true;
    v.what = "(non-std exception)";
  }
  v.allocated = g_alloc_bytes.load(std::memory_order_relaxed);
  return v;
}

// --- mutations ------------------------------------------------------------

Bytes mutate(Rng& rng, const Family& fam, Bytes b) {
  if (b.empty()) return b;
  int kinds = fam.text ? 5 : 4;
  switch (rng.uniform_int(0, kinds - 1)) {
    case 0: {  // truncation
      b.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1)));
      break;
    }
    case 1: {  // length-field / count inflation: saturate a small window
      auto width = static_cast<std::size_t>(rng.uniform_int(1, 4));
      auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1));
      for (std::size_t i = at; i < b.size() && i < at + width; ++i) b[i] = 0xFF;
      break;
    }
    case 2: {  // count explosion: set a single byte to its maximum
      b[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(b.size()) - 1))] = 0xFF;
      break;
    }
    case 3: {  // bit flips
      auto flips = rng.uniform_int(1, 8);
      for (std::int64_t i = 0; i < flips; ++i) {
        auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1));
        b[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      break;
    }
    default: {  // digit-run inflation (text): overflow numeric fields
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (std::isdigit(b[i]) != 0) {
          auto len = static_cast<std::size_t>(rng.uniform_int(8, 24) & 0x1F);
          b.insert(b.begin() + static_cast<std::ptrdiff_t>(i), len, b[i]);
          break;
        }
      }
      break;
    }
  }
  // Occasionally stack a second mutation to reach deeper states.
  if (rng.chance(0.3)) return mutate(rng, fam, std::move(b));
  return b;
}

// --- shrinking ------------------------------------------------------------

// Greedy ddmin-lite: repeatedly delete the largest removable chunk that
// keeps the input failing, halving the chunk size until single bytes.
Bytes shrink(const Family& fam, Bytes failing) {
  for (std::size_t chunk = failing.size() / 2; chunk >= 1; chunk /= 2) {
    bool progress = true;
    while (progress && failing.size() > 1) {
      progress = false;
      for (std::size_t at = 0; at + chunk <= failing.size(); at += chunk) {
        Bytes cand(failing.begin(), failing.begin() + static_cast<std::ptrdiff_t>(at));
        cand.insert(cand.end(), failing.begin() + static_cast<std::ptrdiff_t>(at + chunk),
                    failing.end());
        if (run_decode(fam, cand).violated(cand.size())) {
          failing = std::move(cand);
          progress = true;
          break;
        }
      }
    }
    if (chunk == 1) break;
  }
  return failing;
}

std::string hex_dump(const Bytes& b) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t byte : b) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

/// The bytes a corpus file spells in hex; anything but a hex digit is
/// skipped.
Bytes read_hex_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string hex;
  for (char c; in >> c;) {
    if (std::isxdigit(static_cast<unsigned char>(c)) != 0) hex.push_back(c);
  }
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Fuzz cases per family at the harness's default scale.
constexpr std::uint64_t kFuzzCases = 500;

/// The family's fuzz case `seed`: one of its valid images, mutated.
Bytes fuzz_case(const Family& fam, std::uint64_t seed) {
  Rng rng(seed ^ std::hash<std::string_view>{}(fam.name));
  return mutate(rng, fam, fam.seed(rng));
}

void fuzz_family(const Family& fam) {
  prop::for_each_seed(kFuzzCases, [&](std::uint64_t seed) {
    const Bytes input = fuzz_case(fam, seed);
    if (!run_decode(fam, input).violated(input.size())) return;
    const Bytes minimal = shrink(fam, input);
    const Verdict mv = run_decode(fam, minimal);
    ADD_FAILURE() << fam.name << " decode invariant violated: "
                  << (mv.threw ? "threw '" + mv.what + "'"
                               : "allocated " + std::to_string(mv.allocated) + " bytes for a " +
                                     std::to_string(minimal.size()) + "-byte input")
                  << "\nshrunk reproducer (commit as tests/fuzz_seeds/" << fam.name
                  << "-<what>.hex):\n"
                  << hex_dump(minimal);
  });
}

// --- the in-place decoders ------------------------------------------------

using gmmcs::broker::BrokerId;
using gmmcs::broker::Event;
using gmmcs::broker::MessageType;

/// One of the receive path's second entries to the broker body decoder:
/// kEvent at a client, kPeerEvent on the broker-to-broker hop. `decode`
/// fills an event and its target ids (none for kEvent); `encode` is the
/// frame its writer makes of them.
struct InPlace {
  MessageType type;
  bool (*decode)(const gmmcs::Payload&, Event&, std::vector<BrokerId>&);
  gmmcs::Payload (*encode)(const Event&, const std::vector<BrokerId>&);
};

const InPlace kEventDecoder{
    MessageType::kEvent,
    [](const gmmcs::Payload& f, Event& ev, std::vector<BrokerId>&) {
      return gmmcs::broker::decode_event_into(f, ev);
    },
    [](const Event& ev, const std::vector<BrokerId>&) { return gmmcs::broker::encode(ev); }};

const InPlace kPeerEventDecoder{
    MessageType::kPeerEvent,
    [](const gmmcs::Payload& f, Event& ev, std::vector<BrokerId>& ids) {
      gmmcs::broker::PeerTargets targets;
      if (!gmmcs::broker::decode_peer_event_into(f, ev, targets)) return false;
      ids.clear();
      for (std::size_t i = 0; i < targets.size(); ++i) ids.push_back(targets[i]);
      return true;
    },
    [](const Event& ev, const std::vector<BrokerId>& ids) {
      return gmmcs::broker::encode_peer_event(ev, ids);
    }};

/// Empty when the two decoded events carry identical fields.
std::string event_difference(const Event& got, const Event& e) {
  if (got.topic != e.topic) return "topic differs";
  if (gmmcs::to_string(got.payload.view()) != gmmcs::to_string(e.payload.view())) {
    return "payload differs";
  }
  if (got.qos != e.qos || got.origin != e.origin || got.seq != e.seq || got.hops != e.hops ||
      got.publisher != e.publisher) {
    return "header field differs";
  }
  return {};
}

/// Empty when `in` agrees with decode() on `input`: it accepts exactly the
/// frames decode() returns as its type, with identical event fields and
/// targets. Otherwise, what differed.
std::string in_place_disagreement(const InPlace& in, const Bytes& input) {
  const gmmcs::Payload frame{Bytes(input)};
  const auto full = gmmcs::broker::decode(frame);
  const bool want = full.ok() && full.value().type == in.type;
  Event got;
  got.topic = "stale topic from an earlier event";
  got.payload = gmmcs::to_bytes("stale payload");
  std::vector<BrokerId> ids;
  if (in.decode(frame, got, ids) != want) {
    return want ? "in-place decoder rejected a frame decode() accepts"
                : "in-place decoder accepted a frame decode() does not return as its type";
  }
  if (!want) return {};
  if (in.type == MessageType::kEvent) return event_difference(got, full.value().event);
  if (ids != full.value().peer_event.targets) return "targets differ";
  return event_difference(got, full.value().peer_event.event);
}

/// Empty when `in` rejects every strict prefix of `input`. Vacuous unless
/// `input` is exactly a frame as its writer makes it: decode() ignores
/// trailing bytes, so a mutated frame with a tail may legitimately have
/// accepted prefixes.
std::string accepted_prefix(const InPlace& in, const Bytes& input) {
  Event scratch;
  std::vector<BrokerId> ids;
  if (!in.decode(gmmcs::Payload{Bytes(input)}, scratch, ids) || in.encode(scratch, ids) != input) {
    return {};
  }
  for (std::size_t n = 0; n < input.size(); ++n) {
    const Bytes prefix(input.begin(), input.begin() + static_cast<std::ptrdiff_t>(n));
    if (in.decode(gmmcs::Payload{Bytes(prefix)}, scratch, ids)) {
      return "accepted the " + std::to_string(n) + "-byte prefix of a " +
             std::to_string(input.size()) + "-byte frame";
    }
  }
  return {};
}

/// Holds `in` to both checks over the committed corpus (every family's
/// inputs, as stray bytes reaching it) and the Broker family's frames,
/// unmutated and as fuzz cases.
void expect_in_place_agrees(const InPlace& in) {
  const auto check = [&in](const Bytes& input, const std::string& what) {
    EXPECT_EQ(in_place_disagreement(in, input), "") << what;
    EXPECT_EQ(accepted_prefix(in, input), "") << what;
  };
  const auto files = prop::corpus(GMMCS_FUZZ_SEED_DIR, ".hex");
  EXPECT_GE(files.size(), 6u);
  for (const auto& path : files) check(read_hex_file(path), path.stem().string());

  const Family& broker = kFamilies[0];
  int of_type = 0;
  const prop::Cases frames = prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    const Bytes input = broker.seed(rng);
    check(input, hex_dump(input));
    of_type += !input.empty() && input[0] == static_cast<std::uint8_t>(in.type) ? 1 : 0;
  });
  frames.expect_more(of_type, 0, "unmutated frames of the decoder's type");
  prop::for_each_seed(kFuzzCases, [&](std::uint64_t seed) {
    const Bytes input = fuzz_case(broker, seed);
    check(input, hex_dump(input));
  });
}

// --- tests ----------------------------------------------------------------

// The committed corpus: every shrunk reproducer a past fuzz run found
// replays clean against the hardened decoders. File name prefix (up to
// the first '-') selects the family.
TEST(DecodeFuzz, CommittedSeedCorpusReplaysClean) {
  const auto files = prop::corpus(GMMCS_FUZZ_SEED_DIR, ".hex");
  ASSERT_GE(files.size(), 6u) << "seed corpus went missing from " << GMMCS_FUZZ_SEED_DIR;
  for (const auto& path : files) {
    const std::string stem = path.stem().string();
    const std::string fam_name = stem.substr(0, stem.find('-'));
    const Family* fam = nullptr;
    for (const Family& f : kFamilies) {
      if (fam_name == f.name) fam = &f;
    }
    ASSERT_NE(fam, nullptr) << "unknown family in seed name: " << stem;
    const Bytes input = read_hex_file(path);
    const Verdict v = run_decode(*fam, input);
    EXPECT_FALSE(v.violated(input.size()))
        << stem << ": " << (v.threw ? "threw '" + v.what + "'"
                                    : "allocated " + std::to_string(v.allocated) + " bytes");
  }
}

// The receive hot path's in-place kEvent decoder must accept exactly what
// decode() accepts as kEvent, with identical fields, and reject every
// strict prefix.
TEST(DecodeFuzz, InPlaceEventDecoderAgreesWithDecode) { expect_in_place_agrees(kEventDecoder); }

// The broker-to-broker hop's in-place kPeerEvent decoder, held to the same
// bar: exact agreement with decode() (event fields and targets), every
// strict prefix rejected.
TEST(DecodeFuzz, InPlacePeerEventDecoderAgreesWithDecode) {
  // The count-claim frame of MalformedBroker.PeerEventCountClaimOnTruncatedFrame:
  // three bytes claiming 65535 targets.
  const Bytes count_claim = {0x06, 0xFF, 0xFF};
  Event scratch;
  std::vector<BrokerId> ids;
  EXPECT_FALSE(kPeerEventDecoder.decode(gmmcs::Payload{Bytes(count_claim)}, scratch, ids));
  EXPECT_EQ(in_place_disagreement(kPeerEventDecoder, count_claim), "");
  expect_in_place_agrees(kPeerEventDecoder);
}

// --- hostile frames on a live stream ---------------------------------------

constexpr const char* kProbeTopic = "/probe";
constexpr const char* kProbeBody = "well-formed probe";

/// The broker-to-broker frames among a hostile batch, by type byte (a
/// broker drops them from a client before decoding).
struct PeerFrames {
  std::uint64_t peer_events = 0;
  std::uint64_t link_states = 0;
};

/// Writes case `seed`'s hostile frames onto `stream` (mutated images of
/// every family, broker frames half the time), then one well-formed
/// kEvent: the probe that must still get through.
PeerFrames send_hostile_then_probe(gmmcs::transport::StreamConnection& stream,
                                   std::uint64_t seed) {
  Rng rng(seed);
  PeerFrames sent;
  for (int i = 0; i < 20; ++i) {
    const Family& fam =
        kFamilies[rng.chance(0.5) ? 0 : rng.uniform_int(0, std::size(kFamilies) - 1)];
    const gmmcs::Payload frame{mutate(rng, fam, fam.seed(rng))};
    if (!frame.empty() && frame[0] == static_cast<std::uint8_t>(MessageType::kPeerEvent)) {
      ++sent.peer_events;
    }
    if (!frame.empty() && frame[0] == static_cast<std::uint8_t>(MessageType::kLinkState)) {
      ++sent.link_states;
    }
    stream.send(frame);
  }
  Event probe;
  probe.topic = kProbeTopic;
  probe.payload = gmmcs::to_bytes(kProbeBody);
  stream.send(encode(probe));
  return sent;
}

bool is_probe(const Event& e) {
  return e.topic == kProbeTopic && gmmcs::to_string(e.payload.view()) == kProbeBody;
}

// The decoders' callers hold too: mutated frames written onto an
// identified client's stream into a live broker throw nothing out of the
// event loop, and the probe published after them on the same stream still
// reaches a subscriber.
TEST(DecodeFuzz, LiveBrokerDropsHostileStreamFrames) {
  prop::for_each_seed(100, [](std::uint64_t seed) {
    gmmcs::sim::EventLoop loop;
    gmmcs::sim::Network net(loop, seed);
    gmmcs::broker::BrokerNode broker(net.add_host("broker"), 0);
    gmmcs::broker::BrokerClient sub(net.add_host("sub"), broker.stream_endpoint());
    sub.subscribe(kProbeTopic);
    int probes = 0;
    sub.on_event([&](const Event& e) { probes += is_probe(e) ? 1 : 0; });
    const auto hostile = gmmcs::transport::StreamConnection::connect(net.add_host("hostile"),
                                                                     broker.stream_endpoint());
    hostile->send(encode(gmmcs::broker::HelloMessage{"hostile", 0}));
    send_hostile_then_probe(*hostile, seed);
    ASSERT_NO_THROW(loop.run());
    EXPECT_EQ(probes, 1);
  });
}

// The same hostile client on a two-broker fabric, its subscriber on the
// far broker, sending a Hello first in half the cases: nothing escapes
// either broker, the client's kPeerEvent and kLinkState frames are dropped
// rather than routed or flooded, and its probe crosses the hop.
TEST(DecodeFuzz, LiveFabricBrokerDropsHostileStreamFrames) {
  PeerFrames dropped;
  const prop::Cases cases = prop::for_each_seed(100, [&](std::uint64_t seed) {
    gmmcs::sim::EventLoop loop;
    gmmcs::sim::Network net(loop, seed);
    gmmcs::broker::BrokerNetwork fabric(net);
    gmmcs::broker::BrokerNode& b0 = fabric.add_broker(net.add_host("b0"));
    gmmcs::broker::BrokerNode& b1 = fabric.add_broker(net.add_host("b1"));
    fabric.link(0, 1);
    fabric.finalize();
    gmmcs::broker::BrokerClient sub(net.add_host("sub"), b1.stream_endpoint());
    sub.subscribe(kProbeTopic);
    int probes = 0;
    sub.on_event([&](const Event& e) { probes += is_probe(e) ? 1 : 0; });
    loop.run();
    const auto hostile = gmmcs::transport::StreamConnection::connect(net.add_host("hostile"),
                                                                     b0.stream_endpoint());
    if (seed % 2 == 0) hostile->send(encode(gmmcs::broker::HelloMessage{"hostile", 0}));
    const PeerFrames sent = send_hostile_then_probe(*hostile, seed);
    ASSERT_NO_THROW(loop.run());
    EXPECT_EQ(probes, 1);
    EXPECT_EQ(b0.client_peer_frames_dropped(), sent.peer_events + sent.link_states);
    EXPECT_EQ(b1.client_peer_frames_dropped(), 0u);
    // No detector runs, so any flood would be the client's.
    EXPECT_EQ(b0.link_states_flooded(), 0u);
    EXPECT_EQ(b1.link_states_flooded(), 0u);
    EXPECT_EQ(fabric.distance(0, 1), 1);
    EXPECT_EQ(fabric.distance(1, 0), 1);
    dropped.peer_events += sent.peer_events;
    dropped.link_states += sent.link_states;
  });
  cases.expect_more(dropped.peer_events, 60, "client kPeerEvent frames dropped");
  cases.expect_more(dropped.link_states, 80, "client kLinkState frames dropped");
}

// The same frames from the broker's end of the stream into a live client,
// after its HelloAck: nothing escapes, and the probe after them arrives.
TEST(DecodeFuzz, LiveClientDropsHostileStreamFrames) {
  prop::for_each_seed(100, [](std::uint64_t seed) {
    gmmcs::sim::EventLoop loop;
    gmmcs::sim::Network net(loop, seed);
    gmmcs::transport::StreamListener listener(net.add_host("hostile"), 9000);
    gmmcs::transport::StreamConnectionPtr conn;
    listener.on_accept([&](gmmcs::transport::StreamConnectionPtr c) {
      conn = std::move(c);
      conn->send(encode(gmmcs::broker::HelloAckMessage{1, 9001}));
      send_hostile_then_probe(*conn, seed);
    });
    gmmcs::broker::BrokerClient client(net.add_host("client"), listener.local());
    int probes = 0;
    client.on_event([&](const Event& e) { probes += is_probe(e) ? 1 : 0; });
    ASSERT_NO_THROW(loop.run());
    EXPECT_EQ(probes, 1);
  });
}

TEST(DecodeFuzz, Broker) { fuzz_family(kFamilies[0]); }
TEST(DecodeFuzz, Ras) { fuzz_family(kFamilies[1]); }
TEST(DecodeFuzz, Q931) { fuzz_family(kFamilies[2]); }
TEST(DecodeFuzz, H245) { fuzz_family(kFamilies[3]); }
TEST(DecodeFuzz, Rtp) { fuzz_family(kFamilies[4]); }
TEST(DecodeFuzz, Rtcp) { fuzz_family(kFamilies[5]); }
TEST(DecodeFuzz, Sip) { fuzz_family(kFamilies[6]); }
TEST(DecodeFuzz, Sdp) { fuzz_family(kFamilies[7]); }
TEST(DecodeFuzz, Rtsp) { fuzz_family(kFamilies[8]); }
TEST(DecodeFuzz, Xgsp) { fuzz_family(kFamilies[9]); }
TEST(DecodeFuzz, Http) { fuzz_family(kFamilies[10]); }

}  // namespace
