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
// corpus is named <family>-<what>.hex). GMMCS_FUZZ_SEED and
// GMMCS_FUZZ_ITERS override the batch — CI derives the seed from the
// commit SHA so every push explores new mutations while any failure
// stays reproducible.
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

#include "broker/event.hpp"
#include "common/bytes.hpp"
#include "common/random.hpp"
#include "h323/messages.hpp"
#include "rtp/packet.hpp"
#include "rtp/rtcp.hpp"
#include "sip/message.hpp"
#include "sip/sdp.hpp"
#include "soap/soap.hpp"
#include "streaming/rtsp.hpp"
#include "xgsp/messages.hpp"

namespace {

using gmmcs::Bytes;
using gmmcs::ByteWriter;
using gmmcs::Rng;

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

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 0) : fallback;
}

std::string to_text(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// --- family registry ------------------------------------------------------

struct Family {
  const char* name;
  bool text;  // enables digit-run inflation mutations
  void (*decode)(const Bytes&);
  Bytes (*seed)(Rng&);
};

std::string rand_token(Rng& rng, std::size_t max_len = 12) {
  static const char kAlpha[] = "abcdefghijklmnopqrstuvwxyz0123456789-.";
  auto len = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(kAlpha[rng.uniform_int(0, sizeof(kAlpha) - 2)]);
  }
  return s;
}

Bytes rand_payload(Rng& rng, std::size_t max_len = 32) {
  auto len = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  Bytes b;
  for (std::size_t i = 0; i < len; ++i) {
    b.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  return b;
}

Bytes seed_broker(Rng& rng) {
  gmmcs::broker::Event ev;
  ev.topic = rand_token(rng);
  ev.payload = rand_payload(rng);
  ev.seq = static_cast<std::uint32_t>(rng.next());
  ev.publisher = static_cast<std::uint32_t>(rng.next());
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return encode(gmmcs::broker::HelloMessage{
          rand_token(rng), static_cast<std::uint16_t>(rng.next())});
    case 1:
      return encode(gmmcs::broker::SubscribeMessage{rand_token(rng), rng.chance(0.5)});
    case 2:
      return encode(ev);
    case 3: {
      gmmcs::broker::PeerEventMessage m;
      m.event = ev;
      auto n = rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < n; ++k) {
        m.targets.push_back(static_cast<std::uint32_t>(rng.next()));
      }
      return encode(m);
    }
    default:
      return encode(gmmcs::broker::LinkStateMessage{
          static_cast<std::uint32_t>(rng.next()), static_cast<std::uint32_t>(rng.next()),
          static_cast<std::uint32_t>(rng.next()), static_cast<std::uint32_t>(rng.next()),
          rng.chance(0.5)});
  }
}

Bytes seed_ras(Rng& rng) {
  gmmcs::h323::RasMessage m;
  m.type = static_cast<gmmcs::h323::RasType>(rng.uniform_int(1, 14));
  m.seq = static_cast<std::uint32_t>(rng.next());
  m.endpoint_alias = rand_token(rng);
  m.gatekeeper_id = rand_token(rng);
  m.bandwidth = static_cast<std::uint32_t>(rng.next());
  return m.encode();
}

Bytes seed_q931(Rng& rng) {
  gmmcs::h323::Q931Message m;
  m.type = gmmcs::h323::Q931Type::kSetup;
  m.call_reference = static_cast<std::uint16_t>(rng.next());
  m.calling_party = rand_token(rng);
  m.called_party = rand_token(rng);
  return m.encode();
}

Bytes seed_h245(Rng& rng) {
  gmmcs::h323::H245Message m;
  m.type = static_cast<gmmcs::h323::H245Type>(rng.uniform_int(1, 10));
  m.seq = static_cast<std::uint32_t>(rng.next());
  auto n = rng.uniform_int(0, 6);
  for (std::int64_t i = 0; i < n; ++i) {
    m.capabilities.push_back(static_cast<std::uint8_t>(rng.next()));
  }
  m.media_kind = rand_token(rng);
  return m.encode();
}

Bytes seed_rtp(Rng& rng) {
  gmmcs::rtp::RtpPacket p;
  p.payload_type = static_cast<std::uint8_t>(rng.uniform_int(0, 127));
  p.sequence = static_cast<std::uint16_t>(rng.next());
  p.timestamp = static_cast<std::uint32_t>(rng.next());
  p.ssrc = static_cast<std::uint32_t>(rng.next());
  auto n = rng.uniform_int(0, 4);
  for (std::int64_t i = 0; i < n; ++i) {
    p.csrcs.push_back(static_cast<std::uint32_t>(rng.next()));
  }
  p.payload = rand_payload(rng);
  return p.serialize();
}

Bytes seed_rtcp(Rng& rng) {
  auto rand_block = [&] {
    gmmcs::rtp::ReportBlock b;
    b.ssrc = static_cast<std::uint32_t>(rng.next());
    b.highest_seq = static_cast<std::uint32_t>(rng.next());
    b.jitter = static_cast<std::uint32_t>(rng.next());
    return b;
  };
  if (rng.chance(0.5)) {
    gmmcs::rtp::SenderReport sr;
    sr.ssrc = static_cast<std::uint32_t>(rng.next());
    sr.ntp_timestamp = rng.next();
    auto n = rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < n; ++i) sr.blocks.push_back(rand_block());
    return serialize(sr);
  }
  gmmcs::rtp::ReceiverReport rr;
  rr.ssrc = static_cast<std::uint32_t>(rng.next());
  auto n = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < n; ++i) rr.blocks.push_back(rand_block());
  return serialize(rr);
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
void decode_sip(const Bytes& b) { (void)gmmcs::sip::SipMessage::parse(to_text(b)); }
void decode_sdp(const Bytes& b) { (void)gmmcs::sip::Sdp::parse(to_text(b)); }
void decode_rtsp(const Bytes& b) { (void)gmmcs::streaming::RtspMessage::parse(to_text(b)); }
void decode_xgsp(const Bytes& b) { (void)gmmcs::xgsp::Message::parse(to_text(b)); }
void decode_http(const Bytes& b) { (void)gmmcs::soap::parse_http_response(to_text(b)); }

constexpr Family kFamilies[] = {
    {"broker", false, decode_broker, seed_broker},
    {"ras", false, decode_ras, seed_ras},
    {"q931", false, decode_q931, seed_q931},
    {"h245", false, decode_h245, seed_h245},
    {"rtp", false, decode_rtp, seed_rtp},
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

Bytes parse_hex(const std::string& text) {
  Bytes out;
  int hi = -1;
  for (char c : text) {
    int nibble;
    if (c >= '0' && c <= '9') nibble = c - '0';
    else if (c >= 'a' && c <= 'f') nibble = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') nibble = c - 'A' + 10;
    else continue;  // whitespace / newlines
    if (hi < 0) {
      hi = nibble;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | nibble));
      hi = -1;
    }
  }
  return out;
}

Bytes read_hex_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  return parse_hex(
      std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>()));
}

std::uint64_t fuzz_seed() {
  return env_u64("GMMCS_FUZZ_SEED", 20260809);
}

/// Calls fn(i, input) for each of the family's fuzz cases, in order,
/// until fn returns false.
template <class Fn>
void for_each_case(const Family& fam, Fn&& fn) {
  const std::uint64_t iters = env_u64("GMMCS_FUZZ_ITERS", 500);
  Rng rng(fuzz_seed() ^ std::hash<std::string>{}(fam.name));
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (!fn(i, mutate(rng, fam, fam.seed(rng)))) return;
  }
}

void fuzz_family(const Family& fam) {
  const std::uint64_t seed = fuzz_seed();
  for_each_case(fam, [&](std::uint64_t i, const Bytes& input) {
    Verdict v = run_decode(fam, input);
    if (!v.violated(input.size())) return true;
    const Bytes minimal = shrink(fam, input);
    const Verdict mv = run_decode(fam, minimal);
    ADD_FAILURE() << fam.name << " decode invariant violated (seed=" << seed << " iter=" << i
                  << "): "
                  << (mv.threw ? "threw '" + mv.what + "'"
                               : "allocated " + std::to_string(mv.allocated) + " bytes for a " +
                                     std::to_string(minimal.size()) + "-byte input")
                  << "\nshrunk reproducer (commit as tests/fuzz_seeds/" << fam.name
                  << "-<what>.hex):\n"
                  << hex_dump(minimal);
    return false;
  });
}

// --- the in-place kEvent decoder ------------------------------------------

/// Empty when the two decoded events carry identical fields.
std::string event_difference(const gmmcs::broker::Event& got, const gmmcs::broker::Event& e) {
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

/// Empty when decode_event_into() agrees with decode() on `input`: it
/// accepts exactly the frames decode() returns as kEvent, with identical
/// fields. Otherwise, what differed.
std::string in_place_disagreement(const Bytes& input) {
  const gmmcs::Payload frame{Bytes(input)};
  const auto full = gmmcs::broker::decode(frame);
  const bool want = full.ok() && full.value().type == gmmcs::broker::MessageType::kEvent;
  gmmcs::broker::Event got;
  got.topic = "stale topic from an earlier event";
  got.payload = gmmcs::to_bytes("stale payload");
  if (gmmcs::broker::decode_event_into(frame, got) != want) {
    return want ? "in-place decoder rejected a kEvent frame decode() accepts"
                : "in-place decoder accepted a frame decode() does not return as kEvent";
  }
  if (!want) return {};
  return event_difference(got, full.value().event);
}

/// Empty when every strict prefix of the kEvent frame `input` is rejected
/// by the in-place decoder. Vacuous unless `input` is exactly a kEvent
/// frame as encode() writes it: decode() ignores trailing bytes, so a
/// mutated frame with a tail may legitimately have accepted prefixes.
std::string accepted_prefix(const Bytes& input) {
  gmmcs::broker::Event scratch;
  if (!gmmcs::broker::decode_event_into(gmmcs::Payload{Bytes(input)}, scratch) ||
      gmmcs::broker::encode(scratch) != input) {
    return {};
  }
  for (std::size_t n = 0; n < input.size(); ++n) {
    const Bytes prefix(input.begin(), input.begin() + static_cast<std::ptrdiff_t>(n));
    if (gmmcs::broker::decode_event_into(gmmcs::Payload{Bytes(prefix)}, scratch)) {
      return "accepted the " + std::to_string(n) + "-byte prefix of a " +
             std::to_string(input.size()) + "-byte kEvent frame";
    }
  }
  return {};
}

// --- the in-place kPeerEvent decoder --------------------------------------

/// Empty when decode_peer_event_into() agrees with decode() on `input`: it
/// accepts exactly the frames decode() returns as kPeerEvent, with
/// identical event fields and targets. Otherwise, what differed.
std::string peer_in_place_disagreement(const Bytes& input) {
  const gmmcs::Payload frame{Bytes(input)};
  const auto full = gmmcs::broker::decode(frame);
  const bool want = full.ok() && full.value().type == gmmcs::broker::MessageType::kPeerEvent;
  gmmcs::broker::Event got;
  got.topic = "stale topic from an earlier event";
  got.payload = gmmcs::to_bytes("stale payload");
  gmmcs::broker::PeerTargets targets;
  if (gmmcs::broker::decode_peer_event_into(frame, got, targets) != want) {
    return want ? "in-place peer decoder rejected a kPeerEvent frame decode() accepts"
                : "in-place peer decoder accepted a frame decode() does not return as kPeerEvent";
  }
  if (!want) return {};
  const gmmcs::broker::PeerEventMessage& m = full.value().peer_event;
  std::vector<gmmcs::broker::BrokerId> ids;
  for (std::size_t i = 0; i < targets.size(); ++i) ids.push_back(targets[i]);
  if (ids != m.targets) return "targets differ";
  return event_difference(got, m.event);
}

/// Empty when every strict prefix of the kPeerEvent frame `input` is
/// rejected by the in-place peer decoder. Vacuous unless `input` is
/// exactly a kPeerEvent frame as encode_peer_event() writes it (see
/// accepted_prefix for why).
std::string peer_accepted_prefix(const Bytes& input) {
  gmmcs::broker::Event scratch;
  gmmcs::broker::PeerTargets targets;
  if (!gmmcs::broker::decode_peer_event_into(gmmcs::Payload{Bytes(input)}, scratch, targets)) {
    return {};
  }
  std::vector<gmmcs::broker::BrokerId> ids;
  for (std::size_t i = 0; i < targets.size(); ++i) ids.push_back(targets[i]);
  if (gmmcs::broker::encode_peer_event(scratch, ids) != input) return {};
  for (std::size_t n = 0; n < input.size(); ++n) {
    const Bytes prefix(input.begin(), input.begin() + static_cast<std::ptrdiff_t>(n));
    if (gmmcs::broker::decode_peer_event_into(gmmcs::Payload{Bytes(prefix)}, scratch, targets)) {
      return "accepted the " + std::to_string(n) + "-byte prefix of a " +
             std::to_string(input.size()) + "-byte kPeerEvent frame";
    }
  }
  return {};
}

// --- tests ----------------------------------------------------------------

// The committed corpus: every shrunk reproducer a past fuzz run found
// replays clean against the hardened decoders. File name prefix (up to
// the first '-') selects the family.
TEST(DecodeFuzz, CommittedSeedCorpusReplaysClean) {
  const std::filesystem::path dir(GMMCS_FUZZ_SEED_DIR);
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".hex") continue;
    const std::string stem = entry.path().stem().string();
    const std::string fam_name = stem.substr(0, stem.find('-'));
    const Family* fam = nullptr;
    for (const Family& f : kFamilies) {
      if (fam_name == f.name) fam = &f;
    }
    ASSERT_NE(fam, nullptr) << "unknown family in seed name: " << stem;
    const Bytes input = read_hex_file(entry.path());
    const Verdict v = run_decode(*fam, input);
    EXPECT_FALSE(v.violated(input.size()))
        << stem << ": " << (v.threw ? "threw '" + v.what + "'"
                                    : "allocated " + std::to_string(v.allocated) + " bytes");
    ++replayed;
  }
  EXPECT_GE(replayed, 6) << "seed corpus went missing from " << dir;
}

// The receive hot path's in-place kEvent decoder is a second entry to the
// broker body decoder: over the committed corpus (every family's inputs,
// as stray bytes reaching a client) and every Broker-family fuzz case,
// unmutated or mutated, it must accept exactly what decode() accepts as
// kEvent, with identical fields, and reject every strict prefix.
TEST(DecodeFuzz, InPlaceEventDecoderAgreesWithDecode) {
  int corpus = 0;
  for (const auto& entry : std::filesystem::directory_iterator(GMMCS_FUZZ_SEED_DIR)) {
    if (entry.path().extension() != ".hex") continue;
    const Bytes input = read_hex_file(entry.path());
    EXPECT_EQ(in_place_disagreement(input), "") << entry.path().stem().string();
    EXPECT_EQ(accepted_prefix(input), "") << entry.path().stem().string();
    ++corpus;
  }
  EXPECT_GE(corpus, 6);

  const Family& broker = kFamilies[0];
  const auto kEvent = static_cast<std::uint8_t>(gmmcs::broker::MessageType::kEvent);
  Rng rng(fuzz_seed());
  int events = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes input = broker.seed(rng);
    EXPECT_EQ(in_place_disagreement(input), "") << hex_dump(input);
    EXPECT_EQ(accepted_prefix(input), "") << hex_dump(input);
    if (!input.empty() && input[0] == kEvent) ++events;
  }
  EXPECT_GT(events, 0) << "no unmutated kEvent frames generated";
  for_each_case(broker, [&](std::uint64_t i, const Bytes& input) {
    const std::string diff = in_place_disagreement(input);
    const std::string prefix = accepted_prefix(input);
    EXPECT_EQ(diff, "") << "iter " << i << ": " << hex_dump(input);
    EXPECT_EQ(prefix, "") << "iter " << i << ": " << hex_dump(input);
    return diff.empty() && prefix.empty();
  });
}

// The broker-to-broker hop's in-place kPeerEvent decoder, held to the same
// bar over the same inputs: exact agreement with decode() (event fields
// and targets), every strict prefix rejected.
TEST(DecodeFuzz, InPlacePeerEventDecoderAgreesWithDecode) {
  int corpus = 0;
  for (const auto& entry : std::filesystem::directory_iterator(GMMCS_FUZZ_SEED_DIR)) {
    if (entry.path().extension() != ".hex") continue;
    const Bytes input = read_hex_file(entry.path());
    EXPECT_EQ(peer_in_place_disagreement(input), "") << entry.path().stem().string();
    EXPECT_EQ(peer_accepted_prefix(input), "") << entry.path().stem().string();
    ++corpus;
  }
  EXPECT_GE(corpus, 6);

  // The count-claim frame of MalformedBroker.PeerEventCountClaimOnTruncatedFrame:
  // three bytes claiming 65535 targets.
  const Bytes count_claim = {0x06, 0xFF, 0xFF};
  gmmcs::broker::Event scratch;
  gmmcs::broker::PeerTargets targets;
  EXPECT_FALSE(gmmcs::broker::decode_peer_event_into(gmmcs::Payload{Bytes(count_claim)}, scratch,
                                                     targets));
  EXPECT_EQ(peer_in_place_disagreement(count_claim), "");

  const Family& broker = kFamilies[0];
  const auto kPeerEvent = static_cast<std::uint8_t>(gmmcs::broker::MessageType::kPeerEvent);
  Rng rng(fuzz_seed());
  int peer_events = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes input = broker.seed(rng);
    EXPECT_EQ(peer_in_place_disagreement(input), "") << hex_dump(input);
    EXPECT_EQ(peer_accepted_prefix(input), "") << hex_dump(input);
    if (!input.empty() && input[0] == kPeerEvent) ++peer_events;
  }
  EXPECT_GT(peer_events, 0) << "no unmutated kPeerEvent frames generated";
  for_each_case(broker, [&](std::uint64_t i, const Bytes& input) {
    const std::string diff = peer_in_place_disagreement(input);
    const std::string prefix = peer_accepted_prefix(input);
    EXPECT_EQ(diff, "") << "iter " << i << ": " << hex_dump(input);
    EXPECT_EQ(prefix, "") << "iter " << i << ": " << hex_dump(input);
    return diff.empty() && prefix.empty();
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
