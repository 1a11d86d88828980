// Property-based tests: invariants checked over randomized inputs and
// parameter grids (TEST_P / INSTANTIATE_TEST_SUITE_P). Every generator is
// seeded from the suite parameter, so failures reproduce exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "broker/broker_node.hpp"
#include "broker/client.hpp"
#include "broker/event.hpp"
#include "broker/subscription_index.hpp"
#include "broker/topic.hpp"
#include "common/random.hpp"
#include "h323/messages.hpp"
#include "property.hpp"
#include "rtp/packet.hpp"
#include "rtp/playout.hpp"
#include "rtp/receiver_stats.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "sim/service_center.hpp"
#include "sip/message.hpp"
#include "transport/stream.hpp"
#include "wire_gen.hpp"
#include "xgsp/messages.hpp"
#include "xml/xml.hpp"

namespace gmmcs {
namespace {

// ---------------------------------------------------------------------------
// Wire-format round trips over randomized instances.
// ---------------------------------------------------------------------------

class WireRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng{GetParam()};

  std::string random_token() {
    static const char* words[] = {"alice", "bob", "conf-7", "gmmcs", "video",
                                  "audio", "session", "h261",   "x",     "long-token-name"};
    return words[rng.uniform_int(0, 9)];
  }
};

TEST_P(WireRoundTrip, RtpPacket) {
  for (int i = 0; i < 50; ++i) {
    rtp::RtpPacket p = gen::rand_rtp(rng);
    p.payload = gen::rand_bytes(rng, 1400);
    auto r = rtp::RtpPacket::parse(p.serialize());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().marker, p.marker);
    EXPECT_EQ(r.value().payload_type, p.payload_type);
    EXPECT_EQ(r.value().sequence, p.sequence);
    EXPECT_EQ(r.value().timestamp, p.timestamp);
    EXPECT_EQ(r.value().ssrc, p.ssrc);
    EXPECT_EQ(r.value().csrcs, p.csrcs);
    EXPECT_EQ(r.value().payload, p.payload);
  }
}

TEST_P(WireRoundTrip, BrokerEvent) {
  for (int i = 0; i < 50; ++i) {
    broker::Event e = gen::rand_event(rng);
    e.topic = "/" + random_token() + "/" + random_token();
    e.payload = gen::rand_bytes(rng, 2000);
    e.origin = SimTime{static_cast<std::int64_t>(rng.next() >> 1)};
    auto f = broker::decode(broker::encode(e));
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f.value().event.topic, e.topic);
    EXPECT_EQ(f.value().event.payload, e.payload);
    EXPECT_EQ(f.value().event.qos, e.qos);
    EXPECT_EQ(f.value().event.origin, e.origin);
    EXPECT_EQ(f.value().event.seq, e.seq);
    EXPECT_EQ(f.value().event.hops, e.hops);
  }
}

TEST_P(WireRoundTrip, H323Messages) {
  for (int i = 0; i < 50; ++i) {
    const h323::RasMessage ras = gen::rand_ras(rng);
    auto r = h323::RasMessage::decode(ras.encode());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().type, ras.type);
    EXPECT_EQ(r.value().endpoint_alias, ras.endpoint_alias);
    EXPECT_EQ(r.value().call_signal_address, ras.call_signal_address);

    const h323::H245Message h245 = gen::rand_h245(rng);
    auto r2 = h323::H245Message::decode(h245.encode());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2.value().type, h245.type);
    EXPECT_EQ(r2.value().capabilities, h245.capabilities);
    EXPECT_EQ(r2.value().media_kind, h245.media_kind);
  }
}

TEST_P(WireRoundTrip, ParsersNeverCrashOnGarbage) {
  for (int i = 0; i < 200; ++i) {
    Bytes garbage = gen::rand_bytes(rng, 200);
    std::string text(garbage.begin(), garbage.end());
    const Payload frame{std::move(garbage)};
    (void)rtp::RtpPacket::parse(frame);
    (void)broker::decode(frame);
    (void)h323::RasMessage::decode(frame);
    (void)h323::Q931Message::decode(frame);
    (void)h323::H245Message::decode(frame);
    (void)sip::SipMessage::parse(text);
    (void)xml::parse(text);
    (void)xgsp::Message::parse(text);
  }
  SUCCEED();
}

TEST_P(WireRoundTrip, XmlRandomTreeRoundTrip) {
  // Build a random tree, serialize, parse, compare structure.
  std::function<xml::Element(int)> build = [&](int depth) {
    xml::Element e("n" + std::to_string(rng.uniform_int(0, 99)));
    for (int a = rng.uniform_int(0, 3); a > 0; --a) {
      e.set_attr("a" + std::to_string(a), random_token() + "<&>\"'");
    }
    if (depth > 0 && rng.chance(0.7)) {
      for (int c = rng.uniform_int(1, 3); c > 0; --c) e.add_child(build(depth - 1));
    } else if (rng.chance(0.5)) {
      e.set_text(random_token() + " & <" + random_token() + ">");
    }
    return e;
  };
  std::function<void(const xml::Element&, const xml::Element&)> compare =
      [&](const xml::Element& a, const xml::Element& b) {
        ASSERT_EQ(a.name(), b.name());
        ASSERT_EQ(a.text(), b.text());
        ASSERT_EQ(a.attrs(), b.attrs());
        ASSERT_EQ(a.children().size(), b.children().size());
        for (std::size_t i = 0; i < a.children().size(); ++i) {
          compare(a.children()[i], b.children()[i]);
        }
      };
  for (int i = 0; i < 20; ++i) {
    xml::Element tree = build(3);
    auto parsed = xml::parse(tree.serialize());
    ASSERT_TRUE(parsed.ok());
    compare(tree, parsed.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Topic filter algebra.
// ---------------------------------------------------------------------------

class TopicProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng{GetParam()};
  std::string random_topic(int max_depth = 5) {
    std::string t;
    int depth = static_cast<int>(rng.uniform_int(1, max_depth));
    for (int i = 0; i < depth; ++i) {
      t += "/s" + std::to_string(rng.uniform_int(0, 9));
    }
    return t;
  }
};

TEST_P(TopicProperty, ExactFilterMatchesExactlyItself) {
  for (int i = 0; i < 100; ++i) {
    std::string t = random_topic();
    broker::TopicFilter f(t);
    EXPECT_TRUE(f.matches(t));
    std::string other = random_topic();
    if (other != t) {
      EXPECT_FALSE(f.matches(other)) << t << " vs " << other;
    }
  }
}

TEST_P(TopicProperty, HashMatchesAllExtensions) {
  for (int i = 0; i < 100; ++i) {
    std::string base = random_topic(3);
    broker::TopicFilter f(base + "/#");
    EXPECT_TRUE(f.matches(base));
    EXPECT_TRUE(f.matches(base + "/x"));
    EXPECT_TRUE(f.matches(base + "/x/y/z"));
  }
}

TEST_P(TopicProperty, StarMatchesAnySingleSegmentSubstitution) {
  for (int i = 0; i < 100; ++i) {
    std::string t = random_topic(4);
    auto segs = broker::topic_segments(t);
    auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(segs.size()) - 1));
    std::string pattern;
    std::string longer;
    for (std::size_t s = 0; s < segs.size(); ++s) {
      pattern += "/" + (s == idx ? std::string("*") : segs[s]);
      longer += "/" + segs[s];
    }
    broker::TopicFilter f(pattern);
    EXPECT_TRUE(f.matches(t)) << pattern << " should match " << t;
    EXPECT_FALSE(f.matches(longer + "/extra"));
  }
}

TEST_P(TopicProperty, NormalizationIsIdempotent) {
  for (int i = 0; i < 100; ++i) {
    std::string messy;
    for (int s = rng.uniform_int(1, 4); s > 0; --s) {
      messy += rng.chance(0.3) ? "//" : "/";
      messy += "seg" + std::to_string(rng.uniform_int(0, 5));
    }
    if (rng.chance(0.5)) messy += "/";
    std::string once = broker::normalize_topic(messy);
    EXPECT_EQ(broker::normalize_topic(once), once);
  }
}

/// The filter semantics spelled over segment lists: what TopicFilter did
/// when it stored its segments, before it walked its pattern as views.
bool reference_match(const std::string& filter, const std::string& topic) {
  std::vector<std::string> want = broker::topic_segments(filter);
  if (want.empty()) return false;
  const auto hash = std::find(want.begin(), want.end(), "#");
  if (hash != want.end() && hash + 1 != want.end()) return false;  // '#' not last: invalid
  const bool trailing_hash = hash != want.end();
  if (trailing_hash) want.pop_back();
  const std::vector<std::string> got = broker::topic_segments(topic);
  if (trailing_hash ? got.size() < want.size() : got.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] != "*" && want[i] != got[i]) return false;
  }
  return true;
}

TEST_P(TopicProperty, MatchesSegmentListReference) {
  // Spellings of up to 5 segments from a tiny alphabet, so that filters
  // and topics collide often. An empty segment makes a "//"; a path may
  // drop its leading '/' or keep a trailing one (un-normalized); a topic
  // may carry a literal "*" or "#".
  auto spell = [this](const std::vector<std::string>& alphabet) {
    std::string out = rng.chance(0.8) ? "/" : "";
    for (int n = static_cast<int>(rng.uniform_int(0, 5)); n > 0; --n) {
      out += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
      out += '/';
    }
    if (rng.chance(0.7) && out.size() > 1) out.pop_back();
    return out;
  };
  const std::vector<std::string> filter_alphabet = {"a", "b", "c", "*", "*", "#", ""};
  const std::vector<std::string> topic_alphabet = {"a", "b", "c", "a", "b", "", "*", "#"};
  int matched = 0;
  int trailing_hash = 0;
  int middle_hash = 0;
  int star = 0;
  int shorter = 0;
  int longer = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string pattern = spell(filter_alphabet);
    const std::string topic = spell(topic_alphabet);
    const broker::TopicFilter f(pattern);
    const bool expected = reference_match(pattern, topic);
    ASSERT_EQ(f.matches(topic), expected) << "filter '" << pattern << "' topic '" << topic << "'";
    // And the pattern-independent view of the same filter agrees.
    ASSERT_EQ(broker::TopicFilter(f.pattern()).matches(topic), expected) << pattern;
    const auto want = broker::topic_segments(pattern);
    const auto got = broker::topic_segments(topic);
    matched += expected ? 1 : 0;
    const auto hash = std::find(want.begin(), want.end(), "#");
    if (hash != want.end()) ++(hash + 1 == want.end() ? trailing_hash : middle_hash);
    if (std::find(want.begin(), want.end(), "*") != want.end()) ++star;
    shorter += got.size() < want.size() ? 1 : 0;
    longer += got.size() > want.size() ? 1 : 0;
  }
  // The generator reaches every case the matcher distinguishes.
  EXPECT_GT(matched, 100);
  EXPECT_GT(trailing_hash, 100);
  EXPECT_GT(middle_hash, 100);
  EXPECT_GT(star, 100);
  EXPECT_GT(shorter, 100);
  EXPECT_GT(longer, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopicProperty, ::testing::Values(11, 12, 13));

// ---------------------------------------------------------------------------
// ServiceCenter obeys queueing theory.
// ---------------------------------------------------------------------------

struct QueueCase {
  double utilization;   // ρ = λ·s (single server)
  int servers;
};

// Printed field by field: gtest's default byte dump would include the
// struct's uninitialised padding, making the listed test names vary per run.
void PrintTo(const QueueCase& c, std::ostream* os) {
  *os << "rho" << c.utilization << "_servers" << c.servers;
}

class QueueLaw : public ::testing::TestWithParam<QueueCase> {};

TEST_P(QueueLaw, PoissonArrivalsMatchMD1Wait) {
  const QueueCase& c = GetParam();
  sim::EventLoop loop;
  sim::ServiceCenter sc(loop, c.servers);
  Rng rng(99);
  const SimDuration service = duration_us(1000);
  // λ per server = ρ / s.
  double lambda = c.utilization * c.servers / service.to_seconds();
  RunningStats waits;
  SimTime t{0};
  const int jobs = 20000;
  for (int i = 0; i < jobs; ++i) {
    t += duration_seconds(rng.exponential(1.0 / lambda));
    loop.schedule_at(t, [&loop, &sc, &waits, service] {
      SimTime enq = loop.now();
      sc.submit(service, [&waits, &loop, enq] { waits.add((loop.now() - enq).to_ms()); });
    });
  }
  loop.run();
  ASSERT_EQ(waits.count(), static_cast<std::size_t>(jobs));
  double mean_wait_ms = waits.mean() - service.to_ms();  // queueing only
  if (c.servers == 1) {
    // M/D/1: Wq = ρ/(2(1-ρ)) * s.
    double expected = c.utilization / (2.0 * (1.0 - c.utilization)) * service.to_ms();
    EXPECT_NEAR(mean_wait_ms, expected, expected * 0.25 + 0.05)
        << "rho=" << c.utilization;
  } else {
    // Multi-server at the same per-server utilization waits strictly less.
    double md1 = c.utilization / (2.0 * (1.0 - c.utilization)) * service.to_ms();
    EXPECT_LT(mean_wait_ms, md1);
  }
}

INSTANTIATE_TEST_SUITE_P(Loads, QueueLaw,
                         ::testing::Values(QueueCase{0.3, 1}, QueueCase{0.6, 1},
                                           QueueCase{0.8, 1}, QueueCase{0.9, 1},
                                           QueueCase{0.8, 4}));

// ---------------------------------------------------------------------------
// ServiceCenter: a batch of n jobs is exactly n submit() calls.
//
// Many cheap seeded cases in one test, in the spirit of RapidCheck's
// RC_GTEST_PROP_WITH_PARAMS (hand-rolled on Rng; no RapidCheck here). Each
// case is a random script of submissions — some at scheduled instants,
// some from inside another job's completion callback — run on two twin
// ServiceCenters: one takes every op as submit_batch(n), the other as n
// submit() calls. Everything observable must match.
// ---------------------------------------------------------------------------

struct BatchOp {
  SimTime at;       // top-level op: submission instant
  int parent = -1;  // nested op: submitted when this item completes
  std::size_t n = 1;
  SimDuration service;
  sim::NicGate gate;
};

struct BatchScript {
  int servers = 1;
  std::size_t queue_limit = 0;
  bool gated = false;
  std::vector<BatchOp> ops;
};

constexpr int kMaxBatch = 32;

BatchScript random_batch_script(Rng& rng) {
  BatchScript s;
  s.servers = static_cast<int>(rng.uniform_int(1, 8));
  s.queue_limit = rng.chance(0.5) ? 0 : static_cast<std::size_t>(rng.uniform_int(1, 24));
  // A slow virtual NIC shared by the case's gated ops, so the gate binds.
  sim::NicGate link;
  link.nic_bps = rng.uniform(2e6, 5e7);
  link.nic_cap = static_cast<std::size_t>(rng.uniform_int(2000, 20000));
  link.nic_slack = static_cast<std::size_t>(rng.uniform_int(0, 1500));
  const bool gated_case = rng.chance(0.5);
  const int ops = static_cast<int>(rng.uniform_int(1, 16));
  for (int k = 0; k < ops; ++k) {
    BatchOp op;
    // A coarse 10 µs grid makes same-instant ties common.
    op.at = SimTime{duration_us(10 * rng.uniform_int(0, 40)).ns()};
    if (k > 0 && rng.chance(0.4)) {
      const auto parent_op = static_cast<std::size_t>(rng.uniform_int(0, k - 1));
      const auto parent_n = static_cast<std::int64_t>(s.ops[parent_op].n);
      if (parent_n > 0) {
        const auto item = static_cast<int>(rng.uniform_int(0, parent_n - 1));
        op.parent = static_cast<int>(parent_op) * kMaxBatch + item;
      }
    }
    op.n = static_cast<std::size_t>(rng.uniform_int(0, kMaxBatch));
    op.service = duration_us(10 * rng.uniform_int(0, 20));
    if (gated_case && rng.chance(0.8)) {
      op.gate = link;
      op.gate.wire_bytes = static_cast<std::size_t>(rng.uniform_int(64, 1500));
      s.gated = true;
    }
    s.ops.push_back(op);
  }
  return s;
}

struct Observation {
  SimTime at;
  int item = 0;  // completed item, or -1 - op for a submission
  std::size_t queue_length = 0;
  int busy = 0;
  bool operator==(const Observation&) const = default;
};

void PrintTo(const Observation& o, std::ostream* os) {
  *os << "{t=" << o.at.ns() << " ns, item " << o.item;
  *os << ", queue " << o.queue_length << ", busy " << o.busy << "}";
}

struct TwinRun {
  std::vector<Observation> log;
  std::vector<std::size_t> accepted;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::size_t queue_length = 0;
  SimDuration total_wait{};
  int nested = 0;
};

TwinRun run_twin(const BatchScript& s, bool batched) {
  sim::EventLoop loop;
  sim::ServiceCenter sc(loop, s.servers, s.queue_limit);
  TwinRun r;
  r.accepted.assign(s.ops.size(), 0);
  std::multimap<int, std::size_t> children;
  for (std::size_t k = 0; k < s.ops.size(); ++k) {
    if (s.ops[k].parent >= 0) children.emplace(s.ops[k].parent, k);
  }
  std::function<void(std::size_t)> submit_op;
  auto on_done = [&](int item) {
    r.log.push_back({loop.now(), item, sc.queue_length(), sc.busy_servers()});
    for (auto [it, end] = children.equal_range(item); it != end; ++it) {
      ++r.nested;
      submit_op(it->second);
    }
  };
  submit_op = [&](std::size_t k) {
    const BatchOp& op = s.ops[k];
    const int base = static_cast<int>(k) * kMaxBatch;
    if (batched) {
      auto done = [&on_done, base](std::size_t i) { on_done(base + static_cast<int>(i)); };
      r.accepted[k] = sc.submit_batch(op.n, op.service, done, op.gate);
    } else {
      for (std::size_t i = 0; i < op.n; ++i) {
        const int item = base + static_cast<int>(i);
        if (sc.submit(op.service, [&on_done, item] { on_done(item); }, op.gate)) ++r.accepted[k];
      }
    }
    r.log.push_back({loop.now(), -1 - static_cast<int>(k), sc.queue_length(), sc.busy_servers()});
  };
  for (std::size_t k = 0; k < s.ops.size(); ++k) {
    if (s.ops[k].parent < 0) loop.schedule_at(s.ops[k].at, [&submit_op, k] { submit_op(k); });
  }
  loop.run();
  r.completed = sc.completed();
  r.rejected = sc.rejected();
  r.queue_length = sc.queue_length();
  r.total_wait = sc.total_wait();
  return r;
}

TEST(BatchEquivalence, BatchIsExactlyNSubmits) {
  int nested = 0;
  int with_rejections = 0;
  int gated = 0;
  const prop::Cases cases = prop::for_each_seed(2500, [&](std::uint64_t seed) {
    Rng rng(seed);
    const BatchScript script = random_batch_script(rng);
    const TwinRun batch = run_twin(script, /*batched=*/true);
    const TwinRun each = run_twin(script, /*batched=*/false);
    for (std::size_t j = 0; j < std::min(batch.log.size(), each.log.size()); ++j) {
      ASSERT_EQ(batch.log[j], each.log[j]) << "observation " << j;
    }
    ASSERT_EQ(batch.log.size(), each.log.size());
    ASSERT_EQ(batch.accepted, each.accepted);
    ASSERT_EQ(batch.completed, each.completed);
    ASSERT_EQ(batch.rejected, each.rejected);
    ASSERT_EQ(batch.queue_length, each.queue_length);
    ASSERT_EQ(batch.total_wait, each.total_wait);
    nested += batch.nested > 0 ? 1 : 0;
    with_rejections += batch.rejected > 0 ? 1 : 0;
    gated += script.gated ? 1 : 0;
  });
  // The generator reaches the corners the property is about.
  cases.expect_more(nested, 250, "nested");
  cases.expect_more(with_rejections, 250, "with_rejections");
  cases.expect_more(gated, 250, "gated");
}

// ---------------------------------------------------------------------------
// EventLoop: execution follows (when, seq) order, exactly.
//
// The loop's heap layout, slot storage and cancel bookkeeping are host-
// side machinery; the one thing every sim result depends on is that
// events run in (when, seq) order with seq assigned at scheduling or
// reservation. Each seeded case drives the real loop and a reference (a
// (when, seq)-sorted std::map) through the same script: parked callables
// and direct (EventTarget) events mixed, at past, equal and future times;
// schedule_after with negative delays; cancels of pending, already run
// and never-minted ids, from outside and from inside callbacks (a
// callback may cancel its own id; a direct event has no id, so its tag's
// cancel is a no-op); events scheduled from callbacks; keys reserved with
// reserve_seq() and scheduled later as direct events, often from a later
// callback, or refused once their key has passed; run_until with
// deadlines before and after now(); single steps, also nested in a
// running event; and cancel storms that trigger the loop's compaction,
// often over pending direct events. The executed (when, seq, tag)
// sequence, every reserved schedule's outcome and
// pending/executed/current_seq/now after every top-level op must match.
// ---------------------------------------------------------------------------

/// The reference loop: pending events in a map ordered by (when, seq).
struct RefLoop {
  using Key = std::pair<std::int64_t, std::uint64_t>;
  SimTime now_{};
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::map<Key, int> pending_events;
  std::map<int, Key> key_of;
  std::function<void(int)> on_run;
  std::size_t compactions = 0;  // the reference never compacts

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return pending_events.size(); }
  [[nodiscard]] std::uint64_t current_seq() const { return current_seq_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  void schedule_at(SimTime when, int tag) {
    const Key key{std::max(when, now_).ns(), next_seq_++};
    pending_events.emplace(key, tag);
    key_of.emplace(tag, key);
  }
  /// A direct event: ordered like schedule_at, but no cancel reaches it.
  void schedule_direct(SimTime when, int tag) {
    pending_events.emplace(Key{std::max(when, now_).ns(), next_seq_++}, tag);
  }
  void schedule_after(SimDuration d, int tag) {
    schedule_at(now_ + std::max(d, SimDuration{0}), tag);
  }
  std::uint64_t reserve_seq() { return next_seq_++; }
  /// False (and nothing scheduled) once the key is behind the last run
  /// event.
  bool schedule_reserved(SimTime when, std::uint64_t seq, int tag) {
    if (when < now_ || (when == now_ && seq <= current_seq_)) return false;
    pending_events.emplace(Key{when.ns(), seq}, tag);
    return true;
  }
  void cancel(int tag) {
    const auto it = key_of.find(tag);
    if (it == key_of.end()) return;
    pending_events.erase(it->second);
    key_of.erase(it);
  }
  void cancel_unknown(std::uint64_t /*id*/) {}
  bool step() {
    if (pending_events.empty()) return false;
    const auto [key, tag] = *pending_events.begin();
    pending_events.erase(pending_events.begin());
    key_of.erase(tag);
    now_ = SimTime{key.first};
    current_seq_ = key.second;
    ++executed_;
    on_run(tag);
    return true;
  }
  void run() {
    while (step()) {
    }
    current_seq_ = next_seq_ - 1;
  }
  void run_until(SimTime deadline) {
    while (!pending_events.empty() && pending_events.begin()->first.first <= deadline.ns()) step();
    if (now_ <= deadline) {
      now_ = deadline;
      current_seq_ = next_seq_ - 1;
    }
  }
};

/// The real loop behind the same interface; tags map to TaskIds. It is
/// also the target of its direct events, whose arg is the tag.
struct RealLoop : sim::EventTarget {
  sim::EventLoop loop;
  std::map<int, sim::TaskId> ids;
  std::function<void(int)> on_run;
  std::size_t compactions = 0;

  RealLoop()
      : EventTarget{[](EventTarget& t, std::uint64_t tag) {
          static_cast<RealLoop&>(t).on_run(static_cast<int>(tag));
        }} {}

  [[nodiscard]] SimTime now() const { return loop.now(); }
  [[nodiscard]] std::size_t pending() const { return loop.pending(); }
  [[nodiscard]] std::uint64_t current_seq() const { return loop.current_seq(); }
  [[nodiscard]] std::uint64_t executed() const { return loop.executed(); }
  void schedule_at(SimTime when, int tag) {
    ids[tag] = loop.schedule_at(when, [this, tag] { on_run(tag); });
  }
  void schedule_direct(SimTime when, int tag) {
    loop.schedule_at(when, *this, static_cast<std::uint64_t>(tag));
    ids[tag] = 0;  // no id: cancelling the tag is a no-op
  }
  void schedule_after(SimDuration d, int tag) {
    ids[tag] = loop.schedule_after(d, [this, tag] { on_run(tag); });
  }
  std::uint64_t reserve_seq() { return loop.reserve_seq(); }
  bool schedule_reserved(SimTime when, std::uint64_t seq, int tag) {
    ids[tag] = 0;  // a direct event, or none: cancelling the tag is a no-op
    try {
      loop.schedule_reserved(when, seq, *this, static_cast<std::uint64_t>(tag));
    } catch (const std::logic_error&) {
      return false;
    }
    return true;
  }
  void cancel(int tag) {
    const std::size_t before = loop.heap_entries();
    loop.cancel(ids.at(tag));
    if (loop.heap_entries() + 1 < before) ++compactions;
  }
  void cancel_unknown(std::uint64_t id) { loop.cancel(id); }
  bool step() { return loop.step(); }
  void run() { loop.run(); }
  void run_until(SimTime deadline) { loop.run_until(deadline); }
};

/// One observation: an executed event (tag >= 0) or the loop's state after
/// a top-level op (tag = -1, seq = current_seq, extra = pending/executed).
struct OrderObs {
  std::int64_t when = 0;
  std::uint64_t seq = 0;
  int tag = 0;
  std::uint64_t pending = 0;
  std::uint64_t executed = 0;
  bool operator==(const OrderObs&) const = default;
};

void PrintTo(const OrderObs& o, std::ostream* os) {
  *os << "{t=" << o.when << ", seq " << o.seq << ", tag " << o.tag << ", pending " << o.pending
      << ", executed " << o.executed << "}";
}

struct OrderRun {
  std::vector<OrderObs> log;
  std::size_t compactions = 0;
  int nested = 0;
  int self_cancels = 0;
  int reserved_across_events = 0;  // reserved in one event, scheduled in a later one
  int reservations_passed = 0;     // scheduled too late, and refused
  int direct_runs = 0;             // direct events run, reserved ones included
  int compacted_over_direct = 0;   // compactions with a direct event pending
  int nested_steps = 0;            // step() called from inside an event
};

/// Runs one seeded script on `L`. Every decision draws from one Rng in
/// execution order, so both loops see the same script as long as their
/// orders agree; the first disagreement shows up in the log.
template <class L>
OrderRun run_order_script(std::uint64_t seed) {
  Rng rng(seed);
  L l;
  OrderRun out;
  int next_tag = 0;
  int depth_budget = 400;  // bounds the events callbacks spawn
  const auto unit = [](std::int64_t k) { return duration_us(10 * k); };  // ties are common
  const auto random_time = [&] {
    return SimTime{l.now().ns() + unit(rng.uniform_int(-3, 30)).ns()};
  };
  // Direct events scheduled and not run yet.
  std::set<int> direct_pending;
  int step_depth = 0;  // steps nested in the running events
  const auto schedule_one = [&] {
    const int tag = next_tag++;
    const double r = rng.uniform();
    if (r < 0.35) {
      l.schedule_at(random_time(), tag);
    } else if (r < 0.7) {
      l.schedule_after(unit(rng.uniform_int(-3, 30)), tag);
    } else {
      l.schedule_direct(random_time(), tag);
      direct_pending.insert(tag);
    }
  };
  const auto cancel_tag = [&](int tag) {
    const std::size_t before = l.compactions;
    l.cancel(tag);
    if (l.compactions > before && !direct_pending.empty()) ++out.compacted_over_direct;
  };
  const auto cancel_one = [&](int self) {
    const double r = rng.uniform();
    if (r < 0.15) {
      // Never minted: id 0, a slot far past any the loop hands out, or a
      // minted slot with a serial no case reaches.
      const std::uint64_t ids[] = {0,
                                   (std::uint64_t{1} << 63) |
                                       static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
                                   (static_cast<std::uint64_t>(rng.uniform_int(1, 64)) << 32) |
                                       0xFFFF'FFFFu};
      l.cancel_unknown(ids[rng.uniform_int(0, 2)]);
    } else if (self >= 0 && r < 0.3) {
      cancel_tag(self);
      ++out.self_cancels;
    } else if (next_tag > 0) {
      cancel_tag(static_cast<int>(rng.uniform_int(0, next_tag - 1)));  // pending or already run
    }
  };
  const auto storm = [&] {
    // Far-future events, almost all cancelled: the heap fills with stale
    // entries until the loop compacts it.
    const int n = static_cast<int>(rng.uniform_int(70, 160));
    const int first = next_tag;
    for (int i = 0; i < n; ++i) {
      l.schedule_at(SimTime{l.now().ns() + unit(rng.uniform_int(100, 400)).ns()}, next_tag++);
    }
    for (int i = 0; i < n; ++i) {
      if (!rng.chance(0.05)) cancel_tag(first + i);
    }
  };
  // Reserved keys not scheduled yet, with the executed() count at their
  // reservation.
  struct Reservation {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t reserved_at;
  };
  std::vector<Reservation> reservations;
  const auto reserve_one = [&] {
    const SimTime when = std::max(random_time(), l.now());
    reservations.push_back({when, l.reserve_seq(), l.executed()});
  };
  const auto schedule_reservation = [&](bool in_event) {
    if (reservations.empty()) return;
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(reservations.size()) - 1));
    const Reservation res = reservations[k];
    reservations[k] = reservations.back();
    reservations.pop_back();
    const int tag = next_tag++;
    const bool ok = l.schedule_reserved(res.when, res.seq, tag);
    out.log.push_back({res.when.ns(), res.seq, ok ? -2 : -3, 0, 0});
    if (ok) direct_pending.insert(tag);
    if (!ok) ++out.reservations_passed;
    if (ok && in_event && l.executed() != res.reserved_at) ++out.reserved_across_events;
  };
  l.on_run = [&](int tag) {
    out.log.push_back({l.now().ns(), l.current_seq(), tag, 0, 0});
    out.direct_runs += static_cast<int>(direct_pending.erase(tag));
    const int actions = static_cast<int>(rng.uniform_int(0, 3));
    for (int a = 0; a < actions; ++a) {
      const double r = rng.uniform();
      if (r < 0.4 && depth_budget > 0) {
        --depth_budget;
        ++out.nested;
        schedule_one();
      } else if (r < 0.48 && depth_budget > 0) {
        --depth_budget;
        reserve_one();
      } else if (r < 0.56) {
        schedule_reservation(true);
      } else if (r < 0.9) {
        cancel_one(tag);
      } else if (r < 0.92 && depth_budget > 0) {
        depth_budget -= 40;
        storm();
      } else if (r < 0.95 && step_depth < 2) {
        // A step nested in this event runs the next one, never this one.
        ++step_depth;
        ++out.nested_steps;
        l.step();
        --step_depth;
      }
    }
  };
  const auto observe = [&] {
    out.log.push_back({l.now().ns(), l.current_seq(), -1,
                       static_cast<std::uint64_t>(l.pending()), l.executed()});
  };
  const int ops = static_cast<int>(rng.uniform_int(5, 40));
  for (int k = 0; k < ops; ++k) {
    const double r = rng.uniform();
    if (r < 0.35) {
      schedule_one();
    } else if (r < 0.4) {
      reserve_one();
    } else if (r < 0.45) {
      schedule_reservation(false);
    } else if (r < 0.6) {
      cancel_one(-1);
    } else if (r < 0.75) {
      l.run_until(random_time());
    } else if (r < 0.85) {
      l.step();
    } else if (r < 0.95) {
      storm();
    } else {
      l.run();
    }
    observe();
  }
  l.run();
  observe();
  out.compactions = l.compactions;
  return out;
}

TEST(EventLoopOrder, MatchesSortedReference) {
  int compacted = 0;
  int nested = 0;
  int self_cancels = 0;
  int across = 0;
  int passed = 0;
  int direct = 0;
  int compacted_over_direct = 0;
  int nested_steps = 0;
  const prop::Cases cases = prop::for_each_seed(2000, [&](std::uint64_t seed) {
    const OrderRun real = run_order_script<RealLoop>(seed);
    const OrderRun ref = run_order_script<RefLoop>(seed);
    for (std::size_t j = 0; j < std::min(real.log.size(), ref.log.size()); ++j) {
      ASSERT_EQ(real.log[j], ref.log[j]) << "observation " << j;
    }
    ASSERT_EQ(real.log.size(), ref.log.size());
    compacted += real.compactions > 0 ? 1 : 0;
    nested += real.nested > 0 ? 1 : 0;
    self_cancels += real.self_cancels > 0 ? 1 : 0;
    across += real.reserved_across_events > 0 ? 1 : 0;
    passed += real.reservations_passed > 0 ? 1 : 0;
    direct += real.direct_runs > 0 ? 1 : 0;
    compacted_over_direct += real.compacted_over_direct > 0 ? 1 : 0;
    nested_steps += real.nested_steps > 0 ? 1 : 0;
  });
  // The generator reaches the corners the property is about.
  cases.expect_more(compacted, 500, "compacted");
  cases.expect_more(nested, 1000, "nested");
  cases.expect_more(self_cancels, 500, "self_cancels");
  cases.expect_more(across, 500, "reserved across events");
  cases.expect_more(passed, 800, "reservations passed");
  cases.expect_more(direct, 1800, "direct events run");
  cases.expect_more(compacted_over_direct, 1100, "compacted with a direct event pending");
  cases.expect_more(nested_steps, 1500, "steps nested in an event");
}

// ---------------------------------------------------------------------------
// Network: lazy link arrivals run at the keys their sends reserved.
//
// A send reserves its arrival's loop key (when, seq) where a per-datagram
// arrival event would have taken it, but only the first arrival queued
// on a link is a loop event; it schedules the next one when it fires.
// Each seeded script builds 3-6 hosts with random NIC rates and
// latencies and drives sends from script events and from handlers:
// unicast, loopback and multicast. Path changes in flight (set_path,
// override push/pop) make later datagrams overtake earlier ones on the
// same link, host crashes wipe queued NIC bytes (and reset the NIC, so
// a later datagram departs before a wiped one), and run_until splits
// the run. The test computes each arrival's key at its send: seq is
// next_seq() before the send, when is the NIC departure plus the path
// latency. The loop's trace must rise strictly in (when, seq); every
// reserved key must run; and each delivery must run at its own key.
// ---------------------------------------------------------------------------

struct ArrivalCoverage {
  int queued = 0;      // joined a link that already had arrivals pending
  int overtakes = 0;   // due before an arrival pending on its link
  int loopbacks = 0;
  int multicasts = 0;
  int crashes_in_flight = 0;
};

void run_arrival_script(std::uint64_t seed, ArrivalCoverage& cov) {
  using Key = std::pair<std::int64_t, std::uint64_t>;
  using Pair = std::pair<sim::NodeId, sim::NodeId>;
  constexpr std::uint16_t kPort = 1;
  Rng rng(seed);
  sim::EventLoop loop;
  sim::Network net(loop, seed);
  const double rates[] = {1e6, 8e6, 1e8};
  std::vector<sim::Host*> hosts;
  const auto n = static_cast<sim::NodeId>(rng.uniform_int(3, 6));
  for (sim::NodeId i = 0; i < n; ++i) {
    hosts.push_back(&net.add_host(
        "h" + std::to_string(i),
        sim::NicConfig{.egress_bps = rates[rng.uniform_int(0, 2)], .queue_bytes = 48 * 1024,
                       .overhead_bytes = 0}));
  }
  const auto random_latency = [&] { return duration_us(rng.uniform_int(0, 4000)); };
  net.set_default_path(sim::PathConfig{.latency = random_latency()});
  for (sim::NodeId a = 0; a < n; ++a) {
    for (sim::NodeId b = a; b < n; ++b) {
      if (rng.chance(0.5)) net.set_path(a, b, sim::PathConfig{.latency = random_latency()});
    }
  }
  const sim::GroupId group = net.create_group();
  std::vector<sim::NodeId> members;
  for (sim::NodeId h = 0; h < n; ++h) {
    if (rng.chance(0.6)) {
      net.join_group(group, sim::Endpoint{h, kPort});
      members.push_back(h);
    }
  }

  // Expected key per (message id, destination), and per-link bookkeeping
  // of reserved arrivals that have not run yet (count, latest when).
  std::map<std::pair<std::uint32_t, sim::NodeId>, Key> expected;
  std::map<std::uint64_t, Pair> link_of_seq;
  std::map<Pair, std::pair<int, std::int64_t>> in_flight;
  std::set<Key> ran;
  Key last{-1, 0};
  loop.set_trace([&](SimTime t, std::uint64_t seq) {
    const Key k{t.ns(), seq};
    ASSERT_LT(last, k) << "trace out of (when, seq) order";
    last = k;
    ran.insert(k);
    const auto it = link_of_seq.find(seq);
    if (it != link_of_seq.end()) --in_flight[it->second].first;
  });
  const auto note = [&](std::uint32_t id, sim::NodeId src, sim::NodeId dst, Key key) {
    expected[{id, dst}] = key;
    link_of_seq[key.second] = {src, dst};
    auto& [count, latest] = in_flight[{src, dst}];
    if (count > 0 && key.first < latest) ++cov.overtakes;
    if (count > 0 && key.first >= latest) ++cov.queued;
    latest = count > 0 ? std::max(latest, key.first) : key.first;
    ++count;
  };

  std::uint32_t next_id = 0;
  int budget = static_cast<int>(rng.uniform_int(40, 160));
  const auto frame = [&](std::uint32_t id) {
    Bytes body(static_cast<std::size_t>(rng.uniform_int(4, 1400)), 0);
    for (int b = 0; b < 4; ++b) body[b] = static_cast<std::uint8_t>(id >> (8 * b));
    return body;
  };
  const auto unicast = [&](sim::NodeId src, sim::NodeId dst) {
    if (budget-- <= 0) return;
    const std::uint32_t id = next_id++;
    const std::uint64_t seq = loop.next_seq();
    const SimDuration latency = net.path(src, dst).latency;
    (void)hosts[src]->send(sim::Endpoint{dst, kPort}, kPort, frame(id));
    if (loop.next_seq() == seq) return;  // refused: the host is down or its NIC is full
    ASSERT_EQ(loop.next_seq(), seq + 1);
    const SimTime depart = loop.now() + hosts[src]->nic_backlog_delay();
    note(id, src, dst, {(depart + latency).ns(), seq});
    if (src == dst) ++cov.loopbacks;
  };
  const auto multicast = [&](sim::NodeId src) {
    if (budget-- <= 0) return;
    const std::uint32_t id = next_id++;
    const std::uint64_t seq = loop.next_seq();
    std::vector<std::pair<sim::NodeId, SimDuration>> to;  // in join order, no self-loop
    for (sim::NodeId m : members) {
      if (m != src) to.emplace_back(m, net.path(src, m).latency);
    }
    hosts[src]->send_multicast(group, kPort, frame(id));
    if (loop.next_seq() == seq) return;
    ASSERT_EQ(loop.next_seq(), seq + to.size());
    const SimTime depart = loop.now() + hosts[src]->nic_backlog_delay();
    for (std::size_t i = 0; i < to.size(); ++i) {
      note(id, src, to[i].first, {(depart + to[i].second).ns(), seq + i});
    }
    ++cov.multicasts;
  };
  const auto random_send = [&](sim::NodeId src) {
    if (rng.chance(0.15)) {
      multicast(src);
    } else {
      unicast(src, rng.chance(0.2) ? src : static_cast<sim::NodeId>(rng.uniform_int(0, n - 1)));
    }
  };

  for (sim::NodeId h = 0; h < n; ++h) {
    hosts[h]->bind(kPort, [&, h](const sim::Datagram& d) {
      std::uint32_t id = 0;
      for (int b = 0; b < 4; ++b) id |= std::uint32_t{d.payload[b]} << (8 * b);
      const auto it = expected.find({id, h});
      ASSERT_NE(it, expected.end()) << "delivered a datagram no send reserved";
      ASSERT_EQ(loop.now().ns(), it->second.first) << "message " << id << " at host " << h;
      ASSERT_EQ(loop.current_seq(), it->second.second) << "message " << id << " at host " << h;
      const auto replies = rng.uniform_int(0, 2);
      for (std::int64_t r = 0; r < replies; ++r) random_send(h);
    });
  }

  const auto random_host = [&] { return static_cast<sim::NodeId>(rng.uniform_int(0, n - 1)); };
  const auto at = [&] { return SimTime{duration_us(rng.uniform_int(0, 30'000)).ns()}; };
  const int events = static_cast<int>(rng.uniform_int(10, 40));
  for (int e = 0; e < events; ++e) {
    const double r = rng.uniform();
    if (r < 0.5) {
      loop.schedule_at(at(), [&] {
        const auto burst = rng.uniform_int(1, 6);
        const sim::NodeId src = random_host();
        for (std::int64_t k = 0; k < burst; ++k) random_send(src);
      });
    } else if (r < 0.7) {
      loop.schedule_at(at(), [&] {
        net.set_path(random_host(), random_host(), sim::PathConfig{.latency = random_latency()});
      });
    } else if (r < 0.85) {
      loop.schedule_at(at(), [&] {
        const sim::NodeId a = random_host();
        const sim::NodeId b = random_host();
        const auto token = net.push_path_override(a, b, sim::PathConfig{.latency = random_latency()});
        loop.schedule_after(duration_us(rng.uniform_int(0, 8000)),
                            [&net, a, b, token] { net.pop_path_override(a, b, token); });
      });
    } else {
      loop.schedule_at(at(), [&] {
        sim::Host& h = *hosts[random_host()];
        if (!h.up()) return;
        if (h.nic_queued_bytes() > 0) ++cov.crashes_in_flight;
        h.set_up(false);
        loop.schedule_after(duration_us(rng.uniform_int(0, 3000)), [&h] { h.set_up(true); });
      });
    }
  }
  const auto splits = rng.uniform_int(0, 4);
  for (std::int64_t k = 0; k < splits; ++k) loop.run_until(at());
  loop.run();

  EXPECT_EQ(loop.pending(), 0u);
  for (const auto& [msg, key] : expected) {
    ASSERT_TRUE(ran.contains(key)) << "message " << msg.first << " to host " << msg.second
                                   << " never arrived at its reserved key (" << key.first
                                   << ", " << key.second << ")";
  }
}

TEST(NetworkArrivalOrder, LinkFifoKeepsReservedOrder) {
  std::map<std::string, int> scripts_with;
  const prop::Cases cases = prop::for_each_seed(1200, [&](std::uint64_t seed) {
    ArrivalCoverage cov;
    run_arrival_script(seed, cov);
    scripts_with["queued"] += cov.queued > 0 ? 1 : 0;
    scripts_with["overtakes"] += cov.overtakes > 0 ? 1 : 0;
    scripts_with["loopbacks"] += cov.loopbacks > 0 ? 1 : 0;
    scripts_with["multicasts"] += cov.multicasts > 0 ? 1 : 0;
    scripts_with["crashes_in_flight"] += cov.crashes_in_flight > 0 ? 1 : 0;
  });
  // The generator reaches the corners the property is about.
  cases.expect_more(scripts_with["queued"], 1000, "queued");
  cases.expect_more(scripts_with["overtakes"], 300, "overtakes");
  cases.expect_more(scripts_with["loopbacks"], 1000, "loopbacks");
  cases.expect_more(scripts_with["multicasts"], 900, "multicasts");
  cases.expect_more(scripts_with["crashes_in_flight"], 500, "crashes_in_flight");
}

// ---------------------------------------------------------------------------
// SubscriptionIndex: the cached matcher equals a naive scan.
//
// Both the broker's client table and the fabric's interest table read the
// index on every event, so a match-cache line that outlives a mutation is
// a routing bug. Each seeded script mixes subscribes (doubled ones too),
// unsubscribes (of absent entries too), a subscriber's departure (every
// reference it holds dropped, filter by filter) and reads with a
// random exclusion, over exact, "*", "#" and invalid filters and
// un-normalized topic spellings. Some scripts add a flood of distinct
// topics that overflows the cache. The reference is a list of
// (id, filter, refcount) entries scanned with TopicFilter::matches.
// ---------------------------------------------------------------------------

struct NaiveEntry {
  std::uint32_t id;
  broker::TopicFilter filter;
  int refs;
};

struct NaiveIndex {
  std::vector<NaiveEntry> entries;

  std::vector<NaiveEntry>::iterator find(std::uint32_t id, const broker::TopicFilter& f) {
    return std::find_if(entries.begin(), entries.end(),
                        [&](const NaiveEntry& e) { return e.id == id && e.filter == f; });
  }
  void subscribe(std::uint32_t id, const broker::TopicFilter& f) {
    const auto it = find(id, f);
    if (it == entries.end()) {
      entries.push_back({id, f, 1});
    } else {
      ++it->refs;
    }
  }
  void unsubscribe(std::uint32_t id, const broker::TopicFilter& f) {
    const auto it = find(id, f);
    if (it != entries.end() && --it->refs == 0) entries.erase(it);
  }
  /// A departure: drops every reference `id` holds from `index` one
  /// unsubscribe at a time, as BrokerNode::drop_client does, and here.
  void remove_subscriber(std::uint32_t id, broker::SubscriptionIndex& index) {
    for (const NaiveEntry& e : entries) {
      if (e.id != id) continue;
      for (int r = 0; r < e.refs; ++r) index.unsubscribe(id, e.filter);
    }
    std::erase_if(entries, [&](const NaiveEntry& e) { return e.id == id; });
  }
  [[nodiscard]] std::vector<std::uint32_t> matches(const std::string& topic) const {
    const std::string normalized = broker::normalize_topic(topic);
    std::set<std::uint32_t> ids;
    for (const NaiveEntry& e : entries) {
      if (e.filter.matches(normalized)) ids.insert(e.id);
    }
    return {ids.begin(), ids.end()};
  }
};

/// A topic of 0-3 segments over {a, b, c}, sometimes spelled un-normalized
/// ("a//b/", no leading slash, trailing slash).
std::string random_topic(Rng& rng) {
  static const char* const kSegs[] = {"a", "b", "c"};
  const auto n = rng.uniform_int(0, 3);
  const bool messy = rng.chance(0.3);
  std::string t = messy && rng.chance(0.5) ? "" : "/";
  for (std::int64_t i = 0; i < n; ++i) {
    if (i > 0) t += messy && rng.chance(0.5) ? "//" : "/";
    t += kSegs[rng.uniform_int(0, 2)];
  }
  if (messy && rng.chance(0.5)) t += "/";
  return t;
}

/// An exact, "*", "#" or invalid ("/", "#" not last) filter.
broker::TopicFilter random_filter(Rng& rng) {
  std::string p = random_topic(rng);
  switch (rng.uniform_int(0, 3)) {
    case 0:
      break;  // exact (or the invalid empty filter "/")
    case 1:
      p += rng.chance(0.5) ? "/*" : "/*/b";
      break;
    case 2:
      p += "/#";
      break;
    default:
      p += "/#/c";  // invalid: '#' must be last
      break;
  }
  return broker::TopicFilter(p);
}

/// `topic` under a stray spelling of its normalized form: "/a/b" is read
/// as "a//b/", which the match cache keeps as a line of its own.
std::string respell(const std::string& topic) {
  std::string out;
  for (const std::string& seg : broker::topic_segments(broker::normalize_topic(topic))) {
    out += out.empty() ? seg : "//" + seg;
  }
  return out + "/";
}

TEST(InterestMatch, CachedIndexEqualsNaiveScan) {
  constexpr int kFloodTopics = 4200;  // > the index's 4,096 cache lines
  int stale_reads = 0;  // answer changed since the topic's previous read
  int stray_stale_reads = 0;  // the same, read under a stray spelling
  int exact_edits = 0;  // exact-filter entries added or removed
  int wildcard_edits = 0;  // wildcard-filter entries added or removed
  int removes = 0;
  int drops = 0;  // unsubscribes that dropped an entry's last reference
  const prop::Cases cases = prop::for_each_seed(2000, [&](std::uint64_t seed) {
    Rng rng(seed);
    broker::SubscriptionIndex index;
    NaiveIndex ref;
    std::map<std::string, std::vector<std::uint32_t>> last_seen;
    auto random_id = [&] { return static_cast<std::uint32_t>(rng.uniform_int(0, 7)); };
    auto read = [&](const std::string& topic, int step) {
      const std::vector<std::uint32_t> want = ref.matches(topic);
      ASSERT_EQ(index.matches(topic), want) << "step " << step << ", " << topic;
      const auto exclude = random_id();
      std::vector<std::uint32_t> want_excl = want;
      std::erase(want_excl, exclude);
      ASSERT_EQ(index.matches(topic, exclude), want_excl)
          << "step " << step << ", " << topic << " excl " << exclude;
      auto [it, fresh] = last_seen.try_emplace(topic, want);
      if (!fresh && it->second != want) {
        ++stale_reads;
        if (!broker::is_normalized_topic(topic)) ++stray_stale_reads;
      }
      it->second = want;
    };
    // Counts a mutation that added or removed an entry, by filter kind.
    auto count_edit = [&](const broker::TopicFilter& f, std::size_t before) {
      if (ref.entries.size() == before || !f.valid()) return;
      ++(f.exact() ? exact_edits : wildcard_edits);
    };
    const int steps = static_cast<int>(rng.uniform_int(20, 120));
    for (int step = 0; step < steps; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.25) {
        const broker::TopicFilter f = random_filter(rng);
        const std::uint32_t id = random_id();
        const int times = rng.chance(0.2) ? 2 : 1;
        const std::size_t before = ref.entries.size();
        for (int k = 0; k < times; ++k) {
          index.subscribe(id, f);
          ref.subscribe(id, f);
        }
        count_edit(f, before);
      } else if (roll < 0.45) {
        // Usually an entry that is held; otherwise most likely an absent one.
        const bool held = !ref.entries.empty() && rng.chance(0.7);
        const NaiveEntry e =
            held ? ref.entries[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(ref.entries.size()) - 1))]
                 : NaiveEntry{random_id(), random_filter(rng), 0};
        const std::size_t before = ref.entries.size();
        index.unsubscribe(e.id, e.filter);
        ref.unsubscribe(e.id, e.filter);
        if (ref.entries.size() < before) ++drops;
        count_edit(e.filter, before);
      } else if (roll < 0.52) {
        ref.remove_subscriber(random_id(), index);
        ++removes;
      } else {
        // Half the reads also read the topic under a stray spelling, so an
        // exact mutation of a topic is seen by both of its lines.
        const std::string topic = random_topic(rng);
        read(topic, step);
        if (!HasFatalFailure() && rng.chance(0.5)) read(respell(topic), step);
      }
      if (HasFatalFailure()) return;
      ASSERT_EQ(index.entry_count(), ref.entries.size()) << "step " << step;
    }
    if (seed % 50 != 0) return;
    // Distinct topics past the cache cap, under "/a" so "/a/*" and "/a/#"
    // filters match them, with a mutation every 700 reads.
    for (int k = 0; k < kFloodTopics; ++k) {
      if (k % 700 == 350) {
        ref.remove_subscriber(random_id(), index);
        const std::uint32_t added = random_id();
        index.subscribe(added, broker::TopicFilter("/a/*"));
        ref.subscribe(added, broker::TopicFilter("/a/*"));
      }
      read("/a/" + std::to_string(k), steps + k);
      if (HasFatalFailure()) return;
    }
    for (int k = 0; k < 50; ++k) {
      read(random_topic(rng), steps + kFloodTopics + k);
      if (HasFatalFailure()) return;
    }
  });
  // The scripts reach the corners the property is about.
  cases.expect_more(stale_reads, 5000, "stale_reads");
  cases.expect_more(stray_stale_reads, 1500, "stray_stale_reads");
  cases.expect_more(exact_edits, 4000, "exact_edits");
  cases.expect_more(wildcard_edits, 10000, "wildcard_edits");
  cases.expect_more(removes, 5000, "removes");
  cases.expect_more(drops, 5000, "drops");
}

// ---------------------------------------------------------------------------
// Stream transport: exactly-once, in-order, any (latency, loss) setting.
// ---------------------------------------------------------------------------

struct LinkCase {
  int latency_us;
  double loss;
  int messages;
};

void PrintTo(const LinkCase& c, std::ostream* os) {
  *os << "latency" << c.latency_us << "us_loss" << c.loss << "_messages" << c.messages;
}

class StreamProperty : public ::testing::TestWithParam<LinkCase> {};

TEST_P(StreamProperty, ExactlyOnceInOrder) {
  const LinkCase& c = GetParam();
  sim::EventLoop loop;
  sim::Network net(loop, 7);
  sim::Host& a = net.add_host("a");
  sim::Host& b = net.add_host("b");
  net.set_path(a.id(), b.id(),
               sim::PathConfig{.latency = duration_us(c.latency_us), .loss = c.loss});
  transport::StreamListener listener(b, 80);
  std::vector<int> got;
  transport::StreamConnectionPtr server_conn;
  listener.on_accept([&](transport::StreamConnectionPtr conn) {
    server_conn = conn;
    conn->on_message([&](const Payload& m) { got.push_back(std::stoi(gmmcs::to_string(
        std::span<const std::uint8_t>(m)))); });
  });
  auto conn = transport::StreamConnection::connect(a, sim::Endpoint{b.id(), 80});
  for (int i = 0; i < c.messages; ++i) conn->send(std::to_string(i));
  loop.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(c.messages));
  for (int i = 0; i < c.messages; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(Links, StreamProperty,
                         ::testing::Values(LinkCase{10, 0.0, 50}, LinkCase{5000, 0.0, 50},
                                           LinkCase{100, 0.3, 100}, LinkCase{100, 0.9, 30},
                                           LinkCase{50000, 0.5, 20}));

// ---------------------------------------------------------------------------
// Broker delivery: with random filters/topics, every matching subscriber
// receives exactly once and no one else receives anything.
// ---------------------------------------------------------------------------

class BrokerDelivery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BrokerDelivery, MatchesFiltersExactlyOnce) {
  Rng rng(GetParam());
  sim::EventLoop loop;
  sim::Network net(loop, GetParam());
  broker::BrokerNode node(net.add_host("broker"), 0);
  constexpr int kSubs = 12;
  std::vector<std::unique_ptr<broker::BrokerClient>> subs;
  std::vector<broker::TopicFilter> filters;
  std::vector<std::map<std::string, int>> deliveries(kSubs);
  for (int i = 0; i < kSubs; ++i) {
    std::string pattern;
    int style = static_cast<int>(rng.uniform_int(0, 2));
    std::string a = std::to_string(rng.uniform_int(0, 2));
    std::string b = std::to_string(rng.uniform_int(0, 2));
    if (style == 0) pattern = "/s/" + a + "/" + b;
    if (style == 1) pattern = "/s/*/" + b;
    if (style == 2) pattern = "/s/" + a + "/#";
    filters.emplace_back(pattern);
    subs.push_back(std::make_unique<broker::BrokerClient>(
        net.add_host("sub" + std::to_string(i)), node.stream_endpoint()));
    subs.back()->subscribe(pattern);
    auto* box = &deliveries[static_cast<std::size_t>(i)];
    subs.back()->on_event([box](const broker::Event& ev) { (*box)[ev.topic]++; });
  }
  broker::BrokerClient pub(net.add_host("pub"), node.stream_endpoint());
  loop.run();
  std::vector<std::string> topics;
  for (int i = 0; i < 30; ++i) {
    std::string topic = "/s/" + std::to_string(rng.uniform_int(0, 2)) + "/" +
                        std::to_string(rng.uniform_int(0, 2));
    topics.push_back(topic);
    pub.publish(topic, Bytes(32, 0), broker::QoS::kReliable);
  }
  loop.run();
  for (int i = 0; i < kSubs; ++i) {
    std::map<std::string, int> expected;
    for (const auto& t : topics) {
      if (filters[static_cast<std::size_t>(i)].matches(t)) expected[t]++;
    }
    EXPECT_EQ(deliveries[static_cast<std::size_t>(i)], expected)
        << "subscriber " << i << " filter " << filters[static_cast<std::size_t>(i)].pattern();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrokerDelivery, ::testing::Values(21, 22, 23, 24));

// ---------------------------------------------------------------------------
// ReceiverStats invariants under random loss/reordering/duplication.
// ---------------------------------------------------------------------------

class StatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsProperty, InvariantsHoldUnderChaos) {
  Rng rng(GetParam());
  rtp::ReceiverStats stats(90000);
  std::uint16_t seq = static_cast<std::uint16_t>(rng.next());
  SimTime t{0};
  std::uint64_t pushed = 0;
  for (int i = 0; i < 2000; ++i) {
    t += duration_us(rng.uniform_int(100, 2000));
    if (rng.chance(0.2)) {  // loss: skip sequence numbers
      seq = static_cast<std::uint16_t>(seq + rng.uniform_int(1, 3));
    }
    rtp::RtpPacket p;
    p.sequence = seq++;
    p.timestamp = static_cast<std::uint32_t>(i) * 1800;
    p.ssrc = 1;
    stats.on_packet(p, t, t - duration_us(rng.uniform_int(0, 5000)));
    ++pushed;
    if (rng.chance(0.05)) {  // duplicate
      stats.on_packet(p, t, t);
      ++pushed;
    }
  }
  EXPECT_EQ(stats.received(), pushed);
  EXPECT_GE(stats.expected(), 1u);
  EXPECT_GE(stats.loss_ratio(), 0.0);
  EXPECT_LE(stats.loss_ratio(), 1.0);
  EXPECT_GE(stats.delay_ms().min(), 0.0);
  EXPECT_GE(stats.jitter_ms(), 0.0);
  // fraction_lost_since_last is an 8-bit fixed-point in [0, 1).
  std::uint8_t f = stats.fraction_lost_since_last();
  EXPECT_LE(f / 256.0, 1.0);
}

TEST_P(StatsProperty, PlayoutAccountingBalances) {
  Rng rng(GetParam());
  sim::EventLoop loop;
  rtp::PlayoutBuffer buf(loop, {.delay = duration_ms(30), .clock_rate = 8000});
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    auto arrival = duration_ms(20 * i) + duration_seconds(rng.exponential(0.02));
    loop.schedule_at(SimTime{arrival.ns()}, [&buf, i] {
      rtp::RtpPacket p;
      p.sequence = static_cast<std::uint16_t>(i);
      p.timestamp = 160u * static_cast<std::uint32_t>(i);
      buf.push(p);
    });
  }
  loop.run();
  EXPECT_EQ(buf.played() + buf.dropped_late(), static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty, ::testing::Values(31, 32, 33, 34, 35));

}  // namespace
}  // namespace gmmcs
