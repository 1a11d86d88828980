// Tests for the common substrate: bytes, time, rng, stats, strings, ids,
// the ring queue.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/open_index.hpp"
#include "common/random.hpp"
#include "common/result.hpp"
#include "common/ring.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"
#include "property.hpp"

namespace gmmcs {
namespace {

TEST(Bytes, RoundTripIntegers) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[1], 0x02);
}

TEST(Bytes, ShortReadSetsErrorAndReturnsZero) {
  Bytes data{0x01};
  ByteReader r(data);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
  // Further reads stay zero and flagged.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, LengthPrefixedString) {
  ByteWriter w;
  w.lstr("hello");
  w.lstr("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.lstr(), "hello");
  EXPECT_EQ(r.lstr(), "");
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, RawRoundTrip) {
  ByteWriter w;
  Bytes payload{1, 2, 3, 4, 5};
  w.raw(payload);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.raw(5), payload);
}

TEST(Time, Arithmetic) {
  SimTime t0 = SimTime::zero();
  SimTime t1 = t0 + duration_ms(5);
  EXPECT_EQ((t1 - t0).ms(), 5);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(duration_us(1500).ns(), 1'500'000);
  EXPECT_DOUBLE_EQ(duration_ms(250).to_seconds(), 0.25);
}

TEST(Time, FractionalSeconds) {
  EXPECT_EQ(duration_seconds(0.001).ns(), 1'000'000);
  EXPECT_EQ(duration_seconds(1e-9).ns(), 1);
}

TEST(Time, ToString) {
  EXPECT_EQ(to_string(duration_ms(12)), "12.00ms");
  EXPECT_EQ(to_string(duration_s(2)), "2.000s");
  EXPECT_EQ(to_string(duration_us(500)), "500.0us");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ForkIndependence) {
  Rng a(99);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

// A wide key's predicate is asked only about entries that share its tag.
// Network::link_id keys a link by its host pair: a pair and its reverse
// (or any two pairs with equal a ^ b) must not share a tag, or both
// directions of every link share one probe chain and each lookup reads
// the other's record.
TEST(OpenIndex, ReversedHostPairsGetDistinctTags) {
  auto key = [](std::uint32_t a, std::uint32_t b) { return (std::uint64_t{a} << 32) | b; };
  OpenIndex index;
  std::vector<std::uint64_t> keys;
  for (std::uint32_t a = 0; a < 16; ++a) {
    for (std::uint32_t b = 0; b < 16; ++b) {
      if (a == b) continue;
      index.insert(key(a, b), static_cast<std::uint32_t>(keys.size()));
      keys.push_back(key(a, b));
    }
  }
  int foreign = 0;  // predicate calls about another key's entry
  for (std::uint32_t v = 0; v < keys.size(); ++v) {
    const std::uint32_t found = index.find(keys[v], [&](std::uint32_t cand) {
      if (cand != v) ++foreign;
      return keys[cand] == keys[v];
    });
    EXPECT_EQ(found, v);
  }
  EXPECT_EQ(foreign, 0);
  // A key of at most 32 bits is still its own tag: found by the key alone.
  OpenIndex ports;
  for (std::uint16_t p = 0; p < 1000; ++p) ports.insert(p, p + 7u);
  for (std::uint16_t p = 0; p < 1000; ++p) EXPECT_EQ(ports.find(p), p + 7u);
}

// Ring against a std::deque. Seeded scripts of pushes, pops, in-place
// edits of the front record (a queued dispatch batch peels its items off
// the front that way) and clears, in phases that swing the length, so
// the ring grows and is cleared while its contents wrap round the end of
// its buffer.
TEST(RingProperty, MatchesDequeReference) {
  struct Rec {
    std::uint64_t id;
    std::uint32_t items;  // pops it takes to leave the front
  };
  int wrapped_growths = 0;
  int wrapped_clears = 0;
  int front_edits = 0;
  const prop::Cases cases = prop::for_each_seed(200, [&](std::uint64_t seed) {
    Rng rng(seed);
    Ring<Rec> ring;
    std::deque<Rec> ref;
    std::uint64_t next = 0;
    // Where the ring's front sits in its buffer: tracked only to count
    // how often the script reaches a wrapped ring.
    std::size_t head = 0;
    for (int phase = 0; phase < 8; ++phase) {
      const double push_share = phase % 2 == 0 ? 0.7 : 0.3;
      const auto ops = rng.uniform_int(10, 150);
      for (std::int64_t k = 0; k < ops; ++k) {
        const double r = rng.uniform();
        const std::size_t cap = ring.capacity();
        if (r < push_share) {
          if (ring.size() == cap) {
            if (head != 0) ++wrapped_growths;
            head = 0;
          }
          const Rec rec{next++, static_cast<std::uint32_t>(rng.uniform_int(1, 3))};
          ring.push_back(rec);
          ref.push_back(rec);
        } else if (r < 0.98) {
          if (ref.empty()) continue;
          if (--ring.front().items > 0) {
            --ref.front().items;
            ++front_edits;
          } else {
            ring.pop_front();
            ref.pop_front();
            head = (head + 1) % cap;
          }
        } else {
          if (head + ring.size() > cap) ++wrapped_clears;
          ring.clear();
          ref.clear();
          head = 0;
          ASSERT_EQ(ring.capacity(), cap);  // keeps its buffer
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.empty(), ref.empty());
        ASSERT_GE(ring.capacity(), cap);  // never shrinks
        ASSERT_EQ(ring.capacity() & (ring.capacity() - 1), 0u);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(ring[i].id, ref[i].id) << "index " << i;
          ASSERT_EQ(ring[i].items, ref[i].items);
        }
      }
    }
  });
  // The scripts reach the corners the property is about.
  cases.expect_more(wrapped_growths, 100, "wrapped_growths");
  cases.expect_more(wrapped_clears, 50, "wrapped_clears");
  cases.expect_more(front_edits, 5000, "front_edits");
}

// The harness the seeded properties share (property.hpp): its two knobs
// take whole non-negative numbers only, the scale multiplies the default
// count and its coverage floors, and scale 0 runs exactly the named case.
TEST(PropertyHarness, ParsesScalesAndReplays) {
  EXPECT_EQ(prop::parse_whole("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "x", "5OO", "-1", "+1", " 1", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(prop::parse_whole(bad).has_value()) << "'" << bad << "'";
  }
  // The knobs this binary was run with (unset reads as the default), put
  // back at the end.
  const std::string given_seed = std::to_string(prop::knob("GMMCS_PROP_SEED", 1).value_or(1));
  const std::string given_scale = std::to_string(prop::knob("GMMCS_PROP_SCALE", 1).value_or(1));
  std::vector<std::uint64_t> seeds;
  const auto run = [&](const char* first, const char* scale, std::uint64_t default_count) {
    seeds.clear();
    ::setenv("GMMCS_PROP_SEED", first, 1);
    ::setenv("GMMCS_PROP_SCALE", scale, 1);
    return prop::for_each_seed(default_count, [&](std::uint64_t seed) { seeds.push_back(seed); });
  };
  EXPECT_NONFATAL_FAILURE(run("1", "x", 25),
                          "GMMCS_PROP_SCALE='x' is not a whole non-negative number");
  EXPECT_NONFATAL_FAILURE(run("5OO", "1", 25),
                          "GMMCS_PROP_SEED='5OO' is not a whole non-negative number");
  EXPECT_NONFATAL_FAILURE(run("1", "18446744073709551615", 2), "overflows the case count");
  EXPECT_EQ(seeds, std::vector<std::uint64_t>{});

  EXPECT_EQ(run("5", "2", 3).scale, 2u);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{5, 6, 7, 8, 9, 10}));
  // A floor of 250 per 25 cases asks for more than 25,000 at scale 100.
  const prop::Cases deep = run("1", "100", 25);
  EXPECT_EQ(seeds.size(), 2500u);
  EXPECT_NONFATAL_FAILURE(deep.expect_more(25'000, 250, "corner"), "corner at scale 100");
  deep.expect_more(25'001, 250, "corner");

  const prop::Cases replay = run("1234", "0", 2000);
  EXPECT_EQ(seeds, std::vector<std::uint64_t>{1234});
  replay.expect_more(0, 250, "skipped by a replay");
  ::setenv("GMMCS_PROP_SEED", given_seed.c_str(), 1);
  ::setenv("GMMCS_PROP_SCALE", given_scale.c_str(), 1);
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, HistogramPercentile) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(0.9), 90.0, 1.5);
}

TEST(Stats, HistogramClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Stats, SeriesDownsampleAverages) {
  Series s;
  for (int i = 0; i < 100; ++i) s.add(i, 2.0 * i);
  Series d = s.downsample(10);
  EXPECT_EQ(d.points().size(), 10u);
  EXPECT_NEAR(d.points()[0].x, 4.5, 1e-9);
  EXPECT_NEAR(d.points()[0].y, 9.0, 1e-9);
  EXPECT_NEAR(d.mean_y(), s.mean_y(), 1e-9);
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitN) {
  auto parts = split_n("INVITE sip:alice@x SIP/2.0", ' ', 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "INVITE");
  EXPECT_EQ(parts[2], "SIP/2.0");
}

TEST(Strings, SplitLinesHandlesCrlf) {
  auto lines = split_lines("a\r\nb\nc");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(to_lower("Content-Type"), "content-type");
  EXPECT_TRUE(iequals("Via", "VIA"));
  EXPECT_FALSE(iequals("Via", "Vial"));
}

TEST(Strings, StartsEndsJoin) {
  EXPECT_TRUE(starts_with("sip:alice", "sip:"));
  EXPECT_TRUE(ends_with("file.xml", ".xml"));
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
}

TEST(Result, ValueAndError) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad = fail<int>("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_THROW(static_cast<void>(bad.value()), std::logic_error);
}

TEST(Ids, MonotonicAndTagged) {
  IdGenerator gen;
  EXPECT_EQ(gen.next(), 1u);
  EXPECT_EQ(gen.next(), 2u);
  EXPECT_EQ(gen.next_tagged("sess"), "sess-3");
}

}  // namespace
}  // namespace gmmcs
