// Tests for the routing fast path index: exact/wildcard matching parity
// with TopicFilter, refcounting, cache invalidation and exclusion.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "broker/subscription_index.hpp"
#include "broker/topic.hpp"

namespace gmmcs::broker {
namespace {

using Ids = std::vector<SubscriptionIndex::SubscriberId>;

TEST(SubscriptionIndex, ExactFilterMatchesOnlyItsTopic) {
  SubscriptionIndex idx;
  idx.subscribe(1, TopicFilter("/s/1/video"));
  idx.subscribe(2, TopicFilter("/s/1/audio"));
  EXPECT_EQ(idx.matches("/s/1/video"), (Ids{1}));
  EXPECT_EQ(idx.matches("/s/1/audio"), (Ids{2}));
  EXPECT_EQ(idx.matches("/s/1"), (Ids{}));
  EXPECT_EQ(idx.matches("/s/1/video/hd"), (Ids{}));
  EXPECT_EQ(idx.exact_topic_count(), 2u);
  EXPECT_EQ(idx.wildcard_filter_count(), 0u);
}

TEST(SubscriptionIndex, ExactLookupNormalizesTopic) {
  SubscriptionIndex idx;
  idx.subscribe(1, TopicFilter("s/1/video/"));
  EXPECT_EQ(idx.matches("/s/1/video"), (Ids{1}));
  EXPECT_EQ(idx.matches("//s//1/video/"), (Ids{1}));
}

TEST(SubscriptionIndex, StarMatchesOneSegment) {
  SubscriptionIndex idx;
  idx.subscribe(5, TopicFilter("/s/*/video"));
  EXPECT_EQ(idx.matches("/s/1/video"), (Ids{5}));
  EXPECT_EQ(idx.matches("/s/99/video"), (Ids{5}));
  EXPECT_EQ(idx.matches("/s/1/2/video"), (Ids{}));
  EXPECT_EQ(idx.exact_topic_count(), 0u);
  EXPECT_EQ(idx.wildcard_filter_count(), 1u);
}

TEST(SubscriptionIndex, HashMatchesRest) {
  SubscriptionIndex idx;
  idx.subscribe(3, TopicFilter("/s/1/#"));
  EXPECT_EQ(idx.matches("/s/1/video"), (Ids{3}));
  EXPECT_EQ(idx.matches("/s/1/audio/stereo"), (Ids{3}));
  EXPECT_EQ(idx.matches("/s/1"), (Ids{3}));  // zero remaining segments
  EXPECT_EQ(idx.matches("/s/2/video"), (Ids{}));
}

TEST(SubscriptionIndex, InvalidFilterNeverMatches) {
  SubscriptionIndex idx;
  idx.subscribe(1, TopicFilter("/a/#/b"));
  EXPECT_EQ(idx.matches("/a/x/b"), (Ids{}));
  EXPECT_EQ(idx.entry_count(), 1u);  // still refcounted for symmetry
  idx.unsubscribe(1, TopicFilter("/a/#/b"));
  EXPECT_EQ(idx.entry_count(), 0u);
}

TEST(SubscriptionIndex, MergesExactAndWildcardSortedDeduplicated) {
  SubscriptionIndex idx;
  idx.subscribe(9, TopicFilter("/s/1/video"));
  idx.subscribe(2, TopicFilter("/s/#"));
  idx.subscribe(5, TopicFilter("/s/*/video"));
  // Client 9 also holds a wildcard that matches the same topic: one entry.
  idx.subscribe(9, TopicFilter("/s/#"));
  EXPECT_EQ(idx.matches("/s/1/video"), (Ids{2, 5, 9}));
}

TEST(SubscriptionIndex, ExclusionDropsPublisher) {
  SubscriptionIndex idx;
  idx.subscribe(1, TopicFilter("/t"));
  idx.subscribe(2, TopicFilter("/t"));
  EXPECT_EQ(idx.matches("/t", 1), (Ids{2}));
  EXPECT_EQ(idx.matches("/t", 2), (Ids{1}));
  EXPECT_EQ(idx.matches("/t", 0), (Ids{1, 2}));  // no client 0 exists
}

TEST(SubscriptionIndex, RefcountNeedsBalancedUnsubscribes) {
  // BrokerNetwork advertises once per subscribing client: two clients on
  // one broker -> refcount 2; one unsubscribe must not clear interest.
  SubscriptionIndex idx;
  TopicFilter f("/t");
  idx.subscribe(7, f);
  idx.subscribe(7, f);
  idx.unsubscribe(7, f);
  EXPECT_EQ(idx.matches("/t"), (Ids{7}));
  idx.unsubscribe(7, f);
  EXPECT_EQ(idx.matches("/t"), (Ids{}));
}

TEST(SubscriptionIndex, CacheInvalidatedOnSubscribe) {
  SubscriptionIndex idx;
  idx.subscribe(1, TopicFilter("/t"));
  EXPECT_EQ(idx.matches("/t"), (Ids{1}));
  auto gen = idx.generation();
  idx.subscribe(2, TopicFilter("/t"));
  EXPECT_GT(idx.generation(), gen);
  EXPECT_EQ(idx.matches("/t"), (Ids{1, 2}));
}

TEST(SubscriptionIndex, CacheInvalidatedOnUnsubscribe) {
  SubscriptionIndex idx;
  idx.subscribe(1, TopicFilter("/t"));
  idx.subscribe(2, TopicFilter("/t"));
  EXPECT_EQ(idx.matches("/t"), (Ids{1, 2}));
  idx.unsubscribe(1, TopicFilter("/t"));
  EXPECT_EQ(idx.matches("/t"), (Ids{2}));
}

TEST(SubscriptionIndex, CacheInvalidatedOnDisconnect) {
  SubscriptionIndex idx;
  idx.subscribe(1, TopicFilter("/t"));
  idx.subscribe(1, TopicFilter("/s/#"));
  idx.subscribe(2, TopicFilter("/t"));
  EXPECT_EQ(idx.matches("/t"), (Ids{1, 2}));
  EXPECT_EQ(idx.matches("/s/x"), (Ids{1}));
  // A departing subscriber drops each of its filters (BrokerNode::drop_client).
  idx.unsubscribe(1, TopicFilter("/t"));
  idx.unsubscribe(1, TopicFilter("/s/#"));
  EXPECT_EQ(idx.matches("/t"), (Ids{2}));
  EXPECT_EQ(idx.matches("/s/x"), (Ids{}));
  EXPECT_EQ(idx.entry_count(), 1u);
}

TEST(SubscriptionIndex, SteadyStateHitsCache) {
  SubscriptionIndex idx;
  idx.subscribe(1, TopicFilter("/t"));
  (void)idx.matches("/t");  // miss: builds the line
  auto misses = idx.cache_misses();
  for (int i = 0; i < 100; ++i) (void)idx.matches("/t");
  EXPECT_EQ(idx.cache_misses(), misses);
  EXPECT_GE(idx.cache_hits(), 100u);
}

TEST(SubscriptionIndex, EmptyResultIsCachedToo) {
  SubscriptionIndex idx;
  idx.subscribe(1, TopicFilter("/t"));
  (void)idx.matches("/other");
  auto misses = idx.cache_misses();
  (void)idx.matches("/other");
  EXPECT_EQ(idx.cache_misses(), misses);
}

}  // namespace
}  // namespace gmmcs::broker
