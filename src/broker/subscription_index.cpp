#include "broker/subscription_index.hpp"

#include <algorithm>

namespace gmmcs::broker {

namespace {
/// Cached distinct-topic lines before the cache resets. Media workloads
/// publish on a bounded set of session topics, so this is never hit in
/// practice; it only bounds memory against adversarial topic churn.
constexpr std::size_t kMaxCacheLines = 4096;
}  // namespace

void SubscriptionIndex::subscribe(SubscriberId id, const TopicFilter& filter) {
  // A refcount that becomes 1 is a new (subscriber, filter) entry.
  if (!filter.valid()) {
    if (++invalid_[filter.pattern()][id] == 1) ++entries_;
  } else if (filter.exact()) {
    if (++exact_[filter.pattern()][id] == 1) ++entries_;
  } else {
    auto it = std::find_if(wildcards_.begin(), wildcards_.end(),
                           [&](const WildcardEntry& e) { return e.filter == filter; });
    if (it == wildcards_.end()) {
      wildcards_.push_back(WildcardEntry{filter, {}});
      it = std::prev(wildcards_.end());
    }
    if (++it->refs[id] == 1) ++entries_;
  }
  bump_generation();
}

void SubscriptionIndex::unsubscribe(SubscriberId id, const TopicFilter& filter) {
  auto drop_from = [&](auto& table) {
    auto it = table.find(filter.pattern());
    if (it == table.end()) return;
    auto rit = it->second.find(id);
    if (rit == it->second.end()) return;
    if (--rit->second <= 0) {
      it->second.erase(rit);
      --entries_;
    }
    if (it->second.empty()) table.erase(it);
    bump_generation();
  };
  if (!filter.valid()) {
    drop_from(invalid_);
  } else if (filter.exact()) {
    drop_from(exact_);
  } else {
    auto it = std::find_if(wildcards_.begin(), wildcards_.end(),
                           [&](const WildcardEntry& e) { return e.filter == filter; });
    if (it == wildcards_.end()) return;
    auto rit = it->refs.find(id);
    if (rit == it->refs.end()) return;
    if (--rit->second <= 0) {
      it->refs.erase(rit);
      --entries_;
    }
    if (it->refs.empty()) wildcards_.erase(it);
    bump_generation();
  }
}

const std::vector<SubscriptionIndex::SubscriberId>& SubscriptionIndex::matches(
    std::string_view topic) const {
  if (cache_.size() > kMaxCacheLines) {
    cache_.clear();
    lines_used_ = 0;
  }
  const std::uint64_t hash = std::hash<std::string_view>{}(topic);
  std::uint32_t at = cache_.find(hash, [&](std::uint32_t l) { return lines_[l]->topic == topic; });
  if (at == OpenIndex::kNone) {
    at = static_cast<std::uint32_t>(lines_used_++);
    if (at == lines_.size()) lines_.push_back(std::make_unique<CacheLine>());
    lines_[at]->topic.assign(topic);
    // generation_ starts at 1, so a fresh line (generation 0) can never
    // masquerade as current.
    lines_[at]->generation = 0;
    cache_.insert(hash, at);
  }
  CacheLine& line = *lines_[at];
  if (line.generation == generation_) {
    ++cache_hits_;
    return line.ids;
  }
  ++cache_misses_;
  line.generation = generation_;
  line.ids.clear();
  // Publishers normalize their topics, so a miss reads the topic as it
  // came and allocates only to respell a stray spelling.
  std::string respelled;
  const std::string_view normalized =
      is_normalized_topic(topic) ? topic : std::string_view(respelled = normalize_topic(topic));
  if (auto it = exact_.find(normalized); it != exact_.end()) {
    for (const auto& [id, refs] : it->second) line.ids.push_back(id);
  }
  if (!wildcards_.empty()) {
    for (const auto& entry : wildcards_) {
      if (!entry.filter.matches(normalized)) continue;
      for (const auto& [id, refs] : entry.refs) line.ids.push_back(id);
    }
    std::sort(line.ids.begin(), line.ids.end());
    line.ids.erase(std::unique(line.ids.begin(), line.ids.end()), line.ids.end());
  }
  return line.ids;
}

const std::vector<SubscriptionIndex::SubscriberId>& SubscriptionIndex::matches(
    std::string_view topic, SubscriberId exclude) const {
  const std::vector<SubscriberId>& all = matches(topic);
  excluded_.clear();
  for (SubscriberId id : all) {
    if (id != exclude) excluded_.push_back(id);
  }
  return excluded_;
}

void SubscriptionIndex::bump_generation() {
  ++generation_;
}

}  // namespace gmmcs::broker
