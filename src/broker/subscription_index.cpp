#include "broker/subscription_index.hpp"

#include <algorithm>

namespace gmmcs::broker {

namespace {
/// Cached distinct-topic lines before the cache resets. Media workloads
/// publish on a bounded set of session topics, so this is never hit in
/// practice; it only bounds memory against adversarial topic churn.
constexpr std::size_t kMaxCacheLines = 4096;

/// `id`'s entry in `refs`, or where it would go.
template <class Refs>
auto find_ref(Refs& refs, std::uint32_t id) {
  return std::lower_bound(refs.begin(), refs.end(), id,
                          [](const auto& entry, std::uint32_t v) { return entry.first < v; });
}

/// Adds one reference to `id`; true if that made a new entry.
template <class Refs>
bool add_ref(Refs& refs, std::uint32_t id) {
  auto it = find_ref(refs, id);
  if (it != refs.end() && it->first == id) return ++it->second == 1;
  refs.insert(it, {id, 1});
  return true;
}

/// Drops one reference to `id`: 0 if it held none, else 1, or 2 if that
/// removed its entry.
template <class Refs>
int drop_ref(Refs& refs, std::uint32_t id) {
  auto it = find_ref(refs, id);
  if (it == refs.end() || it->first != id) return 0;
  if (--it->second > 0) return 1;
  refs.erase(it);
  return 2;
}
}  // namespace

void SubscriptionIndex::subscribe(SubscriberId id, const TopicFilter& filter) {
  // A refcount that becomes 1 is a new (subscriber, filter) entry, and only
  // a new entry changes what a topic matches.
  if (!filter.valid()) {
    if (add_ref(invalid_[filter.pattern()], id)) ++entries_;
    return;  // an invalid filter matches nothing: no cached line changes
  }
  bool added = false;
  if (filter.exact()) {
    added = add_ref(exact_[filter.pattern()], id);
  } else {
    auto it = std::find_if(wildcards_.begin(), wildcards_.end(),
                           [&](const WildcardEntry& e) { return e.filter == filter; });
    if (it == wildcards_.end()) {
      wildcards_.push_back(WildcardEntry{filter, {}});
      it = std::prev(wildcards_.end());
    }
    added = add_ref(it->refs, id);
  }
  if (added) {
    ++entries_;
    invalidate(filter);
  }
}

void SubscriptionIndex::unsubscribe(SubscriberId id, const TopicFilter& filter) {
  // True if that removed an entry (its last reference).
  auto drop_from = [&](PatternMap& table) {
    auto it = table.find(filter.pattern());
    if (it == table.end() || drop_ref(it->second, id) != 2) return false;
    if (it->second.empty()) table.erase(it);
    return true;
  };
  if (!filter.valid()) {
    if (drop_from(invalid_)) --entries_;
    return;
  }
  bool removed = false;
  if (filter.exact()) {
    removed = drop_from(exact_);
  } else {
    auto it = std::find_if(wildcards_.begin(), wildcards_.end(),
                           [&](const WildcardEntry& e) { return e.filter == filter; });
    if (it == wildcards_.end() || drop_ref(it->refs, id) != 2) return;
    if (it->refs.empty()) wildcards_.erase(it);
    removed = true;
  }
  if (removed) {
    --entries_;
    invalidate(filter);
  }
}

const std::vector<SubscriptionIndex::SubscriberId>& SubscriptionIndex::matches(
    std::string_view topic) const {
  if (cache_.size() > kMaxCacheLines) {
    cache_.clear();
    stray_lines_.clear();
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
    if (!is_normalized_topic(topic)) stray_lines_.push_back(at);
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

void SubscriptionIndex::invalidate(const TopicFilter& filter) {
  if (!filter.exact()) {
    ++generation_;
    return;
  }
  // An exact filter changes the line of one normalized topic, its pattern,
  // which one probe finds; a stray spelling of that topic has a line of
  // its own that no probe by pattern finds, so every stray line goes too.
  const std::string& topic = filter.pattern();
  const std::uint32_t at = cache_.find(std::hash<std::string_view>{}(topic),
                                       [&](std::uint32_t l) { return lines_[l]->topic == topic; });
  if (at != OpenIndex::kNone) lines_[at]->generation = 0;
  for (std::uint32_t l : stray_lines_) lines_[l]->generation = 0;
}

}  // namespace gmmcs::broker
