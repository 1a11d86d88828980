#include "broker/topic.hpp"

namespace gmmcs::broker {

namespace {
/// Pops the next non-empty '/'-separated segment off the front of `rest`
/// into `seg`; false once none is left. Views only: nothing allocates.
bool next_segment(std::string_view& rest, std::string_view& seg) {
  while (!rest.empty()) {
    const std::size_t slash = rest.find('/');
    seg = rest.substr(0, slash);
    rest = slash == std::string_view::npos ? std::string_view{} : rest.substr(slash + 1);
    if (!seg.empty()) return true;
  }
  return false;
}
}  // namespace

std::string normalize_topic(std::string_view raw) {
  std::string out = "/";
  std::string_view seg;
  while (next_segment(raw, seg)) {
    if (out.size() > 1) out += '/';
    out += seg;
  }
  return out;
}

bool is_normalized_topic(std::string_view topic) {
  if (topic.empty() || topic.front() != '/') return false;
  if (topic.size() > 1 && topic.back() == '/') return false;
  return topic.find("//") == std::string_view::npos;
}

std::vector<std::string> topic_segments(std::string_view topic) {
  std::vector<std::string> out;
  std::string_view seg;
  while (next_segment(topic, seg)) out.emplace_back(seg);
  return out;
}

bool is_valid_topic(std::string_view topic) {
  if (topic.empty()) return false;
  auto segs = topic_segments(topic);
  if (segs.empty()) return false;
  for (const auto& s : segs) {
    if (s == "*" || s == "#") return false;
  }
  return true;
}

TopicFilter::TopicFilter(std::string_view pattern) : pattern_(normalize_topic(pattern)) {
  std::string_view rest = pattern_;
  std::string_view seg;
  if (!next_segment(rest, seg)) {
    valid_ = false;
    return;
  }
  do {
    if (seg == "*") has_star_ = true;
    if (seg == "#") {
      trailing_hash_ = rest.empty();
      valid_ = trailing_hash_;  // '#' only allowed as the last segment
      return;
    }
  } while (next_segment(rest, seg));
}

bool TopicFilter::matches(std::string_view topic) const {
  if (!valid_) return false;
  // One pass over both strings. pattern_ is normalized: one '/' before
  // each segment. The topic need not be, so runs of '/' are skipped.
  const std::string_view pat = pattern_;
  const std::size_t n = pat.size();
  const std::size_t m = topic.size();
  std::size_t i = 1;  // start of the pattern's next segment; n once none is left
  std::size_t j = 0;
  for (;;) {
    while (j < m && topic[j] == '/') ++j;
    // A '#' segment (valid, so the last) matches the rest, even nothing.
    const bool hash = i + 1 == n && pat[i] == '#';
    if (j == m) return i == n || hash;
    if (i == n) return false;  // the topic has more segments than the filter
    if (hash) return true;
    if (pat[i] == '*' && (i + 1 == n || pat[i + 1] == '/')) {
      ++i;
      while (j < m && topic[j] != '/') ++j;
    } else {
      for (; i < n && pat[i] != '/'; ++i, ++j) {
        if (j == m || topic[j] != pat[i]) return false;
      }
      if (j < m && topic[j] != '/') return false;
    }
    if (i < n) ++i;  // past the '/'
  }
}

}  // namespace gmmcs::broker
