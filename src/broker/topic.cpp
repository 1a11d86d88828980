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

TopicFilter::TopicFilter(std::string_view pattern)
    : pattern_(normalize_topic(pattern)), segments_(topic_segments(pattern_)) {
  if (segments_.empty()) {
    valid_ = false;
    return;
  }
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i] == "*") has_star_ = true;
    if (segments_[i] == "#") {
      if (i + 1 != segments_.size()) {
        valid_ = false;  // '#' only allowed as the last segment
        return;
      }
      trailing_hash_ = true;
      segments_.pop_back();
      break;
    }
  }
}

bool TopicFilter::matches(std::string_view topic) const {
  if (!valid_) return false;
  std::size_t i = 0;
  std::string_view seg;
  while (next_segment(topic, seg)) {
    // Segments past the filter's end match only under a trailing '#'.
    if (i == segments_.size()) return trailing_hash_;
    if (segments_[i] != "*" && segments_[i] != seg) return false;
    ++i;
  }
  return i == segments_.size();
}

}  // namespace gmmcs::broker
