// Hierarchical topics and subscription filters.
//
// NaradaBrokering organizes group communication around topics; Global-MMCS
// creates one topic per session stream, e.g. "/xgsp/session/42/video/1".
// Filters support "*" (exactly one segment) and "#" (the rest of the path),
// the classic topic-matching vocabulary of 2003-era pub/sub brokers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace gmmcs::broker {

/// Normalizes a topic path: ensures a leading '/', strips a trailing one,
/// collapses empty segments. "session//42/" -> "/session/42".
std::string normalize_topic(std::string_view raw);

/// True if normalize_topic(topic) == topic, checked without allocating.
bool is_normalized_topic(std::string_view topic);

/// True if `topic` is a well-formed concrete topic (no wildcards).
bool is_valid_topic(std::string_view topic);

/// A parsed subscription filter.
class TopicFilter {
 public:
  /// Parses a filter; wildcards: "*" one segment, "#" all remaining
  /// segments (only valid in last position; invalid filters match nothing).
  explicit TopicFilter(std::string_view pattern);

  /// Allocation-free: walks `topic`'s and the pattern's segments as views.
  [[nodiscard]] bool matches(std::string_view topic) const;
  [[nodiscard]] const std::string& pattern() const { return pattern_; }
  [[nodiscard]] bool valid() const { return valid_; }
  /// True if the filter names a single concrete topic (no wildcards); such
  /// filters match exactly topics whose normalized form equals pattern().
  [[nodiscard]] bool exact() const { return valid_ && !trailing_hash_ && !has_star_; }
  /// Filters compare by normalized pattern (used as map keys).
  auto operator<=>(const TopicFilter& o) const { return pattern_ <=> o.pattern_; }
  bool operator==(const TopicFilter& o) const { return pattern_ == o.pattern_; }

 private:
  /// Normalized; the only copy of the filter's segments.
  std::string pattern_;
  bool trailing_hash_ = false;
  bool has_star_ = false;
  bool valid_ = true;
};

/// Splits a normalized topic into segments.
std::vector<std::string> topic_segments(std::string_view topic);

}  // namespace gmmcs::broker
