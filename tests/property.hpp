// The seeded-property harness (DESIGN.md §13.5): every test that draws its
// cases from a seed runs them through for_each_seed.
//
// Case seeds run upward from GMMCS_PROP_SEED (default 1), and
// GMMCS_PROP_SCALE (default 1) multiplies every count; scale 0 runs only
// the case GMMCS_PROP_SEED names. Every assertion in a case carries its
// seed, and the loop stops at the first failing case with the one command
// line that replays it alone.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gmmcs::prop {

/// `text` as a whole non-negative decimal number, or nothing.
inline std::optional<std::uint64_t> parse_whole(std::string_view text) {
  std::uint64_t v = 0;
  for (const char c : text) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (c < '0' || c > '9' || v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    v = v * 10 + digit;
  }
  return text.empty() ? std::nullopt : std::optional(v);
}

/// What a property loop ran, for the coverage floors checked after it.
struct Cases {
  std::uint64_t scale = 0;  // of a run of every case; 0 for a replay or a failed run

  /// Expects `hits` (cases or events that reached a corner the property
  /// is about) to exceed `floor` per default count of cases; only a run of
  /// every case checks it.
  void expect_more(std::uint64_t hits, std::uint64_t floor, std::string_view what) const {
    if (scale != 0) {
      EXPECT_GT(hits, floor * scale) << what << " at scale " << scale;
    }
  }
};

/// The knob `name`'s value, `fallback` when it is unset, or nothing (and a
/// failed test) when it is not a whole non-negative number.
inline std::optional<std::uint64_t> knob(const char* name, std::uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  const std::optional<std::uint64_t> v = parse_whole(text);
  if (!v) ADD_FAILURE() << name << "='" << text << "' is not a whole non-negative number";
  return v;
}

/// Runs body(seed) for `default_count` cases, as the two knobs scale them,
/// each under a trace naming its seed, and stops after the first case that
/// fails.
template <class Body>
Cases for_each_seed(std::uint64_t default_count, Body&& body) {
  const std::optional<std::uint64_t> first = knob("GMMCS_PROP_SEED", 1);
  const std::optional<std::uint64_t> scale = knob("GMMCS_PROP_SCALE", 1);
  if (!first || !scale) return {};
  if (*scale != 0 && default_count > std::numeric_limits<std::uint64_t>::max() / *scale) {
    ADD_FAILURE() << "GMMCS_PROP_SCALE=" << *scale << " overflows the case count";
    return {};
  }
  const std::uint64_t count = *scale == 0 ? 1 : default_count * *scale;
  std::cout << "[ property ] " << count << " cases from seed " << *first << std::endl;
  const ::testing::TestInfo& test = *::testing::UnitTest::GetInstance()->current_test_info();
  // A test result records a part for each failure, so a new part is a
  // failed case.
  const int parts = test.result()->total_part_count();
  for (std::uint64_t seed = *first; seed - *first < count; ++seed) {
    {
      const ::testing::ScopedTrace trace(__FILE__, __LINE__,
                                         "property case seed " + std::to_string(seed));
      body(seed);
    }
    if (test.result()->total_part_count() == parts) continue;
    const std::vector<std::string> argv = ::testing::internal::GetArgvs();
    ADD_FAILURE() << "replay this case alone: GMMCS_PROP_SEED=" << seed << " GMMCS_PROP_SCALE=0 "
                  << (argv.empty() ? "<test binary>" : argv[0])
                  << " --gtest_filter=" << test.test_suite_name() << "." << test.name();
    return {};
  }
  return {.scale = *scale};
}

/// The files in `dir` with extension `ext`, sorted, so a corpus replays in
/// one order whatever the filesystem's; none when `dir` is missing.
inline std::vector<std::filesystem::path> corpus(const std::filesystem::path& dir,
                                                 std::string_view ext) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ext) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace gmmcs::prop
