// Self-test of the perfbench measurement helpers: histogram quantiles and
// merging, copy accounting with unmeasured receivers, the counting
// allocator, the slice envelope and the median. Exits non-zero if any
// check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "ledger.hpp"

namespace {

int g_failures = 0;

/// Exact nearest-rank quantile of a sample: the reference the histogram
/// is checked against.
double exact_quantile(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest line %d: FAILED %s\n", line, what);
}
#define CHECK(cond) check((cond), #cond, __LINE__)

void histogram_small_values_are_exact() {
  perfbench::LogHistogram h;
  std::vector<std::uint64_t> xs;
  for (std::uint64_t v = 1000; v >= 1; --v) xs.push_back(v * 3);  // all below 2^kSubBits
  for (std::uint64_t v : xs) h.add(v);
  CHECK(h.count() == 1000);
  for (double q : {0.0, 0.5, 0.99, 0.999, 1.0}) CHECK(h.quantile(q) == exact_quantile(xs, q));
  CHECK(h.quantile(0.5) == 1500.0);
  CHECK(h.mean() == 1501.5);
  CHECK(h.min() == 3 && h.max() == 3000);
}

void histogram_buckets_stay_within_relative_error() {
  // Delays from 1 us to ~1 s spread log-uniformly, as nanoseconds.
  std::vector<std::uint64_t> xs;
  perfbench::LogHistogram h;
  std::uint64_t state = 12345;
  for (int i = 0; i < 200000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    double u = static_cast<double>(state >> 11) / 9007199254740992.0;
    auto v = static_cast<std::uint64_t>(std::pow(10.0, 3.0 + 6.0 * u));
    xs.push_back(v);
    h.add(v);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    double exact = exact_quantile(xs, q);
    double approx = h.quantile(q);
    CHECK(std::abs(approx - exact) <= exact / static_cast<double>(perfbench::LogHistogram::kSub));
  }
  CHECK(h.quantile(1.0) == static_cast<double>(*std::max_element(xs.begin(), xs.end())));
}

void histogram_bucket_edges_are_contiguous() {
  using H = perfbench::LogHistogram;
  for (std::size_t i = 0; i + 1 < 40 * H::kSub; ++i) {
    CHECK(H::lower(i) + H::width(i) == H::lower(i + 1));
    CHECK(H::index(H::lower(i)) == i);
    CHECK(H::index(H::lower(i) + H::width(i) - 1) == i);
  }
}

void histogram_merge_equals_single_pass() {
  perfbench::LogHistogram a;
  perfbench::LogHistogram b;
  perfbench::LogHistogram all;
  for (std::uint64_t v = 0; v < 50000; ++v) {
    std::uint64_t x = v * v % 9999991;
    (v % 3 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  CHECK(a.count() == all.count());
  CHECK(a.mean() == all.mean());
  CHECK(a.min() == all.min() && a.max() == all.max());
  for (double q : {0.01, 0.5, 0.99, 0.999}) CHECK(a.quantile(q) == all.quantile(q));
  perfbench::LogHistogram empty;
  CHECK(empty.quantile(0.5) == 0.0 && empty.mean() == 0.0);
  a.merge(empty);
  CHECK(a.count() == all.count());
}

void ledger_excludes_unmeasured_receivers() {
  perfbench::CopyLedger l;
  std::size_t s0 = l.add_stream();
  std::size_t s1 = l.add_stream();
  l.expect(s0, 3);
  l.expect(s1, 2);
  for (int i = 0; i < 3; ++i) l.observe(s0);
  l.observe(s1);
  // Zapper copies are host work only: they neither pay for s1's loss nor
  // count as surplus.
  for (int i = 0; i < 10; ++i) l.observe_unmeasured();
  CHECK(l.unmeasured() == 10);
  CHECK(l.expected_total() == 5);
  CHECK(l.observed_total() == 4);
  CHECK(l.missing_total() == 1);
  CHECK(!l.check(/*counted_drops=*/0, 1).empty());  // silent loss
  CHECK(l.check(/*counted_drops=*/1, 1).empty());   // one drop, one copy
}

void ledger_flags_duplicates_and_unexplained_loss() {
  perfbench::CopyLedger l;
  std::size_t s0 = l.add_stream();
  std::size_t s1 = l.add_stream();
  l.expect(s0, 1);
  l.expect(s1, 4);
  l.observe(s0);
  l.observe(s0);  // duplicate copy
  CHECK(!l.check(100, 100).empty());
  perfbench::CopyLedger m;
  std::size_t t = m.add_stream();
  m.expect(t, 10);
  for (int i = 0; i < 6; ++i) m.observe(t);
  CHECK(!m.check(/*counted_drops=*/2, /*copies_per_drop=*/1).empty());
  CHECK(m.check(/*counted_drops=*/2, /*copies_per_drop=*/2).empty());
}

void allocation_counter_counts_this_thread() {
  perfbench::AllocCount a0 = perfbench::thread_allocs();
  auto p = std::make_unique<std::uint64_t[]>(64);
  auto q = std::make_unique<int>(7);
  perfbench::AllocCount a1 = perfbench::thread_allocs();
  CHECK(a1.allocs - a0.allocs == 2);
  CHECK(a1.bytes - a0.bytes == 64 * sizeof(std::uint64_t) + sizeof(int));
  CHECK(p[0] == 0 && *q == 7);
}

void envelope_takes_each_slice_fastest() {
  CHECK(perfbench::envelope_sum({{3, 1, 4}, {2, 5, 1}, {9, 2, 2}}) == 2.0 + 1.0 + 1.0);
  CHECK(perfbench::envelope_sum({{1, 2}}) == 3.0);
  CHECK(perfbench::envelope_sum({}) == 0.0);
  CHECK(perfbench::envelope_sum({{1, 2}, {1}}) == 0.0);  // slices disagree
}

void median_of_odd_and_even_samples() {
  CHECK(perfbench::median({3, 1, 2}) == 2.0);
  CHECK(perfbench::median({4, 1, 3, 2}) == 2.5);
  CHECK(perfbench::median({}) == 0.0);
}

}  // namespace

int main() {
  histogram_small_values_are_exact();
  histogram_buckets_stay_within_relative_error();
  histogram_bucket_edges_are_contiguous();
  histogram_merge_equals_single_pass();
  ledger_excludes_unmeasured_receivers();
  ledger_flags_duplicates_and_unexplained_loss();
  allocation_counter_counts_this_thread();
  envelope_takes_each_slice_fastest();
  median_of_odd_and_even_samples();
  if (g_failures) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
