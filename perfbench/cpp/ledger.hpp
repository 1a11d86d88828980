// Measurement helpers of the perfbench harness: a mergeable log-bucket
// histogram, per-stream copy accounting, and the counting allocator's
// read side. Header-only so the self-test binary links nothing else.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Histogram of non-negative integer samples (nanoseconds, counts) with
/// log-linear buckets: values below 2^kSubBits land in exact unit buckets,
/// larger values in 2^kSubBits sub-buckets per power of two, so any
/// quantile is within 1/2^kSubBits (0.025%) of the exact one. Count, sum,
/// min and max are exact. Two histograms merge by adding bucket counts,
/// which is what makes per-receiver or per-rep histograms combinable.
class LogHistogram {
 public:
  static constexpr int kSubBits = 12;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  void add(std::uint64_t v) {
    std::size_t i = index(v);
    if (i >= counts_.size()) counts_.resize(i + 1, 0);
    ++counts_[i];
    ++count_;
    sum_ += static_cast<double>(v);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void merge(const LogHistogram& o) {
    if (o.counts_.size() > counts_.size()) counts_.resize(o.counts_.size(), 0);
    for (std::size_t i = 0; i < o.counts_.size(); ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }

  /// Nearest-rank quantile (q in [0, 1]): the midpoint of the bucket
  /// holding the ceil(q * count)-th smallest sample, clamped to [min, max];
  /// the largest rank reads the exact max.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    if (rank == count_) return static_cast<double>(max_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        double mid = static_cast<double>(lower(i)) + static_cast<double>(width(i) - 1) / 2.0;
        return std::clamp(mid, static_cast<double>(min_), static_cast<double>(max_));
      }
    }
    return static_cast<double>(max_);
  }

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    int shift = std::bit_width(v) - 1 - kSubBits;
    return static_cast<std::size_t>((static_cast<std::uint64_t>(shift) + 1) * kSub +
                                    ((v >> shift) - kSub));
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    std::uint64_t shift = i / kSub - 1;
    return (kSub + i % kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Copy accounting for the measured population. A stream is one
/// (receiver, source) pair that was subscribed for the whole media phase;
/// it expects every packet its source emitted. Copies delivered to
/// unmeasured receivers (the churn workload's zappers, whose subscription
/// windows move) are counted as host work but never as loss.
class CopyLedger {
 public:
  /// Registers a measured stream and returns its index.
  std::size_t add_stream() {
    expected_.push_back(0);
    observed_.push_back(0);
    return expected_.size() - 1;
  }
  void expect(std::size_t stream, std::uint64_t n) { expected_[stream] += n; }
  void observe(std::size_t stream) { ++observed_[stream]; }
  void observe_unmeasured() { ++unmeasured_; }

  [[nodiscard]] std::size_t streams() const { return expected_.size(); }
  [[nodiscard]] std::uint64_t expected(std::size_t s) const { return expected_[s]; }
  [[nodiscard]] std::uint64_t observed(std::size_t s) const { return observed_[s]; }
  [[nodiscard]] std::uint64_t unmeasured() const { return unmeasured_; }
  [[nodiscard]] std::uint64_t expected_total() const { return sum(expected_); }
  [[nodiscard]] std::uint64_t observed_total() const { return sum(observed_); }
  /// Expected copies that never arrived (streams with surplus copies do
  /// not offset other streams' losses).
  [[nodiscard]] std::uint64_t missing_total() const {
    std::uint64_t m = 0;
    for (std::size_t s = 0; s < expected_.size(); ++s) {
      if (observed_[s] < expected_[s]) m += expected_[s] - observed_[s];
    }
    return m;
  }

  /// Empty when the books balance, else the first violation: a stream saw
  /// more copies than its source emitted (duplicates), or copies are
  /// missing that the counted drops cannot explain. `copies_per_drop` is
  /// the most measured copies one counted drop can remove: 1 when every
  /// drop is a single copy (one broker), the widest fan-out behind one
  /// datagram otherwise.
  [[nodiscard]] std::string check(std::uint64_t counted_drops,
                                  std::uint64_t copies_per_drop) const {
    for (std::size_t s = 0; s < expected_.size(); ++s) {
      if (observed_[s] > expected_[s]) {
        return "stream " + std::to_string(s) + " observed " + std::to_string(observed_[s]) +
               " copies, expected " + std::to_string(expected_[s]);
      }
    }
    std::uint64_t missing = missing_total();
    if (missing > counted_drops * copies_per_drop) {
      return std::to_string(missing) + " copies missing but only " +
             std::to_string(counted_drops) + " drops counted";
    }
    return {};
  }

 private:
  static std::uint64_t sum(const std::vector<std::uint64_t>& v) {
    std::uint64_t t = 0;
    for (auto x : v) t += x;
    return t;
  }

  std::vector<std::uint64_t> expected_;
  std::vector<std::uint64_t> observed_;
  std::uint64_t unmeasured_ = 0;
};

/// Heap allocations made by the calling thread since it started, counted
/// by the replacement global operator new in alloc_count.cpp.
struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
AllocCount thread_allocs();

/// Sum over slices of the fastest time any run took for that slice:
/// `runs[r][k]` is run r's time for slice k, and every run has the same
/// slices. Interference only ever adds time, so this lower envelope is
/// the steadiest estimate of the work's own cost. 0 for no runs or when
/// the runs disagree on the slice count.
inline double envelope_sum(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t k = 0; k < runs.front().size(); ++k) {
    double best = runs.front()[k];
    for (const auto& r : runs) {
      if (r.size() != runs.front().size()) return 0.0;
      best = std::min(best, r[k]);
    }
    total += best;
  }
  return total;
}

/// Median of a sample (0 for an empty one); the sample is reordered.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench
