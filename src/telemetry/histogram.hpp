// histogram.hpp — fixed-memory latency histogram with log-linear buckets.
//
// Each power-of-two octave [2^e, 2^(e+1)) is split into kSubBuckets equal
// linear buckets, so a bucket is at most 1/kSubBuckets (6.25%) of its
// values wide at any magnitude, and the whole histogram is one fixed array:
// recording never allocates, and memory does not grow with the run. Values
// below 2^kMinExp share the first bucket; values from 2^(kMinExp+kOctaves)
// up share the last. The exact maximum is kept beside the buckets.
//
// percentile(p) is nearest-rank over the buckets: it finds the bucket that
// holds the ceil(p/100 · n)-th smallest value and returns that bucket's
// upper edge, clamped to the exact maximum. The answer is never below the
// true nearest-rank value and at most one bucket above it.
//
// Not synchronized: the owner (TenantSession) holds its own mutex.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace hotlib::telemetry {

class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 16;  // linear buckets per octave
  static constexpr int kMinExp = -4;      // first octave starts at 2^-4
  static constexpr int kOctaves = 36;     // last octave ends at 2^32
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  // Bucket that holds `v` (NaN and values below the range land in bucket 0).
  static int bucket_of(double v) {
    if (!(v >= std::ldexp(1.0, kMinExp))) return 0;
    const int e = std::ilogb(v);
    if (e >= kMinExp + kOctaves) return kBuckets - 1;
    const int sub = static_cast<int>((std::scalbn(v, -e) - 1.0) * kSubBuckets);
    return (e - kMinExp) * kSubBuckets + sub;
  }

  // Exclusive upper edge of bucket `b`.
  static double bucket_upper(int b) {
    return std::ldexp(1.0 + static_cast<double>(b % kSubBuckets + 1) / kSubBuckets,
                      kMinExp + b / kSubBuckets);
  }

  void record(double v) {
    ++counts_[static_cast<std::size_t>(bucket_of(v))];
    ++count_;
    max_ = std::max(max_, v);
  }

  std::uint64_t count() const { return count_; }
  double max() const { return max_; }

  // Nearest-rank percentile, p in [0, 100]; 0 when nothing was recorded.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(count_));
    const std::uint64_t target =
        std::min(count_, static_cast<std::uint64_t>(std::max(1.0, rank)));
    std::uint64_t seen = 0;
    int b = 0;
    for (; b < kBuckets - 1; ++b) {
      seen += counts_[static_cast<std::size_t>(b)];
      if (seen >= target) break;
    }
    return b == kBuckets - 1 ? max_ : std::min(bucket_upper(b), max_);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double max_ = 0.0;
};

}  // namespace hotlib::telemetry
