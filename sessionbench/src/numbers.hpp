// Small order statistics used by every measurement.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

namespace sessionbench {

// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

template <class T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

// Mean of the largest ceil((1 − q) · n) values; 0 for an empty sample.
template <class T>
double tail_mean(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil((1.0 - q) * static_cast<double>(v.size()))), 1,
      v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k - 1), v.end(),
                   std::greater<T>());
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += static_cast<double>(v[i]);
  return sum / static_cast<double>(k);
}

// Log-linear histogram of non-negative integers (nanoseconds here):
// unit-wide buckets below 64, then 64 buckets per power of two, so a
// quantile is off by at most 1/64 of its value. Pools samples from many
// runs in O(1) memory.
class LogLinearHistogram {
 public:
  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++total_;
  }
  std::uint64_t count() const { return total_; }

  // Quantile, q in [0, 1], interpolated by rank inside the bucket that
  // holds it. 0 when empty.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = std::clamp(q * static_cast<double>(total_), 0.5,
                                   static_cast<double>(total_) - 0.5);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(below + counts_[i]) >= rank) {
        const double within = (rank - static_cast<double>(below)) / static_cast<double>(counts_[i]);
        return lower(i) + within * width(i);
      }
      below += counts_[i];
    }
    return 0.0;
  }

 private:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = 1u << kSubBits;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));  // >= kSubBits
    const unsigned shift = e - kSubBits;
    return static_cast<std::size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }
  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    return static_cast<double>((kSub + i % kSub) << (i / kSub - 1));
  }
  static double width(std::size_t i) {
    return i < kSub ? 1.0 : static_cast<double>(std::uint64_t{1} << (i / kSub - 1));
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kSub * (64 - kSubBits + 1));
  std::uint64_t total_ = 0;
};

}  // namespace sessionbench
