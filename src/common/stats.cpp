#include "common/stats.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ncc {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double percentile(std::vector<double> values, double p) {
  NCC_ASSERT(!values.empty());
  NCC_ASSERT(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  double idx = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace ncc
