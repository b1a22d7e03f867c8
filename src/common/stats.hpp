// Small statistics helpers used by the benchmark harness and the simulator's
// per-round accounting.
#pragma once

#include <cstdint>
#include <vector>

namespace ncc {

/// Streaming accumulator: count / min / max / mean / variance (Welford).
class Accumulator {
 public:
  void add(double x);

  uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double min_ = 0.0, max_ = 0.0, mean_ = 0.0, m2_ = 0.0, sum_ = 0.0;
};

/// Simple exact percentile over a copy of the data (fine at bench sizes).
double percentile(std::vector<double> values, double p);

}  // namespace ncc
