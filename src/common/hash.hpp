// Shared-randomness hash functions.
//
// The paper's primitives assume all nodes know common (pseudo-)random hash
// functions; Theta(log n)-wise independence suffices for every concentration
// argument used (Section 2.2). We implement a k-wise independent polynomial
// hash family over the Mersenne prime p = 2^61 - 1:
//
//    h(x) = (a_{k-1} x^{k-1} + ... + a_1 x + a_0) mod p
//
// A `HashFamily` is constructed from a seed (in the simulator the seed plays
// the role of the O(log^2 n) random bits node 0 broadcasts; the setup cost is
// charged explicitly by the primitives that need it).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace ncc {

/// The Mersenne prime 2^61 - 1.
inline constexpr uint64_t kMersenne61 = (uint64_t{1} << 61) - 1;

/// (a * b) mod (2^61 - 1) without overflow.
uint64_t mulmod61(uint64_t a, uint64_t b);

/// x mod (2^61 - 1), valid for any x < 2^62 + 2^61 (fast double-fold).
uint64_t mod61(uint64_t x);

/// A single k-wise independent hash function over [0, 2^61-1).
class KWiseHash {
 public:
  /// Degree-(k-1) polynomial with coefficients drawn from `rng`.
  KWiseHash(uint32_t k, Rng& rng);
  /// Convenience overload for a one-off generator.
  KWiseHash(uint32_t k, Rng&& rng) : KWiseHash(k, rng) {}

  /// Hash value in [0, p).
  uint64_t operator()(uint64_t x) const;

  /// Hash mapped uniformly into [0, range).
  uint64_t to_range(uint64_t x, uint64_t range) const;

  /// One uniform bit.
  bool bit(uint64_t x) const { return (*this)(x)&1u; }

  uint32_t independence() const { return static_cast<uint32_t>(coeffs_.size()); }

  /// Number of 61-bit words of shared randomness this function consumes; used
  /// to charge the O(log^2 n)-bit setup broadcast where the paper does.
  uint64_t randomness_words() const { return coeffs_.size(); }

  /// Coefficients, low-to-high degree.
  std::span<const uint64_t> coeffs() const { return coeffs_; }

 private:
  std::vector<uint64_t> coeffs_;  // low-to-high degree
};

/// A family of s independent k-wise hash functions with a common seed,
/// mirroring the "s trials" construction of the Identification Algorithm and
/// the O(log n) sketch repetitions of FindMin.
class HashFamily {
 public:
  HashFamily(uint32_t count, uint32_t k, uint64_t seed);

  const KWiseHash& fn(uint32_t i) const;
  uint32_t size() const { return static_cast<uint32_t>(fns_.size()); }

  /// Total shared-randomness words across the family (for setup-cost charging).
  uint64_t randomness_words() const;

  /// fn(t).bit(x) for t < count, packed with trial t in bit t — the same bits
  /// as the per-trial loop, in one pass: x^0 .. x^(k-1) are computed once
  /// and each trial's polynomial is a 128-bit dot product with a single
  /// Mersenne-61 reduction. k terms below p^2 each must fit in 128 bits, so
  /// the family's independence must be at most 63 (asserted).
  uint64_t bit_word(uint64_t x, uint32_t count) const;

 private:
  std::vector<KWiseHash> fns_;
};

}  // namespace ncc
