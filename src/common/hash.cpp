#include "common/hash.hpp"

#include "common/assert.hpp"

namespace ncc {

uint64_t mod61(uint64_t x) {
  uint64_t r = (x & kMersenne61) + (x >> 61);
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

uint64_t mulmod61(uint64_t a, uint64_t b) {
  __uint128_t p = static_cast<__uint128_t>(a) * b;
  uint64_t lo = static_cast<uint64_t>(p & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(p >> 61);
  uint64_t r = lo + hi;
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

KWiseHash::KWiseHash(uint32_t k, Rng& rng) {
  NCC_ASSERT(k >= 1);
  coeffs_.resize(k);
  for (auto& c : coeffs_) c = rng.next_below(kMersenne61);
  // Ensure the function is non-constant for k >= 2 (probability ~2^-61 issue,
  // but determinism demands we not rely on luck).
  if (k >= 2 && coeffs_[1] == 0) coeffs_[1] = 1;
}

uint64_t KWiseHash::operator()(uint64_t x) const {
  uint64_t xm = mod61(x);
  // Horner evaluation, high-to-low degree.
  uint64_t acc = 0;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    acc = mod61(mulmod61(acc, xm) + coeffs_[i]);
  }
  return acc;
}

uint64_t KWiseHash::to_range(uint64_t x, uint64_t range) const {
  NCC_ASSERT(range > 0);
  // Multiply-shift style mapping from [0, p) to [0, range); bias is O(range/p).
  __uint128_t v = static_cast<__uint128_t>((*this)(x)) * range;
  return static_cast<uint64_t>(v / kMersenne61);
}

HashFamily::HashFamily(uint32_t count, uint32_t k, uint64_t seed) {
  Rng rng(mix64(seed ^ 0x9a11f0153acc5eedULL));
  fns_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) fns_.emplace_back(k, rng);
}

const KWiseHash& HashFamily::fn(uint32_t i) const {
  NCC_ASSERT(i < fns_.size());
  return fns_[i];
}

uint64_t HashFamily::randomness_words() const {
  uint64_t w = 0;
  for (const auto& f : fns_) w += f.randomness_words();
  return w;
}

namespace {

// Reduce a sum of fewer than 64 products of residues (each < p^2 < 2^122)
// mod p: acc = a * 2^122 + b * 2^61 + lo with 61-bit b and lo, and
// 2^61 == 1 (mod p), so acc == a + b + lo < 3p.
uint64_t reduce128(__uint128_t acc) {
  const uint64_t lo = static_cast<uint64_t>(acc) & kMersenne61;
  const uint64_t mid = static_cast<uint64_t>(acc >> 61) & kMersenne61;
  const uint64_t hi = static_cast<uint64_t>(acc >> 122);
  uint64_t h = lo + mid + hi;
  if (h >= kMersenne61) h -= kMersenne61;
  if (h >= kMersenne61) h -= kMersenne61;
  return h;
}

}  // namespace

uint64_t HashFamily::bit_word(uint64_t x, uint32_t count) const {
  NCC_ASSERT(count <= fns_.size() && count <= 64);
  if (count == 0) return 0;
  const uint32_t k = fns_[0].independence();
  NCC_ASSERT_MSG(k <= 63, "bit_word needs independence k <= 63");
  uint64_t pow[63];
  pow[0] = 1;
  const uint64_t xm = mod61(x);
  for (uint32_t i = 1; i < k; ++i) pow[i] = mulmod61(pow[i - 1], xm);
  uint64_t word = 0;
  uint32_t t = 0;
  // Four trials per pass: independent accumulators keep the multiplier busy.
  for (; t + 4 <= count; t += 4) {
    const uint64_t* c0 = fns_[t].coeffs().data();
    const uint64_t* c1 = fns_[t + 1].coeffs().data();
    const uint64_t* c2 = fns_[t + 2].coeffs().data();
    const uint64_t* c3 = fns_[t + 3].coeffs().data();
    __uint128_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (uint32_t i = 0; i < k; ++i) {
      a0 += static_cast<__uint128_t>(c0[i]) * pow[i];
      a1 += static_cast<__uint128_t>(c1[i]) * pow[i];
      a2 += static_cast<__uint128_t>(c2[i]) * pow[i];
      a3 += static_cast<__uint128_t>(c3[i]) * pow[i];
    }
    word |= (reduce128(a0) & 1u) << t | (reduce128(a1) & 1u) << (t + 1) |
            (reduce128(a2) & 1u) << (t + 2) | (reduce128(a3) & 1u) << (t + 3);
  }
  for (; t < count; ++t) {
    const uint64_t* c0 = fns_[t].coeffs().data();
    __uint128_t a0 = 0;
    for (uint32_t i = 0; i < k; ++i) a0 += static_cast<__uint128_t>(c0[i]) * pow[i];
    word |= (reduce128(a0) & 1u) << t;
  }
  return word;
}

}  // namespace ncc
