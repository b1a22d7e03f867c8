// Bit-manipulation helpers used across the library: overlay address
// arithmetic, the NCC capacity log (cap_log) and power-of-two rounding.
#pragma once

#include <bit>
#include <cstdint>

namespace ncc {

/// floor(log2(x)) for x >= 1.
constexpr uint32_t floor_log2(uint64_t x) {
  return 63u - static_cast<uint32_t>(std::countl_zero(x | 1));
}

/// ceil(log2(x)) for x >= 1; ceil_log2(1) == 0.
constexpr uint32_t ceil_log2(uint64_t x) {
  if (x <= 1) return 0;
  return floor_log2(x - 1) + 1;
}

/// Smallest power of two >= x.
constexpr uint64_t next_pow2(uint64_t x) { return uint64_t{1} << ceil_log2(x); }

/// True if x is a power of two (x > 0).
constexpr bool is_pow2(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// ceil(a / b) for b > 0.
constexpr uint64_t ceil_div(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// The "capacity log": ceil(log2(n)) but at least 1, used for the per-round
/// message budget O(log n) of the NCC model.
constexpr uint32_t cap_log(uint64_t n) {
  uint32_t l = ceil_log2(n);
  return l == 0 ? 1 : l;
}

}  // namespace ncc
