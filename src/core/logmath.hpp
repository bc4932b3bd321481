// Integer and "paper" math helpers.
//
// The SPAA'95 paper uses a saturated logarithm throughout its closed
// forms: loḡ(a) := log2(a + 2), so that loḡ(a) >= 1 for every a >= 0
// (footnote to Theorem 3). `logbar` implements exactly that. All other
// helpers are exact integer routines used to size domains, strips and
// recursion levels without floating-point drift.
#pragma once

#include <cstdint>

#include "core/expect.hpp"

namespace bsmp::core {

/// The paper's saturated logarithm: loḡ(a) = log2(a + 2) >= 1 for a >= 0.
/// Defined for a >= 0 (negative inputs are clamped to 0 before applying).
double logbar(double a);

/// Exact floor(log2(x)) for x >= 1.
int ilog2_floor(std::uint64_t x);

/// Exact ceil(log2(x)) for x >= 1.
int ilog2_ceil(std::uint64_t x);

/// True iff x is a power of two (x >= 1).
bool is_pow2(std::uint64_t x);

/// Smallest power of two >= x (x >= 1, x <= 2^63).
std::uint64_t ceil_pow2(std::uint64_t x);

/// Largest power of two <= x (x >= 1).
std::uint64_t floor_pow2(std::uint64_t x);

/// Exact floor(sqrt(x)).
std::uint64_t isqrt(std::uint64_t x);

/// True iff x is a perfect square.
bool is_square(std::uint64_t x);

// The division helpers are inline: tile grids, regime-2 cell counts
// and per-subtile processor lookups call them in loops.

/// Floor division that rounds toward negative infinity (unlike C++ '/').
inline std::int64_t div_floor(std::int64_t a, std::int64_t b) {
  BSMP_REQUIRE(b > 0);
  std::int64_t q = a / b;
  if (a % b != 0 && a < 0) --q;
  return q;
}

/// ceil(a / b) for b > 0.
inline std::int64_t div_ceil(std::int64_t a, std::int64_t b) {
  BSMP_REQUIRE(b > 0);
  return div_floor(a + b - 1, b);
}

/// Mathematical modulus in [0, b) for b > 0 (unlike C++ '%').
inline std::int64_t mod_floor(std::int64_t a, std::int64_t b) {
  BSMP_REQUIRE(b > 0);
  std::int64_t r = a % b;
  if (r < 0) r += b;
  return r;
}

/// Integer power base^exp (no overflow checking; callers keep it small).
std::uint64_t ipow(std::uint64_t base, unsigned exp);

}  // namespace bsmp::core
