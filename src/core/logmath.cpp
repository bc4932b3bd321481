#include "core/logmath.hpp"

#include <cmath>

#include "core/expect.hpp"

namespace bsmp::core {

double logbar(double a) {
  if (a < 0.0) a = 0.0;
  return std::log2(a + 2.0);
}

int ilog2_floor(std::uint64_t x) {
  BSMP_REQUIRE(x >= 1);
  int r = 0;
  while (x >>= 1) ++r;
  return r;
}

int ilog2_ceil(std::uint64_t x) {
  BSMP_REQUIRE(x >= 1);
  int f = ilog2_floor(x);
  return is_pow2(x) ? f : f + 1;
}

bool is_pow2(std::uint64_t x) { return x >= 1 && (x & (x - 1)) == 0; }

std::uint64_t ceil_pow2(std::uint64_t x) {
  BSMP_REQUIRE(x >= 1);
  return std::uint64_t{1} << ilog2_ceil(x);
}

std::uint64_t floor_pow2(std::uint64_t x) {
  BSMP_REQUIRE(x >= 1);
  return std::uint64_t{1} << ilog2_floor(x);
}

std::uint64_t isqrt(std::uint64_t x) {
  if (x == 0) return 0;
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(x)));
  // std::sqrt rounding can be off by one in either direction for large x.
  while (r > 0 && r * r > x) --r;
  while ((r + 1) * (r + 1) <= x) ++r;
  return r;
}

bool is_square(std::uint64_t x) {
  std::uint64_t r = isqrt(x);
  return r * r == x;
}

std::uint64_t ipow(std::uint64_t base, unsigned exp) {
  std::uint64_t r = 1;
  while (exp--) r *= base;
  return r;
}

}  // namespace bsmp::core
