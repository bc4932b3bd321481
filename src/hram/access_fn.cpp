#include "hram/access_fn.hpp"

#include <cmath>

#include "core/expect.hpp"

namespace bsmp::hram {

AccessFn AccessFn::unit() { return AccessFn(Kind::kUnit, 0, 0); }

AccessFn AccessFn::hierarchical(int d, double m) {
  BSMP_REQUIRE(d >= 1 && d <= 3);
  BSMP_REQUIRE(m >= 1.0);
  return AccessFn(Kind::kHierarchical, m, 1.0 / d);
}

AccessFn AccessFn::power(double a, double alpha) {
  BSMP_REQUIRE(a > 0.0);
  BSMP_REQUIRE(alpha >= 0.0 && alpha <= 1.0);
  return AccessFn(Kind::kPower, a, alpha);
}

core::Cost AccessFn::operator()(std::uint64_t addr) const {
  switch (kind_) {
    case Kind::kUnit:
      return 1.0;
    case Kind::kHierarchical: {
      // d = 1: pow(q, 1.0) == q exactly (AccessFn.D1IdentityIsExact checks
      // it against this libm), so skip the call. d = 2 keeps pow:
      // sqrt(q) differs from pow(q, 0.5) in the last bit for some q.
      const double q = static_cast<double>(addr) / a_;
      double c = b_ == 1.0 ? q : std::pow(q, b_);
      return c < 1.0 ? 1.0 : c;
    }
    case Kind::kPower: {
      double c = a_ * std::pow(static_cast<double>(addr), b_);
      return c < 1.0 ? 1.0 : c;
    }
  }
  return 1.0;
}

core::Cost AccessFn::block(std::uint64_t max_addr, std::uint64_t len) const {
  return static_cast<core::Cost>(len) * (*this)(max_addr);
}

core::Cost AccessFn::block_pipelined(std::uint64_t max_addr,
                                     std::uint64_t len) const {
  if (len == 0) return 0.0;
  return (*this)(max_addr) + static_cast<core::Cost>(len - 1);
}

}  // namespace bsmp::hram
