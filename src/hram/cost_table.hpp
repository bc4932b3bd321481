// Exact per-address access costs.
//
// A run charges f(x) once per word it touches, millions of times, but
// touches at most tens of thousands of distinct addresses, so CostTable
// evaluates f once per address and serves every later access from an
// array. Each entry is
// the value AccessFn::operator() returns for that address, so a
// charge read from the table has the same bits as one computed
// directly. The array is allocated on the first lookup (a holder that
// only charges blocks pays nothing) and never for a unit AccessFn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cost.hpp"
#include "hram/access_fn.hpp"

namespace bsmp::hram {

class CostTable {
 public:
  /// A table of f over the addresses [0, size).
  CostTable(AccessFn f, std::size_t size) : f_(f), size_(size) {}

  /// f(addr), evaluated on the first lookup of `addr` only. The caller
  /// keeps `addr` below the table's size.
  core::Cost operator()(std::size_t addr) {
    if (f_.is_unit()) return 1.0;
    if (cost_.empty()) cost_.assign(size_, 0.0);
    // 0 marks "not yet evaluated": f >= 1 everywhere.
    core::Cost& c = cost_[addr];
    if (c == 0.0) c = f_(static_cast<std::uint64_t>(addr));
    return c;
  }

  const AccessFn& fn() const { return f_; }

 private:
  AccessFn f_;
  std::size_t size_;
  std::vector<core::Cost> cost_;
};

}  // namespace bsmp::hram
