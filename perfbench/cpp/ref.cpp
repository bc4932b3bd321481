#include "ref.hpp"

#include <map>
#include <vector>

namespace perfbench {

namespace {

std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

std::uint64_t reference_work() {
  constexpr int kKeys = 1 << 15;
  constexpr int kRounds = 4;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, sum = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::map<std::uint32_t, std::vector<std::uint32_t>> m;
    for (int i = 0; i < kKeys; ++i) {
      auto& v = m[static_cast<std::uint32_t>(next(x)) & 0xfffff];
      v.push_back(static_cast<std::uint32_t>(i));
    }
    for (int i = 0; i < kKeys; ++i) {
      auto it = m.find(static_cast<std::uint32_t>(next(x)) & 0xfffff);
      if (it != m.end()) sum += it->second.size();
    }
    sum = sum * 31 + m.size();
  }
  return sum;
}

}  // namespace perfbench
