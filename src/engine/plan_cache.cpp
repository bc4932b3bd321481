#include "engine/plan_cache.hpp"

#include <bit>

namespace bsmp::engine {

std::uint64_t key_of_double(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.builds = builds_.load(std::memory_order_relaxed);
  return s;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  hits_ = 0;
  misses_ = 0;
  builds_.store(0, std::memory_order_relaxed);
}

}  // namespace bsmp::engine
