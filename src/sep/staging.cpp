#include "sep/staging.hpp"

#include <atomic>

#include "core/env.hpp"

namespace bsmp::sep {

namespace {

std::atomic<bool>& validation_flag() {
  static std::atomic<bool> flag = core::env_bool("BSMP_VALIDATE", false);
  return flag;
}

}  // namespace

void set_default_parallel_grain(std::int64_t) {}

bool validation_mode() {
  return validation_flag().load(std::memory_order_relaxed);
}

void set_validation_mode(bool on) {
  validation_flag().store(on, std::memory_order_relaxed);
}

}  // namespace bsmp::sep
