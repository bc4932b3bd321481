#include "sep/staging.hpp"

#include <atomic>

#include "core/env.hpp"

namespace bsmp::sep {

namespace {

std::atomic<bool>& validation_flag() {
  static std::atomic<bool> flag = core::env_bool("BSMP_VALIDATE", false);
  return flag;
}

enum Grain { kParallel, kReloc, kWave };

std::atomic<std::int64_t>& grain_flag(Grain g) {
  static std::atomic<std::int64_t> flags[] = {
      core::env_int("BSMP_PARALLEL_GRAIN", 0),
      core::env_int("BSMP_RELOC_GRAIN", 0),
      core::env_int("BSMP_WAVE_GRAIN", 0)};
  return flags[g];
}

std::int64_t load(Grain g) {
  return grain_flag(g).load(std::memory_order_relaxed);
}

void store(Grain g, std::int64_t grain) {
  grain_flag(g).store(grain < 0 ? 0 : grain, std::memory_order_relaxed);
}

}  // namespace

std::int64_t default_parallel_grain() { return load(kParallel); }
void set_default_parallel_grain(std::int64_t g) { store(kParallel, g); }
std::int64_t default_reloc_grain() { return load(kReloc); }
void set_default_reloc_grain(std::int64_t g) { store(kReloc, g); }
std::int64_t default_wave_grain() { return load(kWave); }
void set_default_wave_grain(std::int64_t g) { store(kWave, g); }

bool validation_mode() {
  return validation_flag().load(std::memory_order_relaxed);
}

void set_validation_mode(bool on) {
  validation_flag().store(on, std::memory_order_relaxed);
}

}  // namespace bsmp::sep
