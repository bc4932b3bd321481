#include "sep/simd.hpp"

#include <atomic>
#include <cstring>

#include "core/env.hpp"

namespace bsmp::sep::simd {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = core::env_bool("BSMP_SIMD", true);
  return flag;
}

/// Best ISA among the compiled kernel clones that this CPU supports.
/// Mirrors the loader's IFUNC resolution: the GCC clone list tops out
/// at x86-64-v4, clang's at AVX2, and a -DBSMP_SIMD=OFF build has no
/// clones at all.
const char* detect_isa() {
#if !BSMP_SIMD_ENABLED
  return "scalar";
#elif defined(__x86_64__)
  __builtin_cpu_init();
#if defined(__GNUC__) && !defined(__clang__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl"))
    return "avx512";
#endif
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "sse2";
#elif defined(__aarch64__)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

const char* active_isa() {
  if (!enabled()) return "scalar";
  static const char* isa = detect_isa();
  return isa;
}

int lane_width() {
  const char* isa = active_isa();
  if (std::strcmp(isa, "avx512") == 0) return 8;
  if (std::strcmp(isa, "avx2") == 0) return 4;
  if (std::strcmp(isa, "sse2") == 0 || std::strcmp(isa, "neon") == 0)
    return 2;
  return 1;
}

}  // namespace bsmp::sep::simd
