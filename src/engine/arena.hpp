// Zero-valued stand-in for the deleted slab arena. Its only includer is
// perfbench/cpp/report.cpp, whose engine.arena_* per-layer metrics now
// read 0; ROADMAP item 1 deletes this header together with them.
#pragma once

#include <cstdint>

namespace bsmp::engine {

struct ArenaStats {
  std::uint64_t cold_allocs = 0;
  std::uint64_t slab_reuses = 0;
  std::uint64_t scratch_cold = 0;
  std::uint64_t peak_bytes = 0;
};

struct Arena {
  static Arena& instance() {
    static Arena arena;
    return arena;
  }
  ArenaStats stats() const { return {}; }
};

}  // namespace bsmp::engine
