/// \file
/// SIMD kernel plumbing for the separator executor's leaf loop.
//
// The dense leaf window (sep/staging.hpp LeafWindow) stores each time
// level's cells contiguously in row-major order, so the innermost
// spatial dimension of every leaf row is a structure-of-arrays span:
// `n` consecutive cells whose operands are `n` consecutive words in
// the rows below. A *row kernel* evaluates the guest rule over such a
// span in one call — the compiler vectorizes the span loop (AVX2 /
// AVX-512 on x86-64, NEON on aarch64) and the executor keeps the
// charge stream count-based and bit-identical to the scalar loop.
//
// Contract (doc/ENGINE.md "SIMD kernels", doc/PERF.md):
//
//   * a rule functor R advertises a kernel for dimension D by
//     providing
//
//         void row(Word* out, const Word* self,
//                  const Word* const* nbrs,   // geom::kMono<D> rows
//                  std::size_t n, geom::Point<D> p0,
//                  std::int64_t xstride) const;
//
//     which must compute out[i] = R{}(p_i, self[i], {nbrs[k][i]})
//     for i in [0, n), where p_i is p0 with the innermost spatial
//     coordinate advanced by xstride * i. xstride = 1 is the leaf-row
//     form (adjacent cells); xstride = 0 is the SoA lane form (all 64
//     lanes of one point, see soa_rule below);
//   * byte identity: kernels are pure integer programs, so every ISA
//     (and the always-compiled scalar fallback) produces bit-identical
//     values, and the executor's charging never depends on how a value
//     was computed — the CostLedger stream, charged totals, peak
//     staging and every emitted table are unchanged by BSMP_SIMD;
//   * selection: the BSMP_SIMD environment variable (a core::env_bool
//     knob, on when unset; see simd::enabled)
//     picks the path at runtime, the BSMP_SIMD CMake option
//     (-DBSMP_SIMD=OFF) compiles the vector path out entirely, and on
//     x86-64 the kernels themselves are compiled as target_clones so
//     one binary carries scalar, AVX2 and (GCC) AVX-512 versions
//     dispatched by the loader.
#pragma once

#include <cstdint>

#include "geom/lattice.hpp"
#include "sep/guest.hpp"

// Compile-time master switch: -DBSMP_SIMD=OFF at configure time
// removes the vector leaf path and compiles kernels without clones.
#if !defined(BSMP_SIMD_ENABLED)
#define BSMP_SIMD_ENABLED 0
#endif

// Per-kernel function multiversioning: one symbol, several ISA bodies,
// IFUNC-dispatched at load time. The "default" clone is the
// always-compiled scalar-ISA fallback (still auto-vectorized for the
// baseline ISA). Clang's target_clones does not accept arch= levels,
// so it gets the AVX2 clone only; GCC additionally gets x86-64-v4
// (AVX-512F/BW/CD/DQ/VL), whose native 64-bit vector multiply the mix
// kernel leans on.
#if BSMP_SIMD_ENABLED && defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__clang__)
#define BSMP_SIMD_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#elif BSMP_SIMD_ENABLED && defined(__x86_64__) && defined(__clang__)
#define BSMP_SIMD_CLONES __attribute__((target_clones("default", "avx2")))
#else
#define BSMP_SIMD_CLONES
#endif

namespace bsmp::sep::simd {

/// Runtime SIMD switch. Defaults from the BSMP_SIMD environment
/// variable at first use (core::env_bool): 0/off/false force the
/// scalar leaf loop, unset or 1/on/true leave the vector path on, and
/// any other value throws. Per-process, settable by tests and benches.
bool enabled();

/// Override the runtime switch (tests; the bench's side-by-side runs).
void set_enabled(bool on);

/// The instruction set the row kernels dispatch to right now:
/// "avx512", "avx2" or "sse2" on x86-64, "neon" on aarch64 — or
/// "scalar" when the vector path is disabled (BSMP_SIMD off at either
/// configure or run time) or no kernels are compiled for this target.
const char* active_isa();

/// 64-bit lanes one vector operation of active_isa() carries: 8 for
/// avx512, 4 for avx2, 2 for sse2/neon, 1 for scalar. Reported as
/// `simd_lanes` in the metrics hot block.
int lane_width();

/// Detects whether R provides the dimension-D row kernel of the header
/// contract. The executor's leaf takes the vector path only when this
/// holds for the kernel the guest's rule holds (sep/kernels.hpp; a
/// FunctionKernel never does) *and* values are plain words (V = Word)
/// *and* simd::enabled() — otherwise it runs the scalar per-vertex
/// loop, unchanged.
template <class R, int D>
concept RowKernel = requires(const R& r, Word* out, const Word* self,
                             const Word* const* nbrs, std::size_t n,
                             geom::Point<D> p0, std::int64_t xstride) {
  r.row(out, self, nbrs, n, p0, xstride);
};

/// The executor's compile-time gate for one (rule, D, V) combination.
template <class R, int D, class V>
inline constexpr bool has_row_kernel =
    BSMP_SIMD_ENABLED && std::is_same_v<V, Word> && RowKernel<R, D>;

// ---------------------------------------------------------------------
// soa_rule: the vectorized generic batch path. broadcast_rule
// (sep/guest.hpp) lifts a scalar rule into the LaneBatch form one lane
// at a time through a std::function; when the scalar rule has a row
// kernel, the same lift can instead run the kernel once across the 64
// contiguous lane words of each operand (xstride = 0: every lane sees
// the same lattice point). Values are bit-identical to broadcast_rule
// by the kernel contract; only the wall clock changes.
// ---------------------------------------------------------------------

/// BatchRule-compatible functor applying R's row kernel across lanes.
template <int D, class R>
struct SoaKernelRule {
  R kernel;

  LaneBatch operator()(const geom::Point<D>& p, const LaneBatch& self,
                       const BasicNeighbors<D, LaneBatch>& nbrs) const {
    LaneBatch out;
    if (enabled()) {
      const Word* lanes[geom::kMono<D>];
      for (int k = 0; k < geom::kMono<D>; ++k)
        lanes[k] = nbrs[static_cast<std::size_t>(k)].lane.data();
      kernel.row(out.lane.data(), self.lane.data(), lanes,
                 static_cast<std::size_t>(kLanes), p, 0);
      return out;
    }
    // Scalar fallback: the broadcast_rule per-lane loop, inlined on
    // the concrete kernel instead of dispatched through std::function.
    BasicNeighbors<D, Word> lane_nbrs{};
    for (int l = 0; l < kLanes; ++l) {
      for (int k = 0; k < geom::kMono<D>; ++k)
        lane_nbrs[static_cast<std::size_t>(k)] =
            nbrs[static_cast<std::size_t>(k)][l];
      out[l] = kernel(p, self[l], lane_nbrs);
    }
    return out;
  }
};

/// Lift a row-kernel rule into the SoA LaneBatch form (the vectorized
/// counterpart of broadcast_rule; requires RowKernel<R, D>).
template <int D, class R>
  requires RowKernel<R, D>
SoaKernelRule<D, R> soa_rule(R kernel) {
  return SoaKernelRule<D, R>{kernel};
}

}  // namespace bsmp::sep::simd
