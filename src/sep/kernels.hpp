/// \file
/// Concrete step-rule kernels: the rules a scalar guest carries by value.
//
// The mixing, XOR and rule-110 workloads are *kernel structs*
// (MixKernel, XorKernel, Rule110Kernel, Rule110LanesKernel): concrete
// functors whose scalar call computes one vertex, plus a `row` member
// satisfying sep::simd::RowKernel for D = 1, 2 so the separator
// executor's leaf loop (and soa_rule's 64-lane batch form) can evaluate
// whole structure-of-arrays spans per call. A scalar guest's rule
// (sep::Rule, sep/guest.hpp) holds one of these kernels, or a
// FunctionKernel around any other callable; every simulator resolves
// which one once per call and runs its leaves on the concrete type.
//
// The row kernels (kernels.cpp) are compiled as BSMP_SIMD_CLONES. All
// of them are pure integer programs, so every ISA clone computes the
// same bits as the scalar call.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "geom/lattice.hpp"
#include "hram/hram.hpp"

namespace bsmp::sep {

/// The 64-bit machine word every scalar dag value is (hram::Word).
using hram::Word;

/// Neighbor operand order: for each spatial dimension i, first the
/// -e_i neighbor then the +e_i neighbor; slots for neighbors outside
/// the mesh hold the zero value (fixed zero boundary).
template <int D, class V>
using BasicNeighbors = std::array<V, geom::kMono<D>>;

/// Scalar neighbor operands (V = Word).
template <int D>
using NeighborWords = BasicNeighbors<D, Word>;

namespace detail {

/// splitmix64 finalizer — the avalanche primitive of MixKernel and
/// workload::random_input. Pure integer, so identical on every ISA.
inline Word mix64(Word z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Position fingerprint folded into every MixKernel evaluation.
template <int D>
inline Word position_tag(const geom::Point<D>& p) {
  Word h = static_cast<Word>(p.t) * 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < D; ++i) h = mix64(h ^ static_cast<Word>(p.x[i]));
  return h;
}

// Row kernels (kernels.cpp): the sep::simd::RowKernel contract —
// out[i] = rule(p_i, self[i], {nbrs[k][i]}) with p_i's innermost
// coordinate p0.x[D-1] + xstride*i.
void mix_row_d1(Word* out, const Word* self, const Word* const* nbrs,
                std::size_t n, geom::Point<1> p0, std::int64_t xstride);
void mix_row_d2(Word* out, const Word* self, const Word* const* nbrs,
                std::size_t n, geom::Point<2> p0, std::int64_t xstride);
void xor_row_d1(Word* out, const Word* self, const Word* const* nbrs,
                std::size_t n);
void xor_row_d2(Word* out, const Word* self, const Word* const* nbrs,
                std::size_t n);
void rule110_row(Word* out, const Word* self, const Word* const* nbrs,
                 std::size_t n);
void rule110_lanes_row(Word* out, const Word* self, const Word* const* nbrs,
                       std::size_t n);

}  // namespace detail

/// Avalanche mixing of self, neighbors and position (workload::mix_rule).
template <int D>
struct MixKernel {
  Word operator()(const geom::Point<D>& p, Word self,
                  const NeighborWords<D>& nbrs) const {
    Word h = detail::mix64(self ^ detail::position_tag<D>(p));
    for (int k = 0; k < geom::kMono<D>; ++k)
      h = detail::mix64(h + nbrs[static_cast<std::size_t>(k)] *
                                0x2545f4914f6cdd1dULL);
    return h;
  }
  void row(Word* out, const Word* self, const Word* const* nbrs,
           std::size_t n, geom::Point<1> p0, std::int64_t xstride) const
    requires(D == 1)
  {
    detail::mix_row_d1(out, self, nbrs, n, p0, xstride);
  }
  void row(Word* out, const Word* self, const Word* const* nbrs,
           std::size_t n, geom::Point<2> p0, std::int64_t xstride) const
    requires(D == 2)
  {
    detail::mix_row_d2(out, self, nbrs, n, p0, xstride);
  }
};

/// Plain XOR of self and neighbors (workload::xor_rule). Position-
/// independent, so the row kernel ignores p0/xstride.
template <int D>
struct XorKernel {
  Word operator()(const geom::Point<D>&, Word self,
                  const NeighborWords<D>& nbrs) const {
    Word h = self;
    for (int k = 0; k < geom::kMono<D>; ++k)
      h ^= nbrs[static_cast<std::size_t>(k)];
    return h;
  }
  void row(Word* out, const Word* self, const Word* const* nbrs,
           std::size_t n, geom::Point<1>, std::int64_t) const
    requires(D == 1)
  {
    detail::xor_row_d1(out, self, nbrs, n);
  }
  void row(Word* out, const Word* self, const Word* const* nbrs,
           std::size_t n, geom::Point<2>, std::int64_t) const
    requires(D == 2)
  {
    detail::xor_row_d2(out, self, nbrs, n);
  }
};

/// Wolfram's rule 110 on the least-significant bit (workload::rule110).
struct Rule110Kernel {
  Word operator()(const geom::Point<1>&, Word self,
                  const NeighborWords<1>& nbrs) const {
    unsigned left = static_cast<unsigned>(nbrs[0] & 1);
    unsigned mid = static_cast<unsigned>(self & 1);
    unsigned right = static_cast<unsigned>(nbrs[1] & 1);
    unsigned idx = (left << 2) | (mid << 1) | right;
    return (0b01101110u >> idx) & 1u;  // rule 110 truth table
  }
  void row(Word* out, const Word* self, const Word* const* nbrs,
           std::size_t n, geom::Point<1>, std::int64_t) const {
    detail::rule110_row(out, self, nbrs, n);
  }
};

/// Rule 110 on every bit of the word (workload::rule110_lanes, the
/// bit-sliced batch automaton).
struct Rule110LanesKernel {
  Word operator()(const geom::Point<1>&, Word self,
                  const NeighborWords<1>& nbrs) const {
    // Rule 110 on every bit position at once: out = (m|r) & ~(l&m&r)
    // reproduces the truth table 01101110 per bit, so bit l of the
    // word evolves exactly as a scalar rule110() run of lane l.
    const Word l = nbrs[0], m = self, r = nbrs[1];
    return (m | r) & ~(l & m & r);
  }
  void row(Word* out, const Word* self, const Word* const* nbrs,
           std::size_t n, geom::Point<1>, std::int64_t) const {
    detail::rule110_lanes_row(out, self, nbrs, n);
  }
};

}  // namespace bsmp::sep
