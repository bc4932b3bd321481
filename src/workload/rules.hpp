// Guest programs: concrete step rules and input generators.
//
// The theorems hold for arbitrary T-step computations of the network;
// the rules here instantiate them. `mix_rule` is the default workload
// for experiments — it mixes all operands with full avalanche, so a
// simulator that executes any vertex with a wrong operand produces
// detectably wrong final values. `rule110` and `parity_rule` are
// classical cellular automata (the m=1 guests of Theorems 2 and 5 —
// "systolic network or cellular automaton").
// mix_rule, xor_rule, rule110 and rule110_lanes return a sep::Rule
// holding their kernel struct (sep/kernels.hpp: MixKernel, XorKernel,
// Rule110Kernel, Rule110LanesKernel), so every simulator runs them on
// the concrete type and the executor's leaves take the SIMD row path;
// the other factories return rules holding a sep::FunctionKernel.
#pragma once

#include "core/rng.hpp"
#include "sep/guest.hpp"

namespace bsmp::workload {

/// Avalanche-mixing rule: value = h(self_prev, neighbors, position).
template <int D>
sep::Rule<D> mix_rule();

/// Linear (XOR) rule: parity of self and neighbors, rotated for mixing.
template <int D>
sep::Rule<D> parity_rule();

/// Wolfram's rule 110 on the least-significant bit (D = 1, m = 1).
sep::Rule<1> rule110();

/// Rule 110 applied to *every* bit of the word independently: the
/// bit-sliced batch form (doc/ENGINE.md "Batched guests"). Bit l of
/// each value evolves exactly as rule110() evolves a 0/1-valued
/// scalar run, so one charged pass carries sep::kLanes scenarios.
sep::Rule<1> rule110_lanes();

/// Plain XOR parity of self and neighbors — lane-local on every bit,
/// so it is its own bit-sliced batch form (unlike parity_rule, whose
/// rotations mix bit positions for avalanche).
template <int D>
sep::Rule<D> xor_rule();

/// Integer diffusion: mean of self and neighbors (saturating).
template <int D>
sep::Rule<D> diffusion_rule();

/// Odd-even transposition sort on a linear array of n cells (D = 1,
/// m = 1): the classical systolic sorter. After n steps the array is
/// sorted ascending — simulators are checked to *sort correctly*, not
/// just to match the reference bit-for-bit.
sep::Rule<1> sort_rule(int64_t n);

/// Window maximum: value(x, t) = max over inputs within distance t of
/// x — after T = n steps every node holds the global maximum.
template <int D>
sep::Rule<D> max_rule();

/// Shearsort on a side x side mesh (D = 2, m = 1): alternating phases
/// of snake-wise row sorts and ascending column sorts, each phase
/// `side` steps of odd-even transposition. After shearsort_phases(side)
/// phases the array is sorted in snake order. The canonical
/// mesh-sorting algorithm, expressible exactly as a GT(H) computation.
sep::Rule<2> shearsort_rule(int64_t side);

/// Number of phases that guarantees sortedness (2 ceil(log2 side) + 3,
/// generous; extra phases are no-ops on a sorted mesh). The required
/// horizon is 1 + shearsort_phases(side) * side.
int64_t shearsort_phases(int64_t side);

/// The snake order positions: element (row, col) is the
/// (row*side + (row even ? col : side-1-col))-th smallest when sorted.
int64_t snake_rank(int64_t side, int64_t row, int64_t col);

/// Deterministic pseudo-random inputs from a seed.
template <int D>
sep::InputFn<D> random_input(std::uint64_t seed);

/// All-zero inputs except a single seed cell at the origin.
template <int D>
sep::InputFn<D> point_input(sep::Word value);

/// Convenience: a complete Guest for the mixing workload.
template <int D>
sep::Guest<D> make_mix_guest(std::array<int64_t, D> extent, int64_t horizon,
                             int64_t m, std::uint64_t seed);

}  // namespace bsmp::workload
