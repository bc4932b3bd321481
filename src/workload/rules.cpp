#include "workload/rules.hpp"

#include <algorithm>

#include "core/logmath.hpp"

namespace bsmp::workload {

using sep::detail::mix64;

template <int D>
sep::Rule<D> mix_rule() {
  return sep::MixKernel<D>{};
}

template <int D>
sep::Rule<D> parity_rule() {
  return [](const geom::Point<D>&, sep::Word self,
            const sep::NeighborWords<D>& nbrs) -> sep::Word {
    sep::Word h = self;
    for (int k = 0; k < geom::kMono<D>; ++k)
      h ^= (nbrs[k] << ((k + 1) % 8)) | (nbrs[k] >> (64 - ((k + 1) % 8 + 1)));
    return h;
  };
}

sep::Rule<1> rule110() { return sep::Rule110Kernel{}; }

sep::Rule<1> rule110_lanes() { return sep::Rule110LanesKernel{}; }

template <int D>
sep::Rule<D> xor_rule() {
  return sep::XorKernel<D>{};
}

template <int D>
sep::Rule<D> diffusion_rule() {
  return [](const geom::Point<D>&, sep::Word self,
            const sep::NeighborWords<D>& nbrs) -> sep::Word {
    // Average of self and neighbors, in a bounded value range so that
    // the computation does not degenerate to a constant.
    sep::Word sum = self;
    int count = 1;
    for (int k = 0; k < geom::kMono<D>; ++k) {
      sum += nbrs[k];
      ++count;
    }
    return sum / static_cast<sep::Word>(count) + 1;
  };
}

sep::Rule<1> sort_rule(int64_t n) {
  return [n](const geom::Point<1>& p, sep::Word self,
             const sep::NeighborWords<1>& nbrs) -> sep::Word {
    // Step t compares positions (i, i+1) for i ≡ t (mod 2). A node is
    // the left member of its pair when its parity matches the step's;
    // a node with no partner inside the array keeps its value.
    bool left_member = ((p.x[0] ^ p.t) & 1) == 0;
    if (left_member) {
      if (p.x[0] + 1 >= n) return self;
      return std::min(self, nbrs[1]);
    }
    if (p.x[0] == 0) return self;
    return std::max(self, nbrs[0]);
  };
}

template <int D>
sep::Rule<D> max_rule() {
  return [](const geom::Point<D>&, sep::Word self,
            const sep::NeighborWords<D>& nbrs) -> sep::Word {
    sep::Word v = self;
    for (int k = 0; k < geom::kMono<D>; ++k) v = std::max(v, nbrs[k]);
    return v;  // absent neighbors contribute 0, the identity of max
  };
}

int64_t shearsort_phases(int64_t side) {
  BSMP_REQUIRE(side >= 1);
  return 2 * core::ilog2_ceil(static_cast<std::uint64_t>(
             side < 2 ? 2 : side)) +
         3;  // odd: the final phase is a row phase
}

int64_t snake_rank(int64_t side, int64_t row, int64_t col) {
  return row * side + (row % 2 == 0 ? col : side - 1 - col);
}

sep::Rule<2> shearsort_rule(int64_t side) {
  return [side](const geom::Point<2>& p, sep::Word self,
                const sep::NeighborWords<2>& nbrs) -> sep::Word {
    // Dimension 0 is the row index, dimension 1 the column index.
    // nbrs: [0]=row-1, [1]=row+1, [2]=col-1, [3]=col+1.
    const int64_t row = p.x[0], col = p.x[1];
    const int64_t phase = (p.t - 1) / side;
    const int64_t step = (p.t - 1) % side;
    if (phase % 2 == 0) {
      // Row phase: odd-even transposition along the row; even rows
      // ascend, odd rows descend (snake order).
      bool left = ((col ^ step) & 1) == 0;
      bool ascending = (row % 2 == 0);
      if (left) {
        if (col + 1 >= side) return self;
        sep::Word partner = nbrs[3];
        return ascending ? std::min(self, partner)
                         : std::max(self, partner);
      }
      if (col == 0) return self;
      sep::Word partner = nbrs[2];
      return ascending ? std::max(self, partner) : std::min(self, partner);
    }
    // Column phase: ascending odd-even transposition along the column.
    bool upper = ((row ^ step) & 1) == 0;
    if (upper) {
      if (row + 1 >= side) return self;
      return std::min(self, nbrs[1]);
    }
    if (row == 0) return self;
    return std::max(self, nbrs[0]);
  };
}

template <int D>
sep::InputFn<D> random_input(std::uint64_t seed) {
  return [seed](const std::array<int64_t, D>& x, int64_t cell) -> sep::Word {
    sep::Word h = seed;
    for (int i = 0; i < D; ++i)
      h = mix64(h ^ static_cast<sep::Word>(x[i] + 0x1234));
    return mix64(h ^ static_cast<sep::Word>(cell));
  };
}

template <int D>
sep::InputFn<D> point_input(sep::Word value) {
  return [value](const std::array<int64_t, D>& x, int64_t cell) -> sep::Word {
    for (int i = 0; i < D; ++i)
      if (x[i] != 0) return 0;
    return cell == 0 ? value : 0;
  };
}

template <int D>
sep::Guest<D> make_mix_guest(std::array<int64_t, D> extent, int64_t horizon,
                             int64_t m, std::uint64_t seed) {
  sep::Guest<D> g;
  g.stencil.extent = extent;
  g.stencil.horizon = horizon;
  g.stencil.m = m;
  g.rule = mix_rule<D>();
  g.input = random_input<D>(seed);
  return g;
}

// Explicit instantiations.
template sep::Rule<1> mix_rule<1>();
template sep::Rule<2> mix_rule<2>();
template sep::Rule<3> mix_rule<3>();
template sep::Rule<1> max_rule<1>();
template sep::Rule<2> max_rule<2>();
template sep::Rule<3> max_rule<3>();
template sep::Rule<1> parity_rule<1>();
template sep::Rule<2> parity_rule<2>();
template sep::Rule<3> parity_rule<3>();
template sep::Rule<1> xor_rule<1>();
template sep::Rule<2> xor_rule<2>();
template sep::Rule<3> xor_rule<3>();
template sep::Rule<1> diffusion_rule<1>();
template sep::Rule<2> diffusion_rule<2>();
template sep::Rule<3> diffusion_rule<3>();
template sep::InputFn<1> random_input<1>(std::uint64_t);
template sep::InputFn<2> random_input<2>(std::uint64_t);
template sep::InputFn<3> random_input<3>(std::uint64_t);
template sep::InputFn<1> point_input<1>(sep::Word);
template sep::InputFn<2> point_input<2>(sep::Word);
template sep::InputFn<3> point_input<3>(sep::Word);
template sep::Guest<1> make_mix_guest<1>(std::array<int64_t, 1>, int64_t,
                                         int64_t, std::uint64_t);
template sep::Guest<2> make_mix_guest<2>(std::array<int64_t, 2>, int64_t,
                                         int64_t, std::uint64_t);
template sep::Guest<3> make_mix_guest<3>(std::array<int64_t, 3>, int64_t,
                                         int64_t, std::uint64_t);

}  // namespace bsmp::workload
