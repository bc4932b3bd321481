#include "sep/kernels.hpp"

#include "sep/simd.hpp"

namespace bsmp::sep::detail {

namespace {

// Loop bodies the compiler auto-vectorizes per clone ISA. All 64-bit
// integer arithmetic: the x86-64-v4 clone uses vpmullq for the mix64
// multiply chains, AVX2 synthesizes the products from 32-bit halves,
// and the default clone is plain scalar code — all bit-identical.
constexpr Word kNbrSalt = 0x2545f4914f6cdd1dULL;
constexpr Word kTimeSalt = 0x9e3779b97f4a7c15ULL;

}  // namespace

BSMP_SIMD_CLONES
void mix_row_d1(Word* out, const Word* self, const Word* const* nbrs,
                std::size_t n, geom::Point<1> p0, std::int64_t xstride) {
  const Word tbase = static_cast<Word>(p0.t) * kTimeSalt;
  const Word* lo = nbrs[0];
  const Word* hi = nbrs[1];
  for (std::size_t i = 0; i < n; ++i) {
    const Word x = static_cast<Word>(
        p0.x[0] + xstride * static_cast<std::int64_t>(i));
    Word h = mix64(self[i] ^ mix64(tbase ^ x));
    h = mix64(h + lo[i] * kNbrSalt);
    h = mix64(h + hi[i] * kNbrSalt);
    out[i] = h;
  }
}

BSMP_SIMD_CLONES
void mix_row_d2(Word* out, const Word* self, const Word* const* nbrs,
                std::size_t n, geom::Point<2> p0, std::int64_t xstride) {
  // x[0] is constant along the row, so its tag contribution hoists.
  const Word base = mix64(static_cast<Word>(p0.t) * kTimeSalt ^
                          static_cast<Word>(p0.x[0]));
  const Word* n0 = nbrs[0];
  const Word* n1 = nbrs[1];
  const Word* n2 = nbrs[2];
  const Word* n3 = nbrs[3];
  for (std::size_t i = 0; i < n; ++i) {
    const Word x1 = static_cast<Word>(
        p0.x[1] + xstride * static_cast<std::int64_t>(i));
    Word h = mix64(self[i] ^ mix64(base ^ x1));
    h = mix64(h + n0[i] * kNbrSalt);
    h = mix64(h + n1[i] * kNbrSalt);
    h = mix64(h + n2[i] * kNbrSalt);
    h = mix64(h + n3[i] * kNbrSalt);
    out[i] = h;
  }
}

BSMP_SIMD_CLONES
void xor_row_d1(Word* out, const Word* self, const Word* const* nbrs,
                std::size_t n) {
  const Word* lo = nbrs[0];
  const Word* hi = nbrs[1];
  for (std::size_t i = 0; i < n; ++i) out[i] = self[i] ^ lo[i] ^ hi[i];
}

BSMP_SIMD_CLONES
void xor_row_d2(Word* out, const Word* self, const Word* const* nbrs,
                std::size_t n) {
  const Word* n0 = nbrs[0];
  const Word* n1 = nbrs[1];
  const Word* n2 = nbrs[2];
  const Word* n3 = nbrs[3];
  for (std::size_t i = 0; i < n; ++i)
    out[i] = self[i] ^ n0[i] ^ n1[i] ^ n2[i] ^ n3[i];
}

BSMP_SIMD_CLONES
void rule110_row(Word* out, const Word* self, const Word* const* nbrs,
                 std::size_t n) {
  const Word* lo = nbrs[0];
  const Word* hi = nbrs[1];
  for (std::size_t i = 0; i < n; ++i) {
    // Bitwise form of the 01101110 truth table, masked to the LSB; see
    // Rule110LanesKernel for the per-bit identity.
    const Word l = lo[i], m = self[i], r = hi[i];
    out[i] = ((m | r) & ~(l & m & r)) & 1;
  }
}

BSMP_SIMD_CLONES
void rule110_lanes_row(Word* out, const Word* self, const Word* const* nbrs,
                       std::size_t n) {
  const Word* lo = nbrs[0];
  const Word* hi = nbrs[1];
  for (std::size_t i = 0; i < n; ++i) {
    const Word l = lo[i], m = self[i], r = hi[i];
    out[i] = (m | r) & ~(l & m & r);
  }
}

}  // namespace bsmp::sep::detail
