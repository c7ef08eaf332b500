// Minimal 4-lane double SIMD built on the GCC/Clang vector extension —
// no immintrin, no runtime dispatch, portable to any target the
// toolchain supports (the compiler lowers 32-byte vectors to whatever
// the ISA offers, two 16-byte ops on bare SSE2).
//
// Bit-identity discipline (DESIGN.md §15): lanes are only ever mapped to
// *independent outputs* — four output columns of a blocked multiply,
// four right-hand sides of a triangular solve, four kernel-matrix
// entries.  Each output's accumulation order over the reduction index is
// exactly the scalar loop's (ascending), and transcendental tails
// (sqrt/exp) run through scalar libm per lane, so every result is
// bit-identical to the scalar reference at every problem size.  What is
// forbidden: vectorizing *within* a dot product or distance sum, which
// would reassociate the reduction.
#pragma once

#include <cstddef>
#include <cstring>

namespace robotune::linalg::simd {

/// Lanes per vector; callers peel scalar tails of size() % kLanes.
inline constexpr std::size_t kLanes = 4;

/// Four doubles.  Alignment is pinned to alignof(double) so loads and
/// stores through arbitrary double* positions are well-defined.
typedef double v4d __attribute__((vector_size(32), aligned(8)));

inline v4d load(const double* p) noexcept {
  v4d v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store(double* p, v4d v) noexcept { std::memcpy(p, &v, sizeof(v)); }

inline v4d broadcast(double x) noexcept { return v4d{x, x, x, x}; }

/// Gathers one element from each of four strided rows.
inline v4d gather(const double* p0, const double* p1, const double* p2,
                  const double* p3, std::size_t i) noexcept {
  return v4d{p0[i], p1[i], p2[i], p3[i]};
}

}  // namespace robotune::linalg::simd
