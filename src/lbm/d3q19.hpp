#pragma once
// D3Q19 lattice descriptor: the velocity set, quadrature weights and
// opposite-direction mapping used throughout HemoFlow.  All data is
// constexpr so kernels can fold it at compile time.
//
// Ordering convention: rest population first, then the six axis
// directions in +/- pairs, then the twelve planar diagonals in +/-
// pairs.  opposite(q) is therefore q^1 adjusted for the rest state.

#include <array>
#include <cstdint>

#include "base/types.hpp"

namespace hemo::lbm {

inline constexpr int kQ = 19;

/// Lattice velocities c_q (row q = direction q).
inline constexpr std::array<std::array<std::int8_t, 3>, kQ> kVelocities = {{
    {0, 0, 0},                                                    // 0 rest
    {1, 0, 0},  {-1, 0, 0},                                       // 1, 2
    {0, 1, 0},  {0, -1, 0},                                       // 3, 4
    {0, 0, 1},  {0, 0, -1},                                       // 5, 6
    {1, 1, 0},  {-1, -1, 0},                                      // 7, 8
    {1, -1, 0}, {-1, 1, 0},                                       // 9, 10
    {1, 0, 1},  {-1, 0, -1},                                      // 11, 12
    {1, 0, -1}, {-1, 0, 1},                                       // 13, 14
    {0, 1, 1},  {0, -1, -1},                                      // 15, 16
    {0, 1, -1}, {0, -1, 1},                                       // 17, 18
}};

/// Quadrature weights w_q.
inline constexpr std::array<double, kQ> kWeights = {
    1.0 / 3.0,
    1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0,
    1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
    1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0};

/// Index of the direction with velocity -c_q.
constexpr int opposite(int q) {
  if (q == 0) return 0;
  return (q % 2 == 1) ? q + 1 : q - 1;
}

/// Lattice speed of sound squared (c_s^2 = 1/3 in lattice units).
inline constexpr double kCs2 = 1.0 / 3.0;

constexpr Coord velocity(int q) {
  return Coord{kVelocities[q][0], kVelocities[q][1], kVelocities[q][2]};
}

/// Component a (0..2) of velocity q.
constexpr int c(int q, int a) { return kVelocities[q][a]; }

/// c_q . (x, y, z).  Components are 0 or +/-1, so a zero term is
/// skipped and a unit term adds or subtracts; the sum starts from -0.0,
/// the exact additive identity.  Once q is a compile-time constant (the
/// kernels fully unroll their q loops) this folds to at most one add, and
/// for finite inputs it equals the three-product sum up to the sign of a
/// zero result.
constexpr double dot_c(int q, double x, double y, double z) {
  double s = -0.0;
  if (c(q, 0) != 0) s += c(q, 0) * x;
  if (c(q, 1) != 0) s += c(q, 1) * y;
  if (c(q, 2) != 0) s += c(q, 2) * z;
  return s;
}

/// BGK second-order equilibrium distribution for direction q.
constexpr double equilibrium(int q, double rho, double ux, double uy,
                             double uz) {
  const double cu = dot_c(q, ux, uy, uz);
  const double u2 = ux * ux + uy * uy + uz * uz;
  return kWeights[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * u2);
}

}  // namespace hemo::lbm
