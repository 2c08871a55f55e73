#pragma once
// Flow probes and dimensionless numbers: the quantities a hemodynamics
// campaign actually monitors (flow rates, pressure drops) and the
// similarity parameters (Reynolds, Womersley) used to match lattice
// simulations to physiological conditions.

#include <cmath>
#include <span>

#include "base/contracts.hpp"
#include "lbm/solver.hpp"

namespace hemo::lbm {

/// Compensated (Neumaier) sum: carries the rounding error of every
/// addition in a second accumulator, so a sum of millions of
/// distribution values stays within an ulp or two of the exact total
/// instead of drifting with the order of summation.
double neumaier_sum(std::span<const double> values);

/// Mass flux (sum of rho*u_z) through the axial slice z.
double slice_mass_flux(const Solver& solver, std::int32_t z);

/// Mean density over the axial slice z; rho relates to pressure via
/// p = cs^2 rho in lattice units.
double slice_mean_density(const Solver& solver, std::int32_t z);

/// Pressure drop between two axial slices, in lattice units
/// (cs^2 * (rho(z0) - rho(z1))).
double pressure_drop(const Solver& solver, std::int32_t z0, std::int32_t z1);

/// Total momentum: sum over fluid points of rho * u, with the Guo
/// half-force correction included in u.  Under body-force driving in a
/// closed (periodic) geometry, the z-component grows by one force impulse
/// per bulk point per step until wall friction balances it, while mass
/// stays constant to rounding — the invariants the resilience subsystem's
/// mass-drift guard (RS002) is calibrated against.
Vec3 total_momentum(const Solver& solver);

/// Reynolds number Re = U L / nu.
constexpr double reynolds_number(double velocity, double length,
                                 double viscosity) {
  return velocity * length / viscosity;
}

/// Womersley number alpha = R sqrt(omega / nu) with omega = 2 pi / T;
/// the pulsatility parameter of arterial flow (aorta: alpha ~ 10-20).
inline double womersley_number(double radius, double period_steps,
                               double viscosity) {
  HEMO_EXPECTS(period_steps > 0.0 && viscosity > 0.0);
  constexpr double kPi = 3.14159265358979323846;
  return radius * std::sqrt(2.0 * kPi / (period_steps * viscosity));
}

}  // namespace hemo::lbm
