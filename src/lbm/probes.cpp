#include "lbm/probes.hpp"

namespace hemo::lbm {

double neumaier_sum(std::span<const double> values) {
  double sum = 0.0;
  double compensation = 0.0;
  for (const double v : values) {
    const double t = sum + v;
    compensation +=
        std::abs(sum) >= std::abs(v) ? (sum - t) + v : (v - t) + sum;
    sum = t;
  }
  return sum + compensation;
}

double slice_mass_flux(const Solver& solver, std::int32_t z) {
  double flux = 0.0;
  bool found = false;
  for (PointIndex i = 0; i < solver.size(); ++i) {
    if (solver.lattice().coord(i).z != z) continue;
    const Moments m = solver.moments(i);
    flux += m.rho * m.uz;
    found = true;
  }
  HEMO_EXPECTS(found);  // probing an empty slice is a caller bug
  return flux;
}

double slice_mean_density(const Solver& solver, std::int32_t z) {
  double rho = 0.0;
  std::int64_t count = 0;
  for (PointIndex i = 0; i < solver.size(); ++i) {
    if (solver.lattice().coord(i).z != z) continue;
    rho += solver.moments(i).rho;
    ++count;
  }
  HEMO_EXPECTS(count > 0);
  return rho / static_cast<double>(count);
}

double pressure_drop(const Solver& solver, std::int32_t z0, std::int32_t z1) {
  return kCs2 *
         (slice_mean_density(solver, z0) - slice_mean_density(solver, z1));
}

Vec3 total_momentum(const Solver& solver) {
  Vec3 p;
  for (PointIndex i = 0; i < solver.size(); ++i) {
    const Moments m = solver.moments(i);
    p.x += m.rho * m.ux;
    p.y += m.rho * m.uy;
    p.z += m.rho * m.uz;
  }
  return p;
}

}  // namespace hemo::lbm
