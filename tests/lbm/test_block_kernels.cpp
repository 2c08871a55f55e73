// Coarsened (block) kernels against an oracle: the loop-form point
// kernels as they stood before the collide was unrolled and templated on
// the lane count, copied here verbatim in their arithmetic.  Every block
// kernel, every solver that launches them (lbm::Solver, all four
// DeviceSolver dialects at several engine thread counts, DistributedSolver
// at 1 and 4 ranks) and every update extent modulo kBlock must reproduce
// the oracle bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "base/rng.hpp"
#include "decomp/partition.hpp"
#include "geom/aorta.hpp"
#include "geom/cylinder.hpp"
#include "hal/device.hpp"
#include "harvey/device_solver.hpp"
#include "harvey/distributed_solver.hpp"
#include "lbm/aa_layout.hpp"
#include "lbm/kernels.hpp"
#include "lbm/solver.hpp"

namespace lbm = hemo::lbm;
namespace geom = hemo::geom;
namespace hal = hemo::hal;
namespace decomp = hemo::decomp;
using hemo::PointIndex;
using hemo::SplitMix64;
using lbm::c;
using lbm::kQ;

namespace {

// ---------------------------------------------------------------------------
// Oracle: the loop-form equilibrium, moments, collide and point kernels.
// ---------------------------------------------------------------------------
namespace oracle {

double equilibrium(int q, double rho, double ux, double uy, double uz) {
  const double cu = c(q, 0) * ux + c(q, 1) * uy + c(q, 2) * uz;
  const double u2 = ux * ux + uy * uy + uz * uz;
  return lbm::kWeights[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * u2);
}

lbm::Moments moments_of(const double f[kQ], double fx, double fy, double fz) {
  lbm::Moments m;
  for (int q = 0; q < kQ; ++q) {
    m.rho += f[q];
    m.ux += f[q] * c(q, 0);
    m.uy += f[q] * c(q, 1);
    m.uz += f[q] * c(q, 2);
  }
  m.ux = (m.ux + 0.5 * fx) / m.rho;
  m.uy = (m.uy + 0.5 * fy) / m.rho;
  m.uz = (m.uz + 0.5 * fz) / m.rho;
  return m;
}

void bgk_collide(const double f[kQ], const lbm::Moments& m, double omega,
                 double fx, double fy, double fz, double out[kQ]) {
  const double prefactor = 1.0 - 0.5 * omega;
  for (int q = 0; q < kQ; ++q) {
    const double feq = equilibrium(q, m.rho, m.ux, m.uy, m.uz);
    const double cu = c(q, 0) * m.ux + c(q, 1) * m.uy + c(q, 2) * m.uz;
    const double cf = c(q, 0) * fx + c(q, 1) * fy + c(q, 2) * fz;
    const double uf = m.ux * fx + m.uy * fy + m.uz * fz;
    const double source =
        prefactor * lbm::kWeights[q] * (3.0 * (cf - uf) + 9.0 * cu * cf);
    out[q] = f[q] - omega * (f[q] - feq) + source;
  }
}

/// Zou-He completion: the boundary helper is unchanged by the block
/// kernels, but the oracle carries its own copy of the NEBB equilibria.
void zou_he_complete(double f[kQ], std::uint32_t unknown, double rho,
                     double ux, double uy, double uz, int qa_x, int qb_x,
                     int qa_y, int qb_y) {
  for (int q = 0; q < kQ; ++q) {
    if (!(unknown & (1u << q))) continue;
    const int qo = lbm::opposite(q);
    f[q] = f[qo] + equilibrium(q, rho, ux, uy, uz) -
           equilibrium(qo, rho, ux, uy, uz);
  }
  const auto both_unknown = [unknown](int qa, int qb) {
    return (unknown & (1u << qa)) && (unknown & (1u << qb));
  };
  if (both_unknown(qa_x, qb_x)) {
    double mx = 0.0;
    for (int q = 0; q < kQ; ++q) mx += f[q] * c(q, 0);
    const double err = 0.5 * (mx - rho * ux);
    f[qa_x] -= err * c(qa_x, 0);
    f[qb_x] -= err * c(qb_x, 0);
  }
  if (both_unknown(qa_y, qb_y)) {
    double my = 0.0;
    for (int q = 0; q < kQ; ++q) my += f[q] * c(q, 1);
    const double err = 0.5 * (my - rho * uy);
    f[qa_y] -= err * c(qa_y, 1);
    f[qb_y] -= err * c(qb_y, 1);
  }
}

void complete_boundary(lbm::NodeType type, std::uint32_t unknown,
                       const lbm::KernelArgs& a, double f[kQ]) {
  if (unknown == 0) return;
  double s0 = 0.0, sm = 0.0, sp = 0.0;
  for (int q = 0; q < kQ; ++q) {
    if (c(q, 2) == 0) s0 += f[q];
    if (c(q, 2) < 0) sm += f[q];
    if (c(q, 2) > 0) sp += f[q];
  }
  if (type == lbm::NodeType::kVelocityInlet) {
    const double w = a.inlet_velocity;
    zou_he_complete(f, unknown, (s0 + 2.0 * sm) / (1.0 - w), 0.0, 0.0, w, 11,
                    14, 15, 18);
  } else if (type == lbm::NodeType::kPressureOutlet) {
    const double rho = a.outlet_density;
    zou_he_complete(f, unknown, rho, 0.0, 0.0, -1.0 + (s0 + 2.0 * sp) / rho,
                    13, 12, 17, 16);
  } else if (type == lbm::NodeType::kPressureOutletLow) {
    const double rho = a.outlet_density;
    zou_he_complete(f, unknown, rho, 0.0, 0.0, 1.0 - (s0 + 2.0 * sm) / rho, 11,
                    14, 15, 18);
  }
}

std::size_t at(const lbm::KernelArgs& a, int q, std::int64_t i) {
  return static_cast<std::size_t>(q) * static_cast<std::size_t>(a.n) +
         static_cast<std::size_t>(i);
}

void collide_into(const lbm::KernelArgs& a, const double f[kQ],
                  double out[kQ]) {
  const lbm::Moments m =
      oracle::moments_of(f, a.force_x, a.force_y, a.force_z);
  oracle::bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
}

void pull_point(const lbm::KernelArgs& a, std::int64_t i) {
  const auto type = static_cast<lbm::NodeType>(a.node_type[i]);
  double f[kQ];
  std::uint32_t unknown = 0;
  for (int q = 0; q < kQ; ++q) {
    const PointIndex up = a.adjacency[at(a, q, i)];
    if (up != hemo::kSolidNeighbor) {
      f[q] = a.f_in[at(a, q, up)];
    } else if (lbm::detail::boundary_unknown(type, q)) {
      unknown |= 1u << q;
      f[q] = 0.0;
    } else {
      f[q] = a.f_in[at(a, lbm::opposite(q), i)];
    }
  }
  complete_boundary(type, unknown, a, f);
  double out[kQ];
  collide_into(a, f, out);
  for (int q = 0; q < kQ; ++q) a.f_out[at(a, q, i)] = out[q];
}

void aa_even_point(const lbm::KernelArgs& a, std::int64_t i) {
  const auto type = static_cast<lbm::NodeType>(a.node_type[i]);
  double f[kQ];
  std::uint32_t unknown = 0;
  for (int q = 0; q < kQ; ++q) {
    const PointIndex up = a.adjacency[at(a, q, i)];
    if (up == hemo::kSolidNeighbor &&
        lbm::detail::boundary_unknown(type, q)) {
      unknown |= 1u << q;
      f[q] = 0.0;
    } else {
      f[q] = a.f[at(a, q, i)];
    }
  }
  complete_boundary(type, unknown, a, f);
  double out[kQ];
  collide_into(a, f, out);
  for (int q = 0; q < kQ; ++q) a.f[at(a, lbm::opposite(q), i)] = out[q];
}

void aa_odd_point(const lbm::KernelArgs& a, std::int64_t i) {
  const auto type = static_cast<lbm::NodeType>(a.node_type[i]);
  PointIndex up[kQ];
  double f[kQ];
  std::uint32_t unknown = 0;
  for (int q = 0; q < kQ; ++q) up[q] = a.adjacency[at(a, q, i)];
  for (int q = 0; q < kQ; ++q) {
    if (up[q] != hemo::kSolidNeighbor) {
      f[q] = a.f[at(a, lbm::opposite(q), up[q])];
    } else if (lbm::detail::boundary_unknown(type, q)) {
      unknown |= 1u << q;
      f[q] = 0.0;
    } else {
      f[q] = a.f[at(a, q, i)];
    }
  }
  complete_boundary(type, unknown, a, f);
  double out[kQ];
  collide_into(a, f, out);
  for (int q = 0; q < kQ; ++q) {
    const PointIndex down = up[lbm::opposite(q)];
    if (down != hemo::kSolidNeighbor) {
      a.f[at(a, q, down)] = out[q];
    } else {
      a.f[at(a, lbm::opposite(q), i)] = out[q];
    }
  }
}

/// Canonical snapshot after `steps` oracle steps from the equilibrium
/// fill of `o`, in the pattern `o.propagation` names.
std::vector<double> run(const lbm::SparseLattice& lattice,
                        const lbm::SolverOptions& o, int steps) {
  const std::int64_t n = lattice.size();
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::uint8_t> types(un);
  for (std::size_t i = 0; i < un; ++i)
    types[i] = static_cast<std::uint8_t>(
        lattice.node_type(static_cast<PointIndex>(i)));
  std::vector<double> cur(static_cast<std::size_t>(kQ) * un);
  for (int q = 0; q < kQ; ++q) {
    const double feq =
        equilibrium(q, o.initial_density, o.initial_velocity.x,
                    o.initial_velocity.y, o.initial_velocity.z);
    std::fill_n(cur.begin() + static_cast<std::ptrdiff_t>(q * un), un, feq);
  }
  std::vector<double> next(cur.size());
  lbm::KernelArgs a;
  a.adjacency = lattice.adjacency().data();
  a.node_type = types.data();
  a.n = n;
  a.omega = 1.0 / o.tau;
  a.force_x = o.body_force.x;
  a.force_y = o.body_force.y;
  a.force_z = o.body_force.z;
  a.inlet_velocity = o.inlet_velocity;
  a.outlet_density = o.outlet_density;
  if (o.propagation == lbm::Propagation::kAAInPlace) {
    lbm::aa_decanonicalize(a.adjacency, n, 0, cur.data(), next.data());
    a.f = next.data();
    for (int s = 0; s < steps; ++s)
      for (std::int64_t i = 0; i < n; ++i)
        (s % 2 == 0 ? aa_even_point : aa_odd_point)(a, i);
    lbm::aa_canonicalize(a.adjacency, n, steps, next.data(), cur.data());
    return cur;
  }
  for (int s = 0; s < steps; ++s) {
    a.f_in = cur.data();
    a.f_out = next.data();
    for (std::int64_t i = 0; i < n; ++i) pull_point(a, i);
    std::swap(cur, next);
  }
  return cur;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Geometry { kPeriodicCylinder, kInletOutletCylinder, kAorta };

std::shared_ptr<lbm::SparseLattice> make_lattice(Geometry g) {
  if (g == Geometry::kAorta) {
    geom::AortaSpec spec;
    spec.spacing_mm = 2.6;
    return geom::make_aorta_lattice(spec);
  }
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 11.0;
  if (g == Geometry::kPeriodicCylinder)
    return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kPeriodic);
  // A cylinder slice holds a multiple of 4 points (the cross-section has
  // 4-fold symmetry), so the inlet and outlet slices would fill whole
  // blocks.  Rotating the point order by one makes them straddle block
  // edges.
  const auto aligned =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
  const std::int64_t n = aligned->size();
  std::vector<hemo::Coord> coords(aligned->coords().begin() + 1,
                                  aligned->coords().end());
  coords.push_back(aligned->coord(0));
  auto rotated = std::make_shared<lbm::SparseLattice>(std::move(coords));
  for (std::int64_t i = 0; i < n; ++i)
    rotated->set_node_type(i, aligned->node_type((i + 1) % n));
  return rotated;
}

/// Blocks holding both bulk and Zou-He points: the blocks whose fallback
/// the sweeps must cover.
std::int64_t mixed_blocks(const lbm::SparseLattice& lattice) {
  std::int64_t mixed = 0;
  for (std::int64_t b = 0; b < lbm::block_count(lattice.size()); ++b) {
    bool bulk = false, boundary = false;
    for (std::int64_t i = b * lbm::kBlock;
         i < std::min((b + 1) * lbm::kBlock, lattice.size()); ++i)
      (lattice.node_type(i) == lbm::NodeType::kBulk ? bulk : boundary) = true;
    mixed += bulk && boundary;
  }
  return mixed;
}

lbm::SolverOptions options(Geometry g, lbm::Propagation pattern) {
  lbm::SolverOptions o;
  o.tau = 0.8;
  o.propagation = pattern;
  if (g == Geometry::kPeriodicCylinder) {
    o.body_force = {1e-6, -2e-6, 3e-5};
    o.initial_velocity = {0.0, 0.0, 0.01};
  } else {
    o.inlet_velocity = 0.015;
    o.outlet_density = 1.0;
    o.body_force = {0.0, 0.0, 1e-6};
  }
  return o;
}

const char* name_of(Geometry g) {
  switch (g) {
    case Geometry::kPeriodicCylinder: return "PeriodicCylinder";
    case Geometry::kInletOutletCylinder: return "InletOutletCylinder";
    case Geometry::kAorta: return "Aorta";
  }
  return "?";
}

void expect_bitwise(const std::vector<double>& want,
                    const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) {
    std::uint64_t w = 0, g = 0;
    std::memcpy(&w, &want[k], sizeof w);
    std::memcpy(&g, &got[k], sizeof g);
    ASSERT_EQ(w, g) << what << ": slot " << k << " (" << want[k] << " vs "
                    << got[k] << ")";
  }
}

/// Random but physical distribution state: equilibria of random moments,
/// perturbed per slot so every value differs.
std::vector<double> random_state(std::int64_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<double> f(static_cast<std::size_t>(kQ * n));
  for (std::int64_t i = 0; i < n; ++i) {
    const double rho = rng.uniform(0.95, 1.05);
    const double ux = rng.uniform(-0.02, 0.02);
    const double uy = rng.uniform(-0.02, 0.02);
    const double uz = rng.uniform(-0.02, 0.05);
    for (int q = 0; q < kQ; ++q)
      f[static_cast<std::size_t>(q * n + i)] =
          oracle::equilibrium(q, rho, ux, uy, uz) * rng.uniform(0.98, 1.02);
  }
  return f;
}

/// The kernel-level comparison: one sweep of `kernel` over the blocks of
/// `extent` points (stride n) against one oracle sweep over those points.
enum class Sweep { kPull, kAAEven, kAAOdd };

void expect_sweep_matches(const lbm::SparseLattice& lattice,
                          const lbm::SolverOptions& o, Sweep sweep,
                          std::int64_t extent, std::uint64_t seed) {
  const std::int64_t n = lattice.size();
  std::vector<std::uint8_t> types(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    types[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(lattice.node_type(i));
  const std::vector<double> input = random_state(n, seed);
  std::vector<double> want(input.size(), -1.0), got(input.size(), -1.0);

  lbm::KernelArgs a;
  a.adjacency = lattice.adjacency().data();
  a.node_type = types.data();
  a.n = n;
  a.omega = 1.0 / o.tau;
  a.force_x = o.body_force.x;
  a.force_y = o.body_force.y;
  a.force_z = o.body_force.z;
  a.inlet_velocity = o.inlet_velocity;
  a.outlet_density = o.outlet_density;
  const std::int64_t blocks = lbm::block_count(extent);

  if (sweep == Sweep::kPull) {
    a.f_in = input.data();
    a.f_out = want.data();
    for (std::int64_t i = 0; i < extent; ++i) oracle::pull_point(a, i);
    a.f_out = got.data();
    for (std::int64_t b = 0; b < blocks; ++b)
      lbm::stream_collide_block(a, b, extent);
  } else {
    want = input;
    got = input;
    const bool even = sweep == Sweep::kAAEven;
    a.f = want.data();
    for (std::int64_t i = 0; i < extent; ++i)
      (even ? oracle::aa_even_point : oracle::aa_odd_point)(a, i);
    a.f = got.data();
    for (std::int64_t b = 0; b < blocks; ++b) {
      if (even) {
        lbm::stream_collide_block_aa_even(a, b, extent);
      } else {
        lbm::stream_collide_block_aa_odd(a, b, extent);
      }
    }
  }
  expect_bitwise(want, got,
                 "sweep " + std::to_string(static_cast<int>(sweep)) +
                     " extent " + std::to_string(extent));
}

}  // namespace

class BlockKernel : public ::testing::TestWithParam<Geometry> {};

TEST_P(BlockKernel, SweepsMatchOracleAtEveryExtentResidue) {
  const auto lattice = make_lattice(GetParam());
  const lbm::SolverOptions o =
      options(GetParam(), lbm::Propagation::kPullSoA);
  const std::int64_t n = lattice->size();
  if (GetParam() != Geometry::kPeriodicCylinder) {
    ASSERT_GT(mixed_blocks(*lattice), 0);
  }
  // Extents n-3..n cover every residue modulo kBlock, so the tail block
  // takes the point fallback with 1, 2 and 3 points as well as not at all.
  for (std::int64_t extent = n - 3; extent <= n; ++extent)
    for (const Sweep sweep : {Sweep::kPull, Sweep::kAAEven, Sweep::kAAOdd})
      expect_sweep_matches(*lattice, o, sweep, extent,
                           static_cast<std::uint64_t>(extent));
}

TEST_P(BlockKernel, SerialSolverMatchesOracleInBothPatterns) {
  const auto lattice = make_lattice(GetParam());
  for (const auto pattern :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    const lbm::SolverOptions o = options(GetParam(), pattern);
    lbm::Solver solver(lattice, o);
    solver.run(5);
    expect_bitwise(oracle::run(*lattice, o, 5), solver.distributions(),
                   lbm::propagation_name(pattern));
  }
}

TEST_P(BlockKernel, EveryDialectMatchesOracleAtEngineThreads123) {
  const auto lattice = make_lattice(GetParam());
  hal::DeviceEngine& engine = hal::DeviceEngine::instance();
  const int saved_threads = engine.threads();
  for (const auto pattern :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    const lbm::SolverOptions o = options(GetParam(), pattern);
    const std::vector<double> want = oracle::run(*lattice, o, 5);
    for (const hal::Model model :
         {hal::Model::kCuda, hal::Model::kHip, hal::Model::kSycl,
          hal::Model::kKokkosCuda}) {
      for (const int threads : {1, 2, 3}) {
        engine.set_threads(threads);
        hemo::harvey::DeviceSolver device(lattice, o, model);
        device.run(5);
        expect_bitwise(want, device.distributions(),
                       std::string(hal::name_of(model)) + " " +
                           lbm::propagation_name(pattern) + " threads " +
                           std::to_string(threads));
      }
    }
  }
  engine.set_threads(saved_threads);
}

TEST_P(BlockKernel, DistributedSolverMatchesOracleAtOneAndFourRanks) {
  const auto lattice = make_lattice(GetParam());
  const lbm::SolverOptions o =
      options(GetParam(), lbm::Propagation::kPullSoA);
  const std::vector<double> want = oracle::run(*lattice, o, 5);
  for (const int ranks : {1, 4}) {
    hemo::harvey::DistributedSolver serial(
        lattice, decomp::bisection_partition(*lattice, ranks), o);
    serial.run(5);
    expect_bitwise(want, serial.global_distributions(),
                   "host loop, ranks " + std::to_string(ranks));
    hemo::harvey::DistributedSolver device(
        lattice, decomp::bisection_partition(*lattice, ranks), o);
    device.set_execution_model(hal::Model::kCuda);
    device.run(5);
    expect_bitwise(want, device.global_distributions(),
                   "cudax, ranks " + std::to_string(ranks));
  }
}

INSTANTIATE_TEST_SUITE_P(
    , BlockKernel,
    ::testing::Values(Geometry::kPeriodicCylinder,
                      Geometry::kInletOutletCylinder, Geometry::kAorta),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::string(name_of(info.param));
    });
