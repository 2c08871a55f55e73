// DeviceSolver tests: every programming-model dialect must produce
// bit-identical physics to the host reference solver — the functional
// portability property underlying the whole study.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "geom/aorta.hpp"
#include "geom/cylinder.hpp"
#include "hal/device.hpp"
#include "hal/kokkosx.hpp"
#include "harvey/device_solver.hpp"
#include "lbm/solver.hpp"

namespace geom = hemo::geom;
namespace lbm = hemo::lbm;
namespace hal = hemo::hal;
using hemo::harvey::DeviceSolver;

namespace {

std::shared_ptr<lbm::SparseLattice> workload() {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 12.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

lbm::SolverOptions options() {
  lbm::SolverOptions o;
  o.tau = 0.8;
  o.inlet_velocity = 0.015;
  o.outlet_density = 1.0;
  o.body_force = {0.0, 0.0, 1e-6};
  return o;
}

}  // namespace

class DeviceSolverModels : public ::testing::TestWithParam<hal::Model> {};

TEST_P(DeviceSolverModels, MatchesHostReferenceBitwise) {
  auto lattice = workload();
  lbm::Solver reference(lattice, options());
  DeviceSolver device(lattice, options(), GetParam());

  reference.run(20);
  device.run(20);

  const std::vector<double>& ref = reference.distributions();
  const std::vector<double> dev = device.distributions();
  ASSERT_EQ(ref.size(), dev.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_EQ(ref[k], dev[k]) << "mismatch at flat index " << k << " for "
                              << hal::name_of(GetParam());
  // Both solvers sum the same bits through the same compensated sum.
  EXPECT_EQ(device.total_mass(), reference.total_mass());
}

TEST_P(DeviceSolverModels, ConservesMassWithClosedBoundaries) {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 6.0;
  auto lattice = geom::make_cylinder_lattice(spec, geom::CylinderEnds::kPeriodic);
  lbm::SolverOptions o;
  o.tau = 1.0;
  o.body_force = {0.0, 0.0, 1e-6};
  DeviceSolver device(lattice, o, GetParam());
  const double mass0 = device.total_mass();
  device.run(50);
  EXPECT_NEAR(device.total_mass(), mass0, 1e-9 * mass0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DeviceSolverModels,
    ::testing::ValuesIn(hal::kAllModels),
    [](const ::testing::TestParamInfo<hal::Model>& info) {
      std::string n{hal::name_of(info.param)};
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST_P(DeviceSolverModels, MomentsMatchHostAndCopyOnlyThePoint) {
  // moments(i) reads point i's 19 canonical values from their live slots
  // (AA parity included) instead of copying the whole array per call.
  auto lattice = workload();
  auto& eng = hal::DeviceEngine::instance();
  for (const auto pattern :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    lbm::SolverOptions o = options();
    o.propagation = pattern;
    lbm::Solver reference(lattice, o);
    DeviceSolver device(lattice, o, GetParam());
    for (int step = 0; step < 3; ++step) {  // both AA parities
      for (hemo::PointIndex i = 0; i < lattice->size(); ++i) {
        const std::int64_t before = eng.counters().bytes_d2h;
        const lbm::Moments got = device.moments(i);
        ASSERT_EQ(eng.counters().bytes_d2h - before,
                  static_cast<std::int64_t>(lbm::kQ * sizeof(double)));
        const lbm::Moments want = reference.moments(i);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << lbm::propagation_name(pattern) << " point " << i
            << " after " << step << " steps";
      }
      reference.step();
      device.step();
    }
  }
}

TEST(DeviceSolverCrossDialect, AllSevenModelsAgreeBitwise) {
  auto lattice = workload();
  const lbm::SolverOptions o = options();

  // Kokkos backends must be exercised one at a time (one backend per
  // process-wide runtime, as with real Kokkos); plain dialects coexist.
  std::vector<double> baseline;
  {
    DeviceSolver cuda(lattice, o, hal::Model::kCuda);
    cuda.run(10);
    baseline = cuda.distributions();
  }
  for (hal::Model m : hal::kAllModels) {
    DeviceSolver solver(lattice, o, m);
    solver.run(10);
    const std::vector<double> f = solver.distributions();
    ASSERT_EQ(f.size(), baseline.size());
    for (std::size_t k = 0; k < f.size(); ++k)
      ASSERT_EQ(f[k], baseline[k]) << hal::name_of(m) << " diverged at " << k;
  }
}

TEST(DeviceSolverLifecycle, RejectsTheOptionsTheReferenceSolverRejects) {
  // One precondition for every solver: options lbm::Solver refuses must
  // not run on a device either.
  auto lattice = workload();
  lbm::SolverOptions low_tau = options();
  low_tau.tau = 0.5;
  EXPECT_DEATH(DeviceSolver(lattice, low_tau, hal::Model::kCuda),
               "Precondition");
  lbm::SolverOptions no_outlet_density = options();
  no_outlet_density.outlet_density = 0.0;
  EXPECT_DEATH(DeviceSolver(lattice, no_outlet_density, hal::Model::kCuda),
               "Precondition");
  lbm::SolverOptions sonic_inlet = options();
  sonic_inlet.inlet_velocity = -1.0;
  EXPECT_DEATH(DeviceSolver(lattice, sonic_inlet, hal::Model::kCuda),
               "Precondition");
}

TEST(DeviceSolverLifecycle, NoDeviceMemoryLeaks) {
  auto& eng = hal::DeviceEngine::instance();
  const std::size_t live_before = eng.live_allocations();
  for (const hal::Model model : hal::kAllModels) {
    for (const auto pattern :
         {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
      lbm::SolverOptions o = options();
      o.propagation = pattern;
      {
        DeviceSolver solver(workload(), o, model);
        solver.run(3);  // an odd count leaves the pull buffers swapped
        // f, adjacency and node types, plus pull's second f buffer.
        EXPECT_EQ(eng.live_allocations(),
                  live_before +
                      (pattern == lbm::Propagation::kPullSoA ? 4u : 3u))
            << hal::name_of(model) << " " << lbm::propagation_name(pattern);
      }
      EXPECT_EQ(eng.live_allocations(), live_before)
          << hal::name_of(model) << " " << lbm::propagation_name(pattern);
    }
  }
}

TEST(DeviceSolverLifecycle, KokkosRuntimeIsScopedToTheSolver) {
  namespace kx = hal::kokkosx;
  ASSERT_FALSE(kx::is_initialized());
  {
    DeviceSolver solver(workload(), options(), hal::Model::kKokkosSycl);
    EXPECT_TRUE(kx::is_initialized());
    EXPECT_EQ(kx::current_backend(), hal::Backend::kSycl);
  }
  EXPECT_FALSE(kx::is_initialized());
}

namespace {

lbm::SolverOptions aa_options() {
  lbm::SolverOptions o = options();
  o.propagation = lbm::Propagation::kAAInPlace;
  return o;
}

std::shared_ptr<lbm::SparseLattice> small_aorta() {
  geom::AortaSpec spec;
  spec.spacing_mm = 2.6;
  return geom::make_aorta_lattice(spec);
}

void expect_aa_matches_pull_host(std::shared_ptr<lbm::SparseLattice> lattice,
                                 hal::Model model, int steps) {
  lbm::Solver reference(lattice, options());  // pull-SoA host ground truth
  DeviceSolver device(lattice, aa_options(), model);
  reference.run(steps);
  device.run(steps);
  const std::vector<double>& ref = reference.distributions();
  const std::vector<double> dev = device.distributions();
  ASSERT_EQ(ref.size(), dev.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_EQ(ref[k], dev[k]) << "mismatch at flat index " << k << " for "
                              << hal::name_of(model) << " after " << steps
                              << " steps";
}

}  // namespace

// The AA in-place pattern must be bit-identical to the pull-SoA host
// reference in every dialect, at both step-count parities (the AA array's
// layout differs between the two) and on both example geometries.
TEST_P(DeviceSolverModels, AAPatternMatchesPullHostAtEvenParity) {
  expect_aa_matches_pull_host(workload(), GetParam(), 20);
}

TEST_P(DeviceSolverModels, AAPatternMatchesPullHostAtOddParity) {
  expect_aa_matches_pull_host(workload(), GetParam(), 13);
}

TEST_P(DeviceSolverModels, AAPatternMatchesPullHostOnAorta) {
  expect_aa_matches_pull_host(small_aorta(), GetParam(), 5);
}

TEST(DeviceSolverCrossDialect, AAPatternAllSevenModelsAgreeBitwise) {
  auto lattice = workload();
  std::vector<double> baseline;
  {
    lbm::Solver host(lattice, aa_options());
    host.run(11);
    baseline = host.distributions();
  }
  for (hal::Model m : hal::kAllModels) {
    DeviceSolver solver(lattice, aa_options(), m);
    solver.run(11);
    const std::vector<double> f = solver.distributions();
    ASSERT_EQ(f.size(), baseline.size());
    for (std::size_t k = 0; k < f.size(); ++k)
      ASSERT_EQ(f[k], baseline[k]) << hal::name_of(m) << " diverged at " << k;
  }
}

TEST(DeviceSolverThreading, AAChunkedExecutionIsBitwiseIdentical) {
  // The odd AA step scatters into neighbor slots; the slot-ownership
  // argument (each slot written by exactly one point, no point reads a
  // slot another point writes that step) must hold under real threads.
  auto lattice = workload();
  lbm::Solver reference(lattice, options());
  reference.run(11);

  auto& eng = hal::DeviceEngine::instance();
  eng.set_threads(4);
  DeviceSolver threaded(lattice, aa_options(), hal::Model::kCuda);
  threaded.run(11);
  eng.set_threads(1);

  const std::vector<double>& ref = reference.distributions();
  const std::vector<double> dev = threaded.distributions();
  ASSERT_EQ(ref.size(), dev.size());
  for (std::size_t k = 0; k < ref.size(); ++k) ASSERT_EQ(ref[k], dev[k]);
}

TEST(DeviceSolverThreading, ChunkedExecutionIsBitwiseIdentical) {
  // The engine may split launches across host threads; each index writes
  // only its own point, so results must not depend on the chunking.
  auto lattice = workload();
  lbm::Solver reference(lattice, options());
  reference.run(10);

  auto& eng = hal::DeviceEngine::instance();
  eng.set_threads(4);
  DeviceSolver threaded(lattice, options(), hal::Model::kCuda);
  threaded.run(10);
  eng.set_threads(1);

  const std::vector<double>& ref = reference.distributions();
  const std::vector<double> dev = threaded.distributions();
  ASSERT_EQ(ref.size(), dev.size());
  for (std::size_t k = 0; k < ref.size(); ++k) ASSERT_EQ(ref[k], dev[k]);
}
