#include "harvey/device_solver.hpp"

#include <span>

#include "base/contracts.hpp"
#include "hal/device.hpp"
#include "lbm/aa_layout.hpp"
#include "lbm/probes.hpp"

namespace hemo::harvey {

namespace {

/// Host-side staging of the node types and initial distributions.
/// For the AA pattern the initial equilibrium snapshot is decanonicalized
/// into the even-parity in-place layout before upload, so step 1 on the
/// device is bit-identical to the pull path from the very first gather.
struct HostState {
  std::vector<std::uint8_t> node_type;
  std::vector<double> f_init;

  HostState(const lbm::SparseLattice& lattice,
            const lbm::SolverOptions& options) {
    const auto n = static_cast<std::size_t>(lattice.size());
    node_type.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      node_type[i] = static_cast<std::uint8_t>(
          lattice.node_type(static_cast<PointIndex>(i)));
    f_init.resize(static_cast<std::size_t>(lbm::kQ) * n);
    const Vec3& u0 = options.initial_velocity;
    for (int q = 0; q < lbm::kQ; ++q) {
      const double feq =
          lbm::equilibrium(q, options.initial_density, u0.x, u0.y, u0.z);
      std::fill_n(f_init.begin() + static_cast<std::ptrdiff_t>(q) *
                                       static_cast<std::ptrdiff_t>(n),
                  n, feq);
    }
    if (options.propagation == lbm::Propagation::kAAInPlace) {
      std::vector<double> canonical = f_init;
      lbm::aa_decanonicalize(lattice.adjacency().data(), lattice.size(),
                             /*steps_done=*/0, canonical.data(),
                             f_init.data());
    }
  }
};

lbm::KernelArgs make_args(const double* f_in, double* f_out,
                          const PointIndex* adjacency,
                          const std::uint8_t* node_type, std::int64_t n,
                          const lbm::SolverOptions& o) {
  lbm::KernelArgs a;
  a.f_in = f_in;
  a.f_out = f_out;
  a.adjacency = adjacency;
  a.node_type = node_type;
  a.n = n;
  a.omega = 1.0 / o.tau;
  a.force_x = o.body_force.x;
  a.force_y = o.body_force.y;
  a.force_z = o.body_force.z;
  a.inlet_velocity = o.inlet_velocity;
  a.outlet_density = o.outlet_density;
  return a;
}

/// Args for an AA launch: the single array is all three of f_in/f_out/f
/// (the AA kernels only read .f, but keeping the pull fields pointed at
/// the same storage keeps make_args-built args fully initialized).
lbm::KernelArgs make_aa_args(double* f, const PointIndex* adjacency,
                             const std::uint8_t* node_type, std::int64_t n,
                             const lbm::SolverOptions& o) {
  lbm::KernelArgs a = make_args(f, f, adjacency, node_type, n, o);
  a.f = f;
  return a;
}

}  // namespace

DeviceSolver::DeviceSolver(std::shared_ptr<const lbm::SparseLattice> lattice,
                           lbm::SolverOptions options, hal::Model model)
    : lattice_(std::move(lattice)),
      options_(options),
      model_(model),
      runtime_(model) {
  HEMO_EXPECTS(lattice_ != nullptr);
  HEMO_EXPECTS(options_.tau > 0.5);
  const HostState host(*lattice_, options_);
  f_a_ = hal::DeviceArray<double>(model_, std::span<const double>(host.f_init));
  if (options_.propagation == lbm::Propagation::kPullSoA)  // AA runs in place
    f_b_ = hal::DeviceArray<double>(model_, host.f_init.size());
  adjacency_ = hal::DeviceArray<PointIndex>(
      model_, std::span<const PointIndex>(lattice_->adjacency()));
  node_type_ = hal::DeviceArray<std::uint8_t>(
      model_, std::span<const std::uint8_t>(host.node_type));
}

void DeviceSolver::step() {
  const std::int64_t n = lattice_->size();
  const std::int64_t blocks = lbm::block_count(n);
  if (options_.propagation == lbm::Propagation::kAAInPlace) {
    const lbm::KernelArgs args = make_aa_args(
        f_a_.data(), adjacency_.data(), node_type_.data(), n, options_);
    if (steps_done_ % 2 == 0) {
      hal::launch(model_, blocks, [args, n](std::int64_t b) {
        lbm::stream_collide_block_aa_even(args, b, n);
      });
    } else {
      hal::launch(model_, blocks, [args, n](std::int64_t b) {
        lbm::stream_collide_block_aa_odd(args, b, n);
      });
    }
  } else {
    const lbm::KernelArgs args =
        make_args(f_a_.data(), f_b_.data(), adjacency_.data(),
                  node_type_.data(), n, options_);
    hal::launch(model_, blocks, [args, n](std::int64_t b) {
      lbm::stream_collide_block(args, b, n);
    });
    std::swap(f_a_, f_b_);
  }
  ++steps_done_;
}

void DeviceSolver::run(int steps) {
  HEMO_EXPECTS(steps >= 0);
  for (int s = 0; s < steps; ++s) step();
}

std::vector<double> DeviceSolver::distributions() const {
  std::vector<double> raw = f_a_.download();
  if (options_.propagation != lbm::Propagation::kAAInPlace) return raw;
  std::vector<double> canonical(raw.size());
  lbm::aa_canonicalize(lattice_->adjacency().data(), lattice_->size(),
                       steps_done_, raw.data(), canonical.data());
  return canonical;
}

std::vector<double> DeviceSolver::live_distributions() const {
  return f_a_.download();
}

std::vector<lbm::TileDigest> DeviceSolver::tile_digests(
    std::int64_t tile_points) const {
  const std::vector<double> live = f_a_.download();
  return lbm::digest_tiles(live.data(), lattice_->size(), lattice_->size(),
                           tile_points, live_layout());
}

lbm::Moments DeviceSolver::moments(PointIndex i) const {
  HEMO_EXPECTS(i >= 0 && i < lattice_->size());
  // Only point i's 19 canonical values cross to the host, each read from
  // the live slot that holds it at the current AA parity.
  const std::int64_t n = lattice_->size();
  const bool aa = options_.propagation == lbm::Propagation::kAAInPlace;
  const double* live = f_a_.data();
  double fi[lbm::kQ];
  for (int q = 0; q < lbm::kQ; ++q) {
    const std::size_t slot =
        aa ? lbm::aa_canonical_slot(lattice_->adjacency().data(), n,
                                    steps_done_, q, i)
           : static_cast<std::size_t>(q) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(i);
    hal::DeviceEngine::instance().copy_d2h(&fi[q], live + slot,
                                           sizeof(double));
  }
  return lbm::moments_of(fi, options_.body_force.x, options_.body_force.y,
                         options_.body_force.z);
}

double DeviceSolver::total_mass() const {
  return lbm::neumaier_sum(distributions());
}

}  // namespace hemo::harvey
