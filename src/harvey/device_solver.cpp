#include "harvey/device_solver.hpp"

#include <span>

#include "base/contracts.hpp"
#include "hal/device.hpp"
#include "lbm/aa_layout.hpp"
#include "lbm/probes.hpp"
#include "lbm/step.hpp"

namespace hemo::harvey {

DeviceSolver::DeviceSolver(std::shared_ptr<const lbm::SparseLattice> lattice,
                           lbm::SolverOptions options, hal::Model model)
    : lattice_(std::move(lattice)),
      options_(options),
      model_(model),
      runtime_(model) {
  HEMO_EXPECTS(lattice_ != nullptr);
  lbm::expect_valid(options_);
  const std::span<const PointIndex> adjacency(lattice_->adjacency());
  // Stage the initial state on the host, already in the pattern's layout,
  // and upload it once.
  std::vector<double> f_init(adjacency.size());
  lbm::fill_initial_state(options_, adjacency.data(), lattice_->size(),
                          f_init.data());
  f_a_ = hal::DeviceArray<double>(model_, std::span<const double>(f_init));
  if (options_.propagation == lbm::Propagation::kPullSoA)  // AA runs in place
    f_b_ = hal::DeviceArray<double>(model_, adjacency.size());
  adjacency_ = hal::DeviceArray<PointIndex>(model_, adjacency);
  node_type_ = hal::DeviceArray<std::uint8_t>(model_,
                                              lbm::node_type_bytes(*lattice_));
}

void DeviceSolver::step() {
  const std::int64_t n = lattice_->size();
  lbm::KernelArgs args = lbm::kernel_args(options_, adjacency_.data(),
                                          node_type_.data(), n);
  args.f_in = args.f = f_a_.data();
  args.f_out = f_b_.data();
  lbm::step_blocks(options_.propagation, steps_done_, args, n,
                   [this](std::int64_t items, const auto& body) {
                     hal::launch(model_, items, body);
                   });
  if (options_.propagation == lbm::Propagation::kPullSoA) std::swap(f_a_, f_b_);
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
