#pragma once
// DeviceSolver: the production-code path.  Runs the fused stream-collide
// kernel on "device" memory through one of the programming-model dialects
// (mini-CUDA, mini-HIP, mini-SYCL, or mini-Kokkos with any backend), each
// reached through hal::launch and hal::DeviceArray, so the kernel source
// is shared.  All dialects produce bit-identical physics; they differ in
// API mechanics and, on real hardware, in performance (modeled by
// hemo::sim).

#include <cstdint>
#include <memory>
#include <vector>

#include "hal/launch.hpp"
#include "hal/model.hpp"
#include "lbm/kernels.hpp"
#include "lbm/solver.hpp"
#include "lbm/sparse_lattice.hpp"

namespace hemo::harvey {

class DeviceSolver {
 public:
  DeviceSolver(std::shared_ptr<const lbm::SparseLattice> lattice,
               lbm::SolverOptions options, hal::Model model);

  DeviceSolver(const DeviceSolver&) = delete;
  DeviceSolver& operator=(const DeviceSolver&) = delete;

  void step();
  void run(int steps);

  hal::Model model() const { return model_; }
  PointIndex size() const { return lattice_->size(); }
  std::int64_t step_count() const { return steps_done_; }
  const lbm::SparseLattice& lattice() const { return *lattice_; }

  /// Copies the current post-collision distributions back to the host
  /// (canonical q-major SoA), through the dialect's transfer mechanism.
  /// Under the AA pattern the in-place device array is canonicalized on
  /// the host, so callers see the same snapshot as the pull path.
  std::vector<double> distributions() const;

  /// Host copy of the RAW live device array — no canonicalization — plus
  /// its layout, for SDC probes: the canonical conversion does not read
  /// every AA slot, so only the live view sees all the state a later
  /// kernel step may consume.
  std::vector<double> live_distributions() const;
  lbm::LiveLayout live_layout() const {
    return lbm::live_layout_of(options_.propagation, steps_done_);
  }

  /// Tile digests of the live device state (see lbm/tile_probe.hpp).
  std::vector<lbm::TileDigest> tile_digests(std::int64_t tile_points) const;

  lbm::Moments moments(PointIndex i) const;
  /// Compensated (Neumaier) sum of distributions().
  double total_mass() const;

 private:
  std::shared_ptr<const lbm::SparseLattice> lattice_;
  lbm::SolverOptions options_;
  hal::Model model_;
  hal::ModelRuntime runtime_;  // declared before the arrays: outlives them
  // f_a_ is the live array: the pull path's post-collision SoA, or the AA
  // in-place array.  f_b_ is the pull path's second buffer (empty for AA).
  hal::DeviceArray<double> f_a_;
  hal::DeviceArray<double> f_b_;
  hal::DeviceArray<PointIndex> adjacency_;
  hal::DeviceArray<std::uint8_t> node_type_;
  std::int64_t steps_done_ = 0;
};

}  // namespace hemo::harvey
