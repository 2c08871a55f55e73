#pragma once
// The stepping core every solver runs: lbm::Solver on the host,
// harvey::DeviceSolver through a dialect, and each rank of
// harvey::DistributedSolver.  The options precondition, the KernelArgs a
// step hands the block kernels, the initial state and the choice of
// kernel (pull, AA-even or AA-odd) are made here once; a solver only owns
// its buffers and says how a launch of work items runs (host_loop below,
// or hal::launch through a dialect).

#include <cmath>
#include <cstdint>
#include <span>

#include "base/contracts.hpp"
#include "base/types.hpp"
#include "lbm/kernels.hpp"
#include "lbm/propagation.hpp"
#include "lbm/sparse_lattice.hpp"

namespace hemo::lbm {

struct SolverOptions {
  double tau = 1.0;               // BGK relaxation time (omega = 1/tau)
  Vec3 body_force{};              // uniform Guo body force
  double inlet_velocity = 0.0;    // u_z at kVelocityInlet points
  double outlet_density = 1.0;    // rho at kPressureOutlet points
  double initial_density = 1.0;
  Vec3 initial_velocity{};
  Propagation propagation = Propagation::kPullSoA;
};

/// The precondition every solver constructor checks; aborts on violation.
inline void expect_valid(const SolverOptions& o) {
  HEMO_EXPECTS(o.tau > 0.5);  // positive viscosity / linear stability
  HEMO_EXPECTS(o.outlet_density > 0.0);
  HEMO_EXPECTS(std::abs(o.inlet_velocity) < 1.0);
}

/// The lattice's node types as the kernels read them: NodeType is one
/// byte, so the lattice's own array serves without a converted copy.
inline std::span<const std::uint8_t> node_type_bytes(
    const SparseLattice& lattice) {
  static_assert(sizeof(NodeType) == sizeof(std::uint8_t));
  return {reinterpret_cast<const std::uint8_t*>(lattice.node_types().data()),
          lattice.node_types().size()};
}

/// Kernel arguments for one lattice or rank: the physics of `o`, the
/// pull-neighbour table and node types, and the SoA stride `n` (points
/// per q row, ghosts included on a rank).  The distribution pointers are
/// the caller's: f_in/f_out for pull, f for AA.
inline KernelArgs kernel_args(const SolverOptions& o,
                              const PointIndex* adjacency,
                              const std::uint8_t* node_type, std::int64_t n) {
  KernelArgs a;
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

/// Writes the step-0 state of `o.propagation` into `f` (kQ * n values):
/// the uniform equilibrium at (initial_density, initial_velocity).  Pull
/// stores it canonically.  AA stores the even-parity layout of that
/// snapshot (lbm/aa_layout.hpp): slot (q, i) holds what a pull step would
/// gather, which for a uniform state is feq_q where the pull-upstream
/// neighbour is fluid and the bounced-back feq_{opp q} at a wall.
inline void fill_initial_state(const SolverOptions& o,
                               const PointIndex* adjacency, std::int64_t n,
                               double* f) {
  const Vec3& u0 = o.initial_velocity;
  double feq[kQ];
  for (int q = 0; q < kQ; ++q)
    feq[q] = equilibrium(q, o.initial_density, u0.x, u0.y, u0.z);
  const bool aa = o.propagation == Propagation::kAAInPlace;
  const auto un = static_cast<std::size_t>(n);
  for (int q = 0; q < kQ; ++q) {
    const std::size_t row = static_cast<std::size_t>(q) * un;
    for (std::size_t i = 0; i < un; ++i)
      f[row + i] = aa && adjacency[row + i] == kSolidNeighbor
                       ? feq[opposite(q)]
                       : feq[q];
  }
}

/// The host launcher: runs work items 0 .. items-1 in order on the
/// calling thread.
inline constexpr auto host_loop = [](std::int64_t items, const auto& body) {
  for (std::int64_t b = 0; b < items; ++b) body(b);
};

/// One step over points [0, extent): picks the block kernel for `pattern`
/// and the parity of `steps_done`, and hands block_count(extent) work
/// items to `launch(items, body)`.  The body captures `args` by value.
template <typename Launch>
void step_blocks(Propagation pattern, std::int64_t steps_done,
                 const KernelArgs& args, std::int64_t extent,
                 Launch&& launch) {
  const std::int64_t blocks = block_count(extent);
  if (pattern == Propagation::kPullSoA) {
    launch(blocks, [args, extent](std::int64_t b) {
      stream_collide_block(args, b, extent);
    });
  } else if (steps_done % 2 == 0) {
    launch(blocks, [args, extent](std::int64_t b) {
      stream_collide_block_aa_even(args, b, extent);
    });
  } else {
    launch(blocks, [args, extent](std::int64_t b) {
      stream_collide_block_aa_odd(args, b, extent);
    });
  }
}

}  // namespace hemo::lbm
