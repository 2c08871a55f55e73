#pragma once
// Kernel bodies for the fused stream-collide update and its ablation
// variants.  Bodies are expressed as per-point inline functions over raw
// pointers so the same code can be launched through every programming-model
// dialect in hemo::hal (mini-CUDA, mini-HIP, mini-SYCL, mini-Kokkos), as the
// paper does with HARVEY's kernels across CUDA/HIP/SYCL/Kokkos.
//
// Storage layout is structure-of-arrays (q-major): value (q, i) lives at
// f[q * n + i].  Two propagation patterns are implemented (see
// lbm/propagation.hpp):
//
//   Pull (f_in/f_out): direction q of point i is gathered from the
//   upstream neighbor adjacency[q * n + i]; a missing neighbor
//   (kSolidNeighbor) applies halfway bounce-back.  Each step reads one
//   full array and writes a second.
//
//   AA in-place (f): a single array updated in place.  Even steps are
//   purely local — each point reads its straight slots (which hold the
//   streamed-in pre-collision populations), collides, and writes the
//   results to its opposite slots.  Odd steps gather direction q from the
//   upstream neighbor's opposite slot, collide, and scatter direction q to
//   the downstream neighbor's straight slot (or bounce it into the point's
//   own opposite slot at walls), re-establishing the even-step invariant.
//   Per odd step every slot is written by exactly one point and every slot
//   a point reads is touched by no other point, so the update is race-free
//   under any launch chunking without double buffering.
//
// Inlet/outlet points complete their unknown populations with the Zou-He
// (non-equilibrium bounce-back) construction before colliding; both
// patterns and both layouts share one boundary-completion helper so the
// variants cannot drift.
//
// Coarsened launch: the solvers launch one work item per block of kBlock
// consecutive points (stream_collide_block*), not one per point.  A block
// whose points are all bulk gathers its kBlock x 19 values into lanes,
// collides them together and stores or scatters them; a block holding any
// inlet/outlet point, or running past the update extent, falls back to the
// point kernels point by point.  There is one collide body, templated on
// the lane count (detail::moments_lanes / bgk_collide_lanes); moments_of
// and bgk_collide are its one-lane use, so the point and block kernels
// cannot drift and produce the same bits per point.

#include <algorithm>
#include <cstdint>

#include "base/types.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/sparse_lattice.hpp"

namespace hemo::lbm {

/// Everything a stream-collide launch needs, as plain pointers: this struct
/// is the kernel ABI shared by all hal dialects.
struct KernelArgs {
  const double* f_in = nullptr;    // pull: post-collision values of step t-1
  double* f_out = nullptr;         // pull: post-collision values of step t
  double* f = nullptr;             // AA: the single in-place array
  const PointIndex* adjacency = nullptr;  // kQ * n, q-major, pull neighbors
  const std::uint8_t* node_type = nullptr;  // NodeType per point
  std::int64_t n = 0;              // SoA stride: points per q row
  double omega = 1.0;              // BGK relaxation rate (1/tau)
  double force_x = 0.0, force_y = 0.0, force_z = 0.0;  // body force (Guo)
  double inlet_velocity = 0.0;     // prescribed u_z at velocity inlets
  double outlet_density = 1.0;     // prescribed rho at pressure outlets
};

struct Moments {
  double rho = 0.0;
  double ux = 0.0, uy = 0.0, uz = 0.0;
};

/// Moments of L points collided together, one lane per point.
template <int L>
struct LaneMoments {
  double rho[L], ux[L], uy[L], uz[L];
};

namespace detail {

// The collide body, shared by the point kernels (L = 1, through
// moments_of and bgk_collide) and the block kernels (L = kBlock).
// Distribution sets are lane-minor, value (q, l) at f[q * L + l], so each
// per-q operation runs across the lanes as straight vector code.  The q
// loops are fully unrolled, which makes every c(q, a) a compile-time
// constant: zero terms drop out and unit terms add or subtract.  Each lane
// sees the operations in the order of the plain loop over q, so the lane
// count does not change the bits.

/// Density and (force-corrected) velocity moments of L lanes.
template <int L>
inline void moments_lanes(const double f[kQ * L], double fx, double fy,
                          double fz, LaneMoments<L>& m) {
  for (int l = 0; l < L; ++l) {
    m.rho[l] = 0.0;
    m.ux[l] = 0.0;
    m.uy[l] = 0.0;
    m.uz[l] = 0.0;
  }
#pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    for (int l = 0; l < L; ++l) {
      m.rho[l] += f[q * L + l];
      if (c(q, 0) != 0) m.ux[l] += f[q * L + l] * c(q, 0);
      if (c(q, 1) != 0) m.uy[l] += f[q * L + l] * c(q, 1);
      if (c(q, 2) != 0) m.uz[l] += f[q * L + l] * c(q, 2);
    }
  }
  for (int l = 0; l < L; ++l) {
    // Guo forcing: macroscopic velocity includes half the force impulse.
    m.ux[l] = (m.ux[l] + 0.5 * fx) / m.rho[l];
    m.uy[l] = (m.uy[l] + 0.5 * fy) / m.rho[l];
    m.uz[l] = (m.uz[l] + 0.5 * fz) / m.rho[l];
  }
}

/// BGK relaxation with the Guo forcing term over L lanes.
template <int L>
inline void bgk_collide_lanes(const double f[kQ * L], const LaneMoments<L>& m,
                              double omega, double fx, double fy, double fz,
                              double out[kQ * L]) {
  const double prefactor = 1.0 - 0.5 * omega;
#pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    const double cf = dot_c(q, fx, fy, fz);
    for (int l = 0; l < L; ++l) {
      const double feq = equilibrium(q, m.rho[l], m.ux[l], m.uy[l], m.uz[l]);
      const double cu = dot_c(q, m.ux[l], m.uy[l], m.uz[l]);
      const double uf = m.ux[l] * fx + m.uy[l] * fy + m.uz[l] * fz;
      const double source =
          prefactor * kWeights[q] * (3.0 * (cf - uf) + 9.0 * cu * cf);
      out[q * L + l] = f[q * L + l] - omega * (f[q * L + l] - feq) + source;
    }
  }
}

}  // namespace detail

/// Density and (force-corrected) velocity moments of one distribution set.
inline Moments moments_of(const double f[kQ], double fx, double fy, double fz) {
  LaneMoments<1> m;
  detail::moments_lanes<1>(f, fx, fy, fz, m);
  return Moments{m.rho[0], m.ux[0], m.uy[0], m.uz[0]};
}

/// BGK relaxation with the Guo forcing term, writing post-collision values.
inline void bgk_collide(const double f[kQ], const Moments& m, double omega,
                        double fx, double fy, double fz, double out[kQ]) {
  const LaneMoments<1> lanes{{m.rho}, {m.ux}, {m.uy}, {m.uz}};
  detail::bgk_collide_lanes<1>(f, lanes, omega, fx, fy, fz, out);
}

namespace detail {

/// True when direction q at a node of this type is an unknown population
/// when its upstream neighbor is missing: it points in through an open
/// inlet/outlet face rather than a wall, so bounce-back does not apply and
/// the Zou-He construction must supply it.
inline bool boundary_unknown(NodeType type, int q) {
  const bool zmin_unknown = (type == NodeType::kVelocityInlet ||
                             type == NodeType::kPressureOutletLow) &&
                            c(q, 2) > 0;
  const bool zmax_unknown = type == NodeType::kPressureOutlet && c(q, 2) < 0;
  return zmin_unknown || zmax_unknown;
}

/// Completes unknown populations with non-equilibrium bounce-back against
/// target moments (rho, u), then repairs transverse momentum exactly using
/// the +/- diagonal pair (qa carries +e_axis, qb carries -e_axis).  The
/// repair is only applied when both pair members are unknown (true on face
/// interiors; corner points keep the plain NEBB value).
inline void zou_he_complete(double f[kQ], std::uint32_t unknown, double rho,
                            double ux, double uy, double uz, int qa_x, int qb_x,
                            int qa_y, int qb_y) {
  for (int q = 0; q < kQ; ++q) {
    if (!(unknown & (1u << q))) continue;
    const int qo = opposite(q);
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

/// Zou-He boundary completion dispatched by node type.  Shared by the
/// pull-SoA, AoS-ablation and AA kernel variants — the per-face target
/// moments (density from the z-momentum balance at velocity inlets,
/// velocity from the prescribed density at pressure outlets, with the
/// normal flipped on z-min faces) are written once here so the layouts
/// cannot drift.  Node types that never produce unknown populations
/// (boundary_unknown above) complete nothing.
inline void complete_boundary(NodeType type, std::uint32_t unknown,
                              double inlet_velocity, double outlet_density,
                              double f[kQ]) {
  if (unknown == 0) return;
  if (type == NodeType::kVelocityInlet) {
    // Prescribed u = (0, 0, w); unknowns have c_z > 0.  Density follows
    // from the z-momentum balance: rho = (S_0 + 2 S_-) / (1 - w).
    double s0 = 0.0, sm = 0.0;
    for (int q = 0; q < kQ; ++q) {
      if (c(q, 2) == 0) s0 += f[q];
      if (c(q, 2) < 0) sm += f[q];
    }
    const double w = inlet_velocity;
    const double rho = (s0 + 2.0 * sm) / (1.0 - w);
    zou_he_complete(f, unknown, rho, 0.0, 0.0, w,
                    /*+x,+z*/ 11, /*-x,+z*/ 14,
                    /*+y,+z*/ 15, /*-y,+z*/ 18);
  } else if (type == NodeType::kPressureOutlet) {
    // Prescribed rho; unknowns have c_z < 0.  Outflow velocity follows
    // from the same balance with the opposite normal.
    double s0 = 0.0, sp = 0.0;
    for (int q = 0; q < kQ; ++q) {
      if (c(q, 2) == 0) s0 += f[q];
      if (c(q, 2) > 0) sp += f[q];
    }
    const double rho = outlet_density;
    const double uz = -1.0 + (s0 + 2.0 * sp) / rho;
    zou_he_complete(f, unknown, rho, 0.0, 0.0, uz,
                    /*+x,-z*/ 13, /*-x,-z*/ 12,
                    /*+y,-z*/ 17, /*-y,-z*/ 16);
  } else if (type == NodeType::kPressureOutletLow) {
    // Pressure boundary on a z-min face (outflow toward -z); unknowns have
    // c_z > 0 and the velocity follows with the normal flipped.
    double s0 = 0.0, sm = 0.0;
    for (int q = 0; q < kQ; ++q) {
      if (c(q, 2) == 0) s0 += f[q];
      if (c(q, 2) < 0) sm += f[q];
    }
    const double rho = outlet_density;
    const double uz = 1.0 - (s0 + 2.0 * sm) / rho;
    zou_he_complete(f, unknown, rho, 0.0, 0.0, uz,
                    /*+x,+z*/ 11, /*-x,+z*/ 14,
                    /*+y,+z*/ 15, /*-y,+z*/ 18);
  }
}

/// Gather step of the pull scheme for one point.  Returns a bitmask of the
/// directions left unknown (only possible on inlet/outlet faces); all other
/// missing neighbors take the halfway bounce-back value.
inline std::uint32_t gather(const KernelArgs& a, std::int64_t i,
                            NodeType type, double f[kQ]) {
  std::uint32_t unknown = 0;
  for (int q = 0; q < kQ; ++q) {
    const PointIndex up = a.adjacency[static_cast<std::size_t>(q) * a.n + i];
    if (up != kSolidNeighbor) {
      f[q] = a.f_in[static_cast<std::size_t>(q) * a.n + up];
      continue;
    }
    if (boundary_unknown(type, q)) {
      unknown |= 1u << q;
      f[q] = 0.0;
    } else {
      f[q] = a.f_in[static_cast<std::size_t>(opposite(q)) * a.n + i];
    }
  }
  return unknown;
}

}  // namespace detail

/// Gather + boundary completion: reconstructs the full pre-collision
/// distribution set of point i (pull streaming, bounce-back, Zou-He).
/// Used by the update kernels and by post-processing that needs the
/// pre-collision state (e.g. the deviatoric stress, whose
/// non-equilibrium content is destroyed by collision at omega = 1).
inline void gather_pre_collision(const KernelArgs& a, std::int64_t i,
                                 double f[kQ]) {
  const auto type = static_cast<NodeType>(a.node_type[i]);
  const std::uint32_t unknown = detail::gather(a, i, type, f);
  detail::complete_boundary(type, unknown, a.inlet_velocity,
                            a.outlet_density, f);
}

/// Fused pull-stream + boundary + BGK collide update for point i.
/// This is the performance-critical kernel of the whole application; the
/// paper's performance model charges it kQ reads + kQ writes of 8 bytes
/// per fluid point (Section 6, Eq. 1).
inline void stream_collide_point(const KernelArgs& a, std::int64_t i) {
  double f[kQ];
  gather_pre_collision(a, i, f);

  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  for (int q = 0; q < kQ; ++q)
    a.f_out[static_cast<std::size_t>(q) * a.n + i] = out[q];
}

/// Ablation variant: streaming only (gather + boundary completion), used by
/// the two-pass update in bench_ablation_fused.
inline void stream_point(const KernelArgs& a, std::int64_t i) {
  double f[kQ];
  gather_pre_collision(a, i, f);
  for (int q = 0; q < kQ; ++q)
    a.f_out[static_cast<std::size_t>(q) * a.n + i] = f[q];
}

/// Ablation variant: collision only, applied in place over f_out.
inline void collide_point(const KernelArgs& a, std::int64_t i) {
  double f[kQ];
  for (int q = 0; q < kQ; ++q)
    f[q] = a.f_out[static_cast<std::size_t>(q) * a.n + i];
  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  for (int q = 0; q < kQ; ++q)
    a.f_out[static_cast<std::size_t>(q) * a.n + i] = out[q];
}

/// Layout-ablation variant of the fused kernel: array-of-structures
/// storage, value (q, i) at f[i * kQ + q].
inline void stream_collide_point_aos(const KernelArgs& a, std::int64_t i) {
  const auto type = static_cast<NodeType>(a.node_type[i]);
  double f[kQ];
  std::uint32_t unknown = 0;
  for (int q = 0; q < kQ; ++q) {
    const PointIndex up = a.adjacency[static_cast<std::size_t>(q) * a.n + i];
    if (up != kSolidNeighbor) {
      f[q] = a.f_in[static_cast<std::size_t>(up) * kQ + q];
    } else if (detail::boundary_unknown(type, q)) {
      unknown |= 1u << q;
      f[q] = 0.0;
    } else {
      f[q] = a.f_in[static_cast<std::size_t>(i) * kQ + opposite(q)];
    }
  }
  detail::complete_boundary(type, unknown, a.inlet_velocity,
                            a.outlet_density, f);
  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  for (int q = 0; q < kQ; ++q)
    a.f_out[static_cast<std::size_t>(i) * kQ + q] = out[q];
}

/// AA pattern, even step: purely local.  Before the step, slot (q, i) of
/// the single array a.f holds the streamed-in pre-collision population
/// f_q(i) — bounce-back values included, because the previous odd step
/// (or the initial decanonicalization) deposited them there.  Unknown
/// inlet/outlet directions are the one exception: no neighbor writes
/// them, so they are rebuilt by Zou-He exactly as the pull gather does.
/// After colliding, result q is written to the point's own OPPOSITE slot,
/// which is where the next odd step's gather looks for it.
inline void stream_collide_point_aa_even(const KernelArgs& a, std::int64_t i) {
  const auto type = static_cast<NodeType>(a.node_type[i]);
  double f[kQ];
  std::uint32_t unknown = 0;
  if (type == NodeType::kBulk) {
    for (int q = 0; q < kQ; ++q)
      f[q] = a.f[static_cast<std::size_t>(q) * a.n + i];
  } else {
    for (int q = 0; q < kQ; ++q) {
      const PointIndex up = a.adjacency[static_cast<std::size_t>(q) * a.n + i];
      if (up == kSolidNeighbor && detail::boundary_unknown(type, q)) {
        unknown |= 1u << q;
        f[q] = 0.0;
      } else {
        f[q] = a.f[static_cast<std::size_t>(q) * a.n + i];
      }
    }
  }
  detail::complete_boundary(type, unknown, a.inlet_velocity,
                            a.outlet_density, f);
  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  for (int q = 0; q < kQ; ++q)
    a.f[static_cast<std::size_t>(opposite(q)) * a.n + i] = out[q];
}

/// AA pattern, odd step: gather, collide, scatter — all against the same
/// single array.  Direction q is gathered from the upstream neighbor's
/// opposite slot (where the even step left it); a missing upstream reads
/// the bounce-back value from the point's own straight slot.  After
/// colliding, result q is scattered to the downstream neighbor's straight
/// slot; a missing downstream bounces it into the point's own opposite
/// slot.  Every slot this point reads or writes is touched by this point
/// alone, and the full gather precedes the first scatter, so the update
/// is bit-deterministic under any parallel chunking.
inline void stream_collide_point_aa_odd(const KernelArgs& a, std::int64_t i) {
  const auto type = static_cast<NodeType>(a.node_type[i]);
  std::int64_t up[kQ];
  double f[kQ];
  std::uint32_t unknown = 0;
  for (int q = 0; q < kQ; ++q)
    up[q] = a.adjacency[static_cast<std::size_t>(q) * a.n + i];
  for (int q = 0; q < kQ; ++q) {
    const std::int64_t u = up[q];
    if (u != kSolidNeighbor) {
      f[q] = a.f[static_cast<std::size_t>(opposite(q)) * a.n + u];
    } else if (detail::boundary_unknown(type, q)) {
      unknown |= 1u << q;
      f[q] = 0.0;
    } else {
      f[q] = a.f[static_cast<std::size_t>(q) * a.n + i];
    }
  }
  detail::complete_boundary(type, unknown, a.inlet_velocity,
                            a.outlet_density, f);
  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  for (int q = 0; q < kQ; ++q) {
    const std::int64_t down = up[opposite(q)];
    if (down != kSolidNeighbor) {
      a.f[static_cast<std::size_t>(q) * a.n + down] = out[q];
    } else {
      a.f[static_cast<std::size_t>(opposite(q)) * a.n + i] = out[q];
    }
  }
}

// ---------------------------------------------------------------------------
// Coarsened (block) kernels: work item b updates points
// [b * kBlock, min((b + 1) * kBlock, extent)).  The update extent is
// separate from the SoA stride a.n because a distributed rank updates only
// its owned points while its arrays also hold ghosts.
// ---------------------------------------------------------------------------

/// Consecutive points one work item of a coarsened launch updates.
inline constexpr std::int64_t kBlock = 4;

/// Work items of a coarsened launch over `extent` points.
constexpr std::int64_t block_count(std::int64_t extent) {
  return (extent + kBlock - 1) / kBlock;
}

namespace detail {

/// True when the kBlock points from i0 all lie inside the extent and are
/// all bulk points (no Zou-He completion): only such blocks take the lane
/// path.
inline bool bulk_block(const KernelArgs& a, std::int64_t i0,
                       std::int64_t extent) {
  if (i0 + kBlock > extent) return false;
  bool bulk = true;
  for (std::int64_t l = 0; l < kBlock; ++l)
    bulk &= a.node_type[i0 + l] == static_cast<std::uint8_t>(NodeType::kBulk);
  return bulk;
}

/// Fallback of a block that cannot take the lane path: its points in
/// order, through the point kernel.
template <typename PointKernel>
inline void block_by_points(PointKernel point, const KernelArgs& a,
                            std::int64_t i0, std::int64_t extent) {
  const std::int64_t end = std::min(i0 + kBlock, extent);
  for (std::int64_t i = i0; i < end; ++i) point(a, i);
}

/// The shared collide body over one block's lanes.
inline void collide_block(const KernelArgs& a, const double f[kQ * kBlock],
                          double out[kQ * kBlock]) {
  LaneMoments<kBlock> m;
  moments_lanes<kBlock>(f, a.force_x, a.force_y, a.force_z, m);
  bgk_collide_lanes<kBlock>(f, m, a.omega, a.force_x, a.force_y, a.force_z,
                            out);
}

}  // namespace detail

/// Pull stream-collide for block b: stream_collide_point on each of its
/// points, with the collide run across the block's lanes when all of them
/// are bulk.  A bulk point has no unknown populations, so its gather is
/// the fluid neighbor's value or the bounce-back value, a per-lane select.
inline void stream_collide_block(const KernelArgs& a, std::int64_t b,
                                 std::int64_t extent) {
  const std::int64_t i0 = b * kBlock;
  if (!detail::bulk_block(a, i0, extent)) {
    detail::block_by_points(stream_collide_point, a, i0, extent);
    return;
  }
  const auto n = static_cast<std::size_t>(a.n);
  const auto i = static_cast<std::size_t>(i0);
  double f[kQ * kBlock];
  for (int q = 0; q < kQ; ++q) {
    const PointIndex* up = a.adjacency + static_cast<std::size_t>(q) * n + i;
    const double* in = a.f_in + static_cast<std::size_t>(q) * n;
    const double* wall = a.f_in + static_cast<std::size_t>(opposite(q)) * n + i;
    for (int l = 0; l < kBlock; ++l)
      f[q * kBlock + l] = up[l] != kSolidNeighbor
                              ? in[static_cast<std::size_t>(up[l])]
                              : wall[l];
  }
  double out[kQ * kBlock];
  detail::collide_block(a, f, out);
  for (int q = 0; q < kQ; ++q)
    for (int l = 0; l < kBlock; ++l)
      a.f_out[static_cast<std::size_t>(q) * n + i + l] = out[q * kBlock + l];
}

/// AA even step for block b: the block form of stream_collide_point_aa_even
/// (straight-slot loads, opposite-slot stores, all local to the block).
inline void stream_collide_block_aa_even(const KernelArgs& a, std::int64_t b,
                                         std::int64_t extent) {
  const std::int64_t i0 = b * kBlock;
  if (!detail::bulk_block(a, i0, extent)) {
    detail::block_by_points(stream_collide_point_aa_even, a, i0, extent);
    return;
  }
  const auto n = static_cast<std::size_t>(a.n);
  const auto i = static_cast<std::size_t>(i0);
  double f[kQ * kBlock];
  for (int q = 0; q < kQ; ++q)
    for (int l = 0; l < kBlock; ++l)
      f[q * kBlock + l] = a.f[static_cast<std::size_t>(q) * n + i + l];
  double out[kQ * kBlock];
  detail::collide_block(a, f, out);
  for (int q = 0; q < kQ; ++q)
    for (int l = 0; l < kBlock; ++l)
      a.f[static_cast<std::size_t>(opposite(q)) * n + i + l] =
          out[q * kBlock + l];
}

/// AA odd step for block b: the block form of stream_collide_point_aa_odd.
/// All kBlock gathers precede all kBlock scatters; that reordering is
/// exact because the slots one point reads and writes are touched by no
/// other point of the step.
inline void stream_collide_block_aa_odd(const KernelArgs& a, std::int64_t b,
                                        std::int64_t extent) {
  const std::int64_t i0 = b * kBlock;
  if (!detail::bulk_block(a, i0, extent)) {
    detail::block_by_points(stream_collide_point_aa_odd, a, i0, extent);
    return;
  }
  const auto n = static_cast<std::size_t>(a.n);
  const auto i = static_cast<std::size_t>(i0);
  PointIndex up[kQ * kBlock];
  double f[kQ * kBlock];
  for (int q = 0; q < kQ; ++q) {
    const PointIndex* adj = a.adjacency + static_cast<std::size_t>(q) * n + i;
    const double* in = a.f + static_cast<std::size_t>(opposite(q)) * n;
    const double* wall = a.f + static_cast<std::size_t>(q) * n + i;
    for (int l = 0; l < kBlock; ++l) {
      up[q * kBlock + l] = adj[l];
      f[q * kBlock + l] = adj[l] != kSolidNeighbor
                              ? in[static_cast<std::size_t>(adj[l])]
                              : wall[l];
    }
  }
  double out[kQ * kBlock];
  detail::collide_block(a, f, out);
  for (int q = 0; q < kQ; ++q) {
    double* downstream = a.f + static_cast<std::size_t>(q) * n;
    double* wall = a.f + static_cast<std::size_t>(opposite(q)) * n + i;
    for (int l = 0; l < kBlock; ++l) {
      const PointIndex down = up[opposite(q) * kBlock + l];
      if (down != kSolidNeighbor) {
        downstream[static_cast<std::size_t>(down)] = out[q * kBlock + l];
      } else {
        wall[l] = out[q * kBlock + l];
      }
    }
  }
}

}  // namespace hemo::lbm
