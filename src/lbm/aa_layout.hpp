#pragma once
// Host-side conversions between the AA pattern's single in-place array and
// the canonical distribution snapshot (the post-collision, q-major SoA
// layout the pull scheme double-buffers and every consumer of
// Solver::distributions() expects).
//
// The AA array's meaning depends on the parity of the step counter:
//
//   parity even (initial state, or just after an odd step): slot (q, i)
//   holds the streamed-in PRE-collision population f_q(i) of the upcoming
//   even step.  Relative to the canonical post-collision snapshot P of the
//   last completed step this is
//       A[q][i] = P[q][up]      where up = adjacency[q][i] is fluid
//       A[q][i] = P[opp q][i]   where up is solid (bounce-back; also used
//                               as harmless scratch for Zou-He unknowns,
//                               which the even kernel rebuilds itself)
//
//   parity odd (just after an even step): the even kernel wrote its
//   post-collision result q into the point's opposite slot, so
//       A[opp q][i] = P[q][i]
//
// Both mappings are bijections over the slots the kernels actually read,
// so converting AA -> canonical -> AA (or restoring a canonical checkpoint
// into either pattern at either parity) is bit-exact.  This is what keeps
// checkpoints portable across propagation patterns and parities: the file
// always stores the canonical snapshot, and the solver decanonicalizes on
// restore according to the restored step counter.

#include <cstddef>
#include <cstdint>

#include "base/types.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/sparse_lattice.hpp"

namespace hemo::lbm {

/// Index into the AA array of the slot holding canonical value (q, i):
/// the single-value form of aa_canonicalize below.
inline std::size_t aa_canonical_slot(const PointIndex* adjacency,
                                     std::int64_t n, std::int64_t steps_done,
                                     int q, PointIndex i) {
  const auto un = static_cast<std::size_t>(n);
  const std::size_t qo = static_cast<std::size_t>(opposite(q)) * un;
  const auto ui = static_cast<std::size_t>(i);
  if (steps_done % 2 != 0) return qo + ui;
  // The odd step scattered this point's result q downstream (to the
  // neighbor in the +c_q direction, i.e. the pull-upstream of opp q), or
  // bounced it into the point's own opposite slot at a wall.
  const PointIndex down = adjacency[qo + ui];
  return down != kSolidNeighbor
             ? static_cast<std::size_t>(q) * un + static_cast<std::size_t>(down)
             : qo + ui;
}

/// Rebuilds the canonical post-collision snapshot from an AA array.
/// `adjacency` is the pull-neighbor table (kQ * n, q-major),
/// `steps_done` the solver's step counter (its parity selects the
/// mapping above).  `canonical` must hold kQ * n doubles.
inline void aa_canonicalize(const PointIndex* adjacency, std::int64_t n,
                            std::int64_t steps_done, const double* aa,
                            double* canonical) {
  double* out = canonical;
  for (int q = 0; q < kQ; ++q)
    for (PointIndex i = 0; i < n; ++i)
      *out++ = aa[aa_canonical_slot(adjacency, n, steps_done, q, i)];
}

/// Inverse of aa_canonicalize: lays a canonical snapshot out as the AA
/// array expected at the given step-counter parity (a checkpoint restore;
/// lbm/step.hpp's fill_initial_state is its uniform-state special case).
inline void aa_decanonicalize(const PointIndex* adjacency, std::int64_t n,
                              std::int64_t steps_done, const double* canonical,
                              double* aa) {
  const auto un = static_cast<std::size_t>(n);
  if (steps_done % 2 != 0) {
    for (int q = 0; q < kQ; ++q) {
      const std::size_t qo = static_cast<std::size_t>(opposite(q)) * un;
      const std::size_t qs = static_cast<std::size_t>(q) * un;
      for (std::size_t i = 0; i < un; ++i) aa[qs + i] = canonical[qo + i];
    }
    return;
  }
  for (int q = 0; q < kQ; ++q) {
    const std::size_t qo = static_cast<std::size_t>(opposite(q)) * un;
    const std::size_t qs = static_cast<std::size_t>(q) * un;
    for (std::size_t i = 0; i < un; ++i) {
      const PointIndex up = adjacency[qs + i];
      aa[qs + i] = up != kSolidNeighbor
                       ? canonical[qs + static_cast<std::size_t>(up)]
                       : canonical[qo + i];
    }
  }
}

}  // namespace hemo::lbm
