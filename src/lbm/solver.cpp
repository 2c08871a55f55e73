#include "lbm/solver.hpp"

#include <algorithm>
#include <cmath>

#include "base/contracts.hpp"
#include "lbm/aa_layout.hpp"
#include "lbm/hemodynamics.hpp"
#include "lbm/probes.hpp"

namespace hemo::lbm {

Solver::Solver(std::shared_ptr<const SparseLattice> lattice,
               SolverOptions options)
    : lattice_(std::move(lattice)), options_(options) {
  HEMO_EXPECTS(lattice_ != nullptr);
  expect_valid(options_);

  const auto n = static_cast<std::size_t>(lattice_->size());
  buf_a_.resize(static_cast<std::size_t>(kQ) * n);
  buf_b_.resize(static_cast<std::size_t>(kQ) * n);
  if (options_.propagation == Propagation::kAAInPlace) {
    current_ = &buf_b_;  // canonical snapshot cache
    next_ = &buf_a_;     // the live in-place array
    aa_canonical_fresh_ = false;
  } else {
    current_ = &buf_a_;
    next_ = &buf_b_;
  }
  fill_initial_state(options_, lattice_->adjacency().data(), lattice_->size(),
                     live().data());
}

void Solver::step() {
  KernelArgs a = args();
  a.f_in = current_->data();
  a.f_out = next_->data();
  a.f = buf_a_.data();  // AA: the single in-place array
  step_blocks(options_.propagation, steps_done_, a, a.n, host_loop);
  if (options_.propagation == Propagation::kAAInPlace)
    aa_canonical_fresh_ = false;
  else
    std::swap(current_, next_);
  ++steps_done_;
}

void Solver::run(int steps) {
  HEMO_EXPECTS(steps >= 0);
  for (int s = 0; s < steps; ++s) step();
}

const std::vector<double>& Solver::distributions() const {
  if (options_.propagation == Propagation::kAAInPlace &&
      !aa_canonical_fresh_) {
    aa_canonicalize(lattice_->adjacency().data(), lattice_->size(),
                    steps_done_, buf_a_.data(), current_->data());
    aa_canonical_fresh_ = true;
  }
  return *current_;
}

void Solver::corrupt_live_bit(PointIndex i, int q, int bit) {
  HEMO_EXPECTS(i >= 0 && i < lattice_->size());
  HEMO_EXPECTS(q >= 0 && q < kQ);
  HEMO_EXPECTS(bit >= 0 && bit < 64);
  const int row = live_slot_q(live_layout(), q);
  flip_bit(live()[static_cast<std::size_t>(row) *
                      static_cast<std::size_t>(lattice_->size()) +
                  static_cast<std::size_t>(i)],
           bit);
  if (options_.propagation == Propagation::kAAInPlace)
    aa_canonical_fresh_ = false;
}

Moments Solver::moments(PointIndex i) const {
  HEMO_EXPECTS(i >= 0 && i < lattice_->size());
  const auto n = static_cast<std::size_t>(lattice_->size());
  const std::vector<double>& f_all = distributions();
  double f[kQ];
  for (int q = 0; q < kQ; ++q)
    f[q] = f_all[static_cast<std::size_t>(q) * n + static_cast<std::size_t>(i)];
  return moments_of(f, options_.body_force.x, options_.body_force.y,
                    options_.body_force.z);
}

double Solver::total_mass() const { return neumaier_sum(distributions()); }

void Solver::set_inlet_velocity(double velocity) {
  HEMO_EXPECTS(std::abs(velocity) < 1.0);
  options_.inlet_velocity = velocity;
}

std::array<double, 6> Solver::stress(PointIndex i) const {
  HEMO_EXPECTS(i >= 0 && i < lattice_->size());
  // The stress lives in the non-equilibrium part of the *pre-collision*
  // distributions (collision relaxes it away — entirely so at tau = 1),
  // so re-gather the incoming populations of the next step from the
  // canonical snapshot.
  KernelArgs a = args();
  a.f_in = distributions().data();
  double f[kQ];
  gather_pre_collision(a, i, f);
  return deviatoric_stress(f, a.omega, options_.body_force.x,
                           options_.body_force.y, options_.body_force.z);
}

void Solver::save_checkpoint(const std::string& path) const {
  const RankRecord<const double> record{0, distributions()};
  write_checkpoint(path, steps_done_, lattice_->size(), 1, {&record, 1});
}

void Solver::restore_checkpoint(const std::string& path) {
  // Stage into storage the restored state does not need: pull's output
  // buffer, or AA's canonical cache, which the array it caches rebuilds.
  const bool aa = options_.propagation == Propagation::kAAInPlace;
  aa_canonical_fresh_ = false;
  const RankRecord<double> stage{0, *(aa ? current_ : next_)};
  steps_done_ = read_checkpoint(path, lattice_->size(), 1, {&stage, 1});
  if (aa) {
    aa_decanonicalize(lattice_->adjacency().data(), lattice_->size(),
                      steps_done_, current_->data(), buf_a_.data());
    aa_canonical_fresh_ = true;
  } else {
    std::swap(current_, next_);
  }
}

double Solver::max_speed() const {
  double best = 0.0;
  for (PointIndex i = 0; i < lattice_->size(); ++i) {
    const Moments m = moments(i);
    best = std::max(best,
                    std::sqrt(m.ux * m.ux + m.uy * m.uy + m.uz * m.uz));
  }
  return best;
}

}  // namespace hemo::lbm
