#include "lbm/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "base/contracts.hpp"
#include "lbm/aa_layout.hpp"
#include "lbm/hemodynamics.hpp"
#include "lbm/probes.hpp"

namespace hemo::lbm {

Solver::Solver(std::shared_ptr<const SparseLattice> lattice,
               SolverOptions options)
    : lattice_(std::move(lattice)), options_(options) {
  HEMO_EXPECTS(lattice_ != nullptr);
  HEMO_EXPECTS(options_.tau > 0.5);  // positive viscosity / linear stability
  HEMO_EXPECTS(options_.outlet_density > 0.0);
  HEMO_EXPECTS(std::abs(options_.inlet_velocity) < 1.0);

  const auto n = static_cast<std::size_t>(lattice_->size());
  node_type_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    node_type_[i] = static_cast<std::uint8_t>(
        lattice_->node_type(static_cast<PointIndex>(i)));

  buf_a_.resize(static_cast<std::size_t>(kQ) * n);
  buf_b_.resize(static_cast<std::size_t>(kQ) * n);
  if (options_.propagation == Propagation::kAAInPlace) {
    current_ = &buf_b_;  // canonical snapshot cache
    next_ = &buf_a_;     // the live in-place array
  } else {
    current_ = &buf_a_;
    next_ = &buf_b_;
  }

  const auto& u0 = options_.initial_velocity;
  for (int q = 0; q < kQ; ++q) {
    const double feq =
        equilibrium(q, options_.initial_density, u0.x, u0.y, u0.z);
    std::fill_n(current_->begin() + static_cast<std::ptrdiff_t>(q) *
                                        static_cast<std::ptrdiff_t>(n),
                n, feq);
  }
  if (options_.propagation == Propagation::kAAInPlace) {
    // Lay the equilibrium snapshot out as the even-parity AA array: slot
    // (q, i) holds the streamed-in pre-collision population, exactly what
    // one pull step starting from the same snapshot would gather.
    aa_decanonicalize(lattice_->adjacency().data(), lattice_->size(),
                      steps_done_, current_->data(), buf_a_.data());
    aa_canonical_fresh_ = true;
  }
}

KernelArgs Solver::args(const std::vector<double>& in,
                        std::vector<double>& out) const {
  KernelArgs a;
  a.f_in = in.data();
  a.f_out = out.data();
  a.adjacency = lattice_->adjacency().data();
  a.node_type = node_type_.data();
  a.n = lattice_->size();
  a.omega = 1.0 / options_.tau;
  a.force_x = options_.body_force.x;
  a.force_y = options_.body_force.y;
  a.force_z = options_.body_force.z;
  a.inlet_velocity = options_.inlet_velocity;
  a.outlet_density = options_.outlet_density;
  return a;
}

void Solver::step() {
  if (options_.propagation == Propagation::kAAInPlace) {
    KernelArgs a = args(buf_b_, buf_a_);
    a.f = buf_a_.data();
    const std::int64_t blocks = block_count(a.n);
    if (steps_done_ % 2 == 0) {
      for (std::int64_t b = 0; b < blocks; ++b)
        stream_collide_block_aa_even(a, b, a.n);
    } else {
      for (std::int64_t b = 0; b < blocks; ++b)
        stream_collide_block_aa_odd(a, b, a.n);
    }
    ++steps_done_;
    aa_canonical_fresh_ = false;
    return;
  }
  const KernelArgs a = args(*current_, *next_);
  for (std::int64_t b = 0; b < block_count(a.n); ++b)
    stream_collide_block(a, b, a.n);
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
  std::vector<double>& live =
      options_.propagation == Propagation::kAAInPlace ? buf_a_ : *current_;
  const int row = live_slot_q(live_layout(), q);
  double& v = live[static_cast<std::size_t>(row) *
                       static_cast<std::size_t>(lattice_->size()) +
                   static_cast<std::size_t>(i)];
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1ull << bit;
  std::memcpy(&v, &bits, sizeof bits);
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
  // canonical snapshot.  The gather never writes f_out, and next_ points
  // at non-const storage even in a const method, so no const_cast is
  // needed.
  const KernelArgs a = args(distributions(), *next_);
  double f[kQ];
  gather_pre_collision(a, i, f);
  return deviatoric_stress(f, 1.0 / options_.tau, options_.body_force.x,
                           options_.body_force.y, options_.body_force.z);
}

namespace {
constexpr std::uint64_t kCheckpointMagic = 0x48454D4F464C4F57ull;  // "HEMOFLOW"

void read_exact(std::ifstream& in, void* dst, std::size_t bytes,
                const std::string& what) {
  in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes))
    throw CheckpointError("checkpoint: truncated " + what);
}
}  // namespace

void Solver::save_checkpoint(const std::string& path) const {
  const std::vector<double>& canonical = distributions();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good())
      throw CheckpointError("checkpoint: cannot open " + tmp + " for write");
    const std::uint64_t magic = kCheckpointMagic;
    const std::int64_t n = lattice_->size();
    const std::int64_t q = kQ;
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(&q), sizeof q);
    out.write(reinterpret_cast<const char*>(&steps_done_), sizeof steps_done_);
    out.write(reinterpret_cast<const char*>(canonical.data()),
              static_cast<std::streamsize>(canonical.size() * sizeof(double)));
    out.flush();
    if (!out.good()) {
      std::remove(tmp.c_str());
      throw CheckpointError("checkpoint: short write to " + tmp);
    }
  }
  // The live file only ever changes by whole-file rename, so a crash at
  // any instant leaves either the previous checkpoint or the new one —
  // never a torn hybrid (same discipline as io::BlobWriter).
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: cannot replace " + path);
  }
}

void Solver::restore_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw CheckpointError("checkpoint: cannot open " + path);
  std::uint64_t magic = 0;
  std::int64_t n = 0, q = 0, steps = 0;
  read_exact(in, &magic, sizeof magic, "header magic");
  if (magic != kCheckpointMagic)
    throw CheckpointError("checkpoint: bad magic in " + path);
  read_exact(in, &n, sizeof n, "header point count");
  read_exact(in, &q, sizeof q, "header direction count");
  if (n != lattice_->size() || q != kQ)
    throw CheckpointError(
        "checkpoint: lattice mismatch (file has n=" + std::to_string(n) +
        ", q=" + std::to_string(q) + "; solver has n=" +
        std::to_string(lattice_->size()) + ", q=" + std::to_string(kQ) + ")");
  read_exact(in, &steps, sizeof steps, "step counter");
  if (steps < 0)
    throw CheckpointError("checkpoint: negative step counter in " + path);

  // Read into a staging buffer first so a payload error leaves the solver
  // state untouched, and reject files with bytes past the exact payload.
  std::vector<double> canonical(current_->size());
  read_exact(in, canonical.data(), canonical.size() * sizeof(double),
             "payload");
  if (in.peek() != std::ifstream::traits_type::eof())
    throw CheckpointError("checkpoint: trailing bytes after payload in " +
                          path);

  *current_ = std::move(canonical);
  steps_done_ = steps;
  if (options_.propagation == Propagation::kAAInPlace) {
    aa_decanonicalize(lattice_->adjacency().data(), lattice_->size(),
                      steps_done_, current_->data(), buf_a_.data());
    aa_canonical_fresh_ = true;
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
