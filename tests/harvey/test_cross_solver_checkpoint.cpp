// One checkpoint format across solvers: lbm::Solver writes exactly what a
// 1-rank DistributedSolver writes, so a checkpoint taken by either one
// restores into the other, whatever the serial solver's propagation
// pattern and AA parity, and both continue bit-identically to a serial
// pull run.  A multi-rank file has no serial reading and is refused with
// the typed error.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "decomp/partition.hpp"
#include "geom/aorta.hpp"
#include "harvey/distributed_solver.hpp"
#include "io/blob.hpp"
#include "lbm/solver.hpp"

namespace decomp = hemo::decomp;
namespace geom = hemo::geom;
namespace lbm = hemo::lbm;
using hemo::harvey::DistributedSolver;

namespace {

std::shared_ptr<lbm::SparseLattice> aorta() {
  geom::AortaSpec spec;
  spec.spacing_mm = 2.6;  // a few thousand points: fast but multi-outlet
  return geom::make_aorta_lattice(spec);
}

lbm::SolverOptions options(lbm::Propagation pattern) {
  lbm::SolverOptions o;
  o.tau = 0.8;
  o.inlet_velocity = 0.02;
  o.outlet_density = 1.0;
  o.body_force = {0.0, 0.0, 1e-6};
  o.propagation = pattern;
  return o;
}

DistributedSolver one_rank(const std::shared_ptr<lbm::SparseLattice>& l) {
  return DistributedSolver(l, decomp::slab_partition(*l, 1),
                           options(lbm::Propagation::kPullSoA));
}

std::vector<double> serial_pull(const std::shared_ptr<lbm::SparseLattice>& l,
                                int steps) {
  lbm::Solver solver(l, options(lbm::Propagation::kPullSoA));
  solver.run(steps);
  return solver.distributions();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Removes `path` when the test scope ends, pass or fail.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

}  // namespace

TEST(CrossSolverCheckpoint, SerialFileIsByteIdenticalToOneRankFile) {
  auto lattice = aorta();
  const TempFile serial_file("xsolver_serial.bin");
  const TempFile rank_file("xsolver_one_rank.bin");
  lbm::Solver serial(lattice, options(lbm::Propagation::kAAInPlace));
  DistributedSolver distributed = one_rank(lattice);
  serial.run(5);
  distributed.run(5);
  serial.save_checkpoint(serial_file.path);
  distributed.save_checkpoint(rank_file.path);
  const std::string bytes = slurp(serial_file.path);
  EXPECT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == slurp(rank_file.path));
}

TEST(CrossSolverCheckpoint, SerialCheckpointsContinueOnOneRankLikeSerialPull) {
  constexpr int kCut = 7;  // odd: the AA array is mid-cycle
  constexpr int kSteps = 13;
  auto lattice = aorta();
  const std::vector<double> reference = serial_pull(lattice, kSteps);
  for (lbm::Propagation pattern :
       {lbm::Propagation::kAAInPlace, lbm::Propagation::kPullSoA}) {
    const TempFile file("xsolver_to_rank.bin");
    lbm::Solver serial(lattice, options(pattern));
    serial.run(kCut);
    serial.save_checkpoint(file.path);

    DistributedSolver resumed = one_rank(lattice);
    resumed.restore_checkpoint(file.path);
    EXPECT_EQ(resumed.step_count(), kCut);
    resumed.run(kSteps - kCut);
    EXPECT_EQ(resumed.global_distributions(), reference)
        << lbm::propagation_name(pattern);
  }
}

TEST(CrossSolverCheckpoint, OneRankCheckpointRestoresIntoAASolver) {
  constexpr int kCut = 5;
  constexpr int kSteps = 9;
  auto lattice = aorta();
  const TempFile file("rank_to_xsolver.bin");
  DistributedSolver distributed = one_rank(lattice);
  distributed.run(kCut);
  distributed.save_checkpoint(file.path);

  lbm::Solver resumed(lattice, options(lbm::Propagation::kAAInPlace));
  resumed.restore_checkpoint(file.path);
  EXPECT_EQ(resumed.step_count(), kCut);
  resumed.run(kSteps - kCut);
  EXPECT_EQ(resumed.distributions(), serial_pull(lattice, kSteps));
}

TEST(CrossSolverCheckpoint, MultiRankFileIsRejectedBySerialSolver) {
  auto lattice = aorta();
  const TempFile file("four_ranks_to_xsolver.bin");
  DistributedSolver distributed(lattice, decomp::slab_partition(*lattice, 4),
                                options(lbm::Propagation::kPullSoA));
  distributed.run(3);
  distributed.save_checkpoint(file.path);

  lbm::Solver serial(lattice, options(lbm::Propagation::kAAInPlace));
  serial.run(2);
  const std::vector<double> before = serial.distributions();
  EXPECT_THROW(serial.restore_checkpoint(file.path), lbm::CheckpointError);
  EXPECT_THROW(serial.restore_checkpoint(file.path), hemo::io::BlobError);
  EXPECT_EQ(serial.step_count(), 2);
  EXPECT_EQ(serial.distributions(), before);
}
