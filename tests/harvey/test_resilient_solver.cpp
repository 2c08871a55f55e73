// Resilience tests for the distributed solver: chaos runs under every
// fault kind must end bit-identical to an uninjected run, on-disk
// checkpoint round-trips must be bit-identical across rank counts, the
// health guards must catch corruption that slips past the CRC frames, and
// exhausted recovery budgets must surface as a structured SolverFault.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "decomp/partition.hpp"
#include "geom/cylinder.hpp"
#include "harvey/distributed_solver.hpp"
#include "io/blob.hpp"
#include "resilience/fault.hpp"
#include "resilience/faulty_network.hpp"
#include "resilience/policy.hpp"

namespace decomp = hemo::decomp;
namespace geom = hemo::geom;
namespace lbm = hemo::lbm;
namespace resilience = hemo::resilience;
using hemo::harvey::DistributedSolver;

namespace {

std::shared_ptr<lbm::SparseLattice> small_cylinder() {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 16.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

lbm::SolverOptions flow_options() {
  lbm::SolverOptions o;
  o.tau = 0.9;
  o.inlet_velocity = 0.01;
  o.outlet_density = 1.0;
  return o;
}

std::vector<double> clean_run(int ranks, int steps) {
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, ranks),
                           flow_options());
  solver.run(steps);
  return solver.global_distributions();
}

/// Removes `path` when the test scope ends, pass or fail.
struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Chaos recovery: the acceptance property.  Every fault kind, injected into
// a 4-rank cylinder, is recovered and the final state is bit-identical.

class ChaosKindSweep
    : public ::testing::TestWithParam<resilience::FaultKind> {};

TEST_P(ChaosKindSweep, SingleKindRecoversBitIdentically) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 16;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  const resilience::FaultPlan plan = resilience::FaultPlan::random(
      /*seed=*/91, kSteps, solver.exchange_pairs(), {GetParam()},
      /*events_per_kind=*/2);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  solver.enable_resilience(resilience::Options{});

  solver.run(kSteps);

  const auto* net =
      dynamic_cast<const resilience::FaultyNetwork*>(&solver.network());
  ASSERT_NE(net, nullptr);
  EXPECT_GT(net->plan().fired_count(), 0)
      << "seed 91 never triggered a " << resilience::fault_kind_name(GetParam())
      << " event; pick a different seed";

  const std::vector<double> state = solver.global_distributions();
  ASSERT_EQ(state.size(), reference.size());
  for (std::size_t k = 0; k < state.size(); ++k)
    ASSERT_EQ(state[k], reference[k])
        << resilience::fault_kind_name(GetParam()) << " diverged at index "
        << k;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ChaosKindSweep,
    ::testing::ValuesIn(std::begin(resilience::kAllFaultKinds),
                        std::end(resilience::kAllFaultKinds)),
    [](const ::testing::TestParamInfo<resilience::FaultKind>& info) {
      return std::string(resilience::fault_kind_name(info.param));
    });

TEST(ResilientSolver, AllKindsTogetherRecoverBitIdentically) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 20;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  const resilience::FaultPlan plan = resilience::FaultPlan::random(
      /*seed=*/7, kSteps, solver.exchange_pairs(),
      {std::begin(resilience::kAllFaultKinds),
       std::end(resilience::kAllFaultKinds)},
      /*events_per_kind=*/1);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  solver.enable_resilience(resilience::Options{});

  solver.run(kSteps);

  const resilience::RunStats& stats = solver.resilience_stats();
  EXPECT_GT(stats.faults_detected(), 0);
  EXPECT_EQ(solver.global_distributions(), reference);
  EXPECT_EQ(solver.step_count(), kSteps);
}

TEST(ResilientSolver, RollbackPathRecoversWhenRetransmitBudgetIsZero) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 12;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kDrop;
  e.step = 5;
  e.src = 0;
  e.dst = 1;
  plan.add(e);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  resilience::Options opts;
  opts.recovery.max_retransmits = 0;  // only rollback can save this run
  solver.enable_resilience(opts);

  solver.run(kSteps);

  EXPECT_GE(solver.resilience_stats().rollbacks, 1);
  EXPECT_EQ(solver.global_distributions(), reference);
}

TEST(ResilientSolver, ExhaustedBudgetsRaiseStructuredFault) {
  constexpr int kRanks = 4;
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kStall;
  e.step = 3;
  e.src = 0;
  e.stall_polls = 1000;  // outlasts any retransmission budget
  plan.add(e);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  resilience::Options opts;
  opts.recovery.max_rollbacks = 0;
  solver.enable_resilience(opts);

  try {
    solver.run(10);
    FAIL() << "expected SolverFault";
  } catch (const resilience::SolverFault& fault) {
    EXPECT_NE(std::string(fault.what()).find("step 3"), std::string::npos);
  }
}

TEST(ResilientSolver, HealthGuardCatchesCorruptionWithoutFrames) {
  // With CRC frames disabled the corrupted payload reaches the state; the
  // RS001 non-finite scan must catch it post-step and roll back.
  constexpr int kRanks = 4;
  constexpr int kSteps = 10;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kCorrupt;
  e.step = 4;
  e.src = 0;
  e.dst = 1;
  e.xor_mask = 0x7FF0000000000000ull;  // force the exponent to inf/nan
  plan.add(e);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  resilience::Options opts;
  opts.recovery.checksum_frames = false;
  solver.enable_resilience(opts);

  solver.run(kSteps);

  EXPECT_GE(solver.resilience_stats().health_errors, 1);
  EXPECT_GE(solver.resilience_stats().rollbacks, 1);
  EXPECT_EQ(solver.global_distributions(), reference);
}

TEST(ResilientSolver, CheckHealthIsCleanOnAHealthyRun) {
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                           flow_options());
  solver.run(5);
  EXPECT_TRUE(solver.check_health().empty());
}

TEST(ResilientSolver, ResilientRunWithoutFaultsIsBitIdenticalToPlain) {
  // The CRC frames and guards must be pure observers: enabling resilience
  // on a fault-free run changes nothing.
  constexpr int kRanks = 4;
  constexpr int kSteps = 12;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  solver.enable_resilience(resilience::Options{});
  solver.run(kSteps);

  EXPECT_EQ(solver.resilience_stats().faults_detected(), 0);
  EXPECT_EQ(solver.global_distributions(), reference);
}

// ---------------------------------------------------------------------------
// Checkpoint / restart.

class CheckpointRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointRankSweep, RoundTripIsBitIdentical) {
  const int ranks = GetParam();
  constexpr int kSteps = 14;
  constexpr int kCut = 6;
  const std::vector<double> reference = clean_run(ranks, kSteps);

  const TempFile ckpt("ckpt_roundtrip_" + std::to_string(ranks) + ".bin");
  auto lattice = small_cylinder();
  {
    DistributedSolver solver(lattice, decomp::slab_partition(*lattice, ranks),
                             flow_options());
    solver.run(kCut);
    solver.save_checkpoint(ckpt.path);
  }
  DistributedSolver resumed(lattice, decomp::slab_partition(*lattice, ranks),
                            flow_options());
  resumed.restore_checkpoint(ckpt.path);
  EXPECT_EQ(resumed.step_count(), kCut);
  resumed.run(kSteps - kCut);

  const std::vector<double> state = resumed.global_distributions();
  ASSERT_EQ(state.size(), reference.size());
  for (std::size_t k = 0; k < state.size(); ++k)
    ASSERT_EQ(state[k], reference[k])
        << ranks << " ranks diverged at index " << k;
}

INSTANTIATE_TEST_SUITE_P(Ranks, CheckpointRankSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(Checkpoint, PerRankRoundTripRestoresEveryRank) {
  constexpr int kRanks = 3;
  constexpr int kSteps = 9;
  constexpr int kCut = 4;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  std::vector<TempFile> files;
  for (int r = 0; r < kRanks; ++r)
    files.emplace_back("ckpt_rank_" + std::to_string(r) + ".bin");
  {
    DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                             flow_options());
    solver.run(kCut);
    for (int r = 0; r < kRanks; ++r)
      solver.save_rank_checkpoint(files[static_cast<std::size_t>(r)].path, r);
  }
  DistributedSolver resumed(lattice, decomp::slab_partition(*lattice, kRanks),
                            flow_options());
  for (int r = 0; r < kRanks; ++r) {
    const std::int64_t step = resumed.restore_rank_checkpoint(
        files[static_cast<std::size_t>(r)].path, r);
    EXPECT_EQ(step, kCut);
  }
  resumed.run(kSteps - kCut);
  EXPECT_EQ(resumed.global_distributions(), reference);
}

TEST(Checkpoint, CorruptedFileIsRejected) {
  const TempFile ckpt("ckpt_corrupt.bin");
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                           flow_options());
  solver.run(3);
  solver.save_checkpoint(ckpt.path);

  // Flip one byte in the middle of the file: the record CRC must trip.
  {
    std::fstream f(ckpt.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 64);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  DistributedSolver fresh(lattice, decomp::slab_partition(*lattice, 2),
                          flow_options());
  EXPECT_THROW(fresh.restore_checkpoint(ckpt.path), hemo::io::BlobError);
}

TEST(Checkpoint, WrongConfigurationIsRejected) {
  const TempFile ckpt("ckpt_wrong_config.bin");
  auto lattice = small_cylinder();
  {
    DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                             flow_options());
    solver.run(2);
    solver.save_checkpoint(ckpt.path);
  }
  // A 4-rank solver must refuse a 2-rank checkpoint.
  DistributedSolver other(lattice, decomp::slab_partition(*lattice, 4),
                          flow_options());
  EXPECT_THROW(other.restore_checkpoint(ckpt.path), hemo::io::BlobError);
}

TEST(Checkpoint, CorruptLastRankRecordLeavesTheSolverUntouched) {
  // Restore validates every record before it commits any: a file whose
  // last rank record is damaged must not overwrite the ranks before it.
  constexpr int kRanks = 4;
  const TempFile ckpt("ckpt_corrupt_last_rank.bin");
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  solver.run(3);
  solver.save_checkpoint(ckpt.path);
  solver.run(2);
  const std::vector<double> before = solver.global_distributions();

  // The file's last byte is the last payload byte of rank 3's record.
  {
    std::fstream f(ckpt.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(-1, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(-1, std::ios::end);
    f.write(&byte, 1);
  }

  EXPECT_THROW(solver.restore_checkpoint(ckpt.path), hemo::io::BlobError);
  EXPECT_EQ(solver.step_count(), 5);
  EXPECT_EQ(solver.global_distributions(), before);
  solver.run(1);
  EXPECT_EQ(solver.global_distributions(), clean_run(kRanks, 6));
}

TEST(Checkpoint, MissingFileIsRejected) {
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                           flow_options());
  EXPECT_THROW(solver.restore_checkpoint("no_such_checkpoint.bin"),
               hemo::io::BlobError);
}

TEST(ResilientSolver, VelocityCeilingGuardFiresRS003) {
  // A ceiling below any physical inflow velocity makes the very first
  // resilient step trip the compressibility guard; with no rollback
  // budget the run must surface it as a structured fault carrying the
  // RS003 diagnostic.
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                           flow_options());
  resilience::Options opts;
  opts.health.scan_nonfinite = false;
  opts.health.check_mass = false;
  opts.health.max_velocity = 1e-9;
  opts.recovery.max_rollbacks = 0;
  solver.enable_resilience(opts);

  try {
    solver.run(4);
    FAIL() << "expected SolverFault";
  } catch (const resilience::SolverFault& fault) {
    bool saw_rs003 = false;
    for (const hemo::analysis::Diagnostic& d : fault.diagnostics())
      saw_rs003 |= (d.rule_id == "RS003");
    EXPECT_TRUE(saw_rs003);
  }
  EXPECT_GE(solver.resilience_stats().health_errors, 1);
}

TEST(ResilientSolver, OffPlanHaloTrafficIsRecordedAsRS004) {
  // A duplicated halo message is a valid frame arriving twice: the halo
  // audit must drain the straggler, record RS004, and let the run finish
  // bit-identical to the clean reference (the audit is an observer).
  constexpr int kRanks = 4;
  constexpr int kSteps = 10;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kDuplicate;
  e.step = 4;
  e.src = 1;
  e.dst = 2;
  plan.add(e);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  solver.enable_resilience(resilience::Options{});

  solver.run(kSteps);

  EXPECT_GE(solver.resilience_stats().halo_audit_mismatches, 1);
  bool saw_rs004 = false;
  for (const hemo::analysis::Diagnostic& d :
       solver.resilience_stats().diagnostics)
    saw_rs004 |= (d.rule_id == "RS004");
  EXPECT_TRUE(saw_rs004);
  EXPECT_EQ(solver.global_distributions(), reference);
}
