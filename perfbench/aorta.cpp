// aorta_resilient: synthetic aorta at 0.55 mm (811,728 points, ~500 MB,
// larger than the last-level cache), 8 ranks from
// decomp::bisection_partition, pull-SoA, through harvey::DistributedSolver
// on the cudax dialect at 1 engine thread, velocity inlet and pressure
// outlets.  Resilience is on (health guards, the SDC sentinel at its
// defaults, in-memory snapshots every 8 steps) and save_checkpoint writes
// every kCheckpointEvery steps.  No faults are injected.
//
// Why: halo pack/exchange/unpack, guards, sentinel digests, snapshots and
// checkpoint writes take a large share of each step here and none in
// cyl_aa_device, and the lbm layer runs the other propagation pattern.
// The working set is kept out of the LLC on purpose: the LLC is shared
// with other tenants, and an in-LLC aorta (0.88 mm, 198,465 points) swung
// up to 2x in step time between runs.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>

#include "base/rng.hpp"
#include "decomp/partition.hpp"
#include "geom/aorta.hpp"
#include "hal/device.hpp"
#include "harness.hpp"
#include "harvey/device_solver.hpp"
#include "harvey/distributed_solver.hpp"
#include "lbm/solver.hpp"

namespace perfbench {

using namespace hemo;

namespace {

constexpr int kRanks = 8;
constexpr int kEngineThreads = 1;
constexpr int kWarmupSteps = 2;
constexpr int kCheckpointEvery = 32;
constexpr hal::Model kModel = hal::Model::kCuda;

struct Instance {
  std::shared_ptr<const lbm::SparseLattice> lattice;
  decomp::Partition partition;
  std::unique_ptr<harvey::DistributedSolver> solver;
};

Instance set_up(const Args& args, const lbm::SolverOptions& options) {
  Instance in;
  {
    Span span("geom:make_aorta_lattice");
    geom::AortaSpec spec;
    spec.spacing_mm = args.smoke ? 3.0 : 0.55;
    in.lattice = geom::make_aorta_lattice(spec);
  }
  {
    Span span("decomp:bisection_partition");
    in.partition = decomp::bisection_partition(*in.lattice, kRanks);
  }
  {
    Span span("harvey:DistributedSolver::DistributedSolver");
    in.solver = std::make_unique<harvey::DistributedSolver>(
        in.lattice, in.partition, options);
    in.solver->set_execution_model(kModel);
  }
  hal::DeviceEngine::instance().set_threads(kEngineThreads);
  {
    Span span("resilience:enable_resilience");
    resilience::Options ro;
    ro.sentinel.enabled = true;
    in.solver->enable_resilience(ro);
  }
  return in;
}

/// Runs the timed loop for `seconds`: step() timed one by one, and a
/// checkpoint every kCheckpointEvery steps (inside the window, outside
/// each step's time).
std::int64_t window(harvey::DistributedSolver& solver, double seconds,
                    const std::string& checkpoint, Report* report,
                    double* wall_s) {
  const auto points = static_cast<double>(solver.partition().owner.size());
  std::int64_t steps = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds || steps < 2) {
    const auto s0 = Clock::now();
    {
      Span span("harvey:DistributedSolver::step");
      solver.step();
    }
    if (report)
      report->record_op(seconds_since(s0) * 1e3, seconds_since(t0), points);
    ++steps;
    if (solver.step_count() % kCheckpointEvery == 0) {
      Span span("io:save_checkpoint");
      solver.save_checkpoint(checkpoint);
    }
  }
  *wall_s = seconds_since(t0);
  return steps;
}

/// Mean step of a DeviceSolver on the workload lattice at `threads`
/// engine threads, through the same dialect: the hal layer's own cost.
void hal_probe(const std::shared_ptr<const lbm::SparseLattice>& lattice,
               const lbm::SolverOptions& options, int threads, int steps,
               Report& report) {
  auto& engine = hal::DeviceEngine::instance();
  engine.set_threads(threads);
  harvey::DeviceSolver device(lattice, options, kModel);
  device.step();
  const std::string name =
      "hal:DeviceSolver::step@" + std::to_string(threads) + "t";
  for (int s = 0; s < steps; ++s) {
    Span span(name);
    device.step();
  }
  if (threads == 1) {
    const hal::EngineCounters before = engine.counters();
    {
      Span span("hal:DeviceSolver::observe");
      (void)device.total_mass();
      (void)device.distributions();
    }
    report.layer["hal.d2h_bytes_per_observe"] =
        static_cast<double>(engine.counters().bytes_d2h - before.bytes_d2h);
  }
  engine.set_threads(kEngineThreads);
}

}  // namespace

int run_aorta(const Args& args, Report& report) {
  SplitMix64 rng(args.seed);
  lbm::SolverOptions options;
  options.tau = 0.85;
  options.inlet_velocity = rng.uniform(0.01, 0.02);
  options.outlet_density = 1.0;
  options.propagation = lbm::Propagation::kPullSoA;

  report.op_name = "step";
  report.work_unit = "lattice-point update";
  report.tail_percentile = 50.0;
  report.env["dialect"] = std::string(hal::name_of(kModel));
  report.env["propagation"] = lbm::propagation_name(options.propagation);
  report.env_num["threads"] = kEngineThreads;
  report.env_num["ranks"] = kRanks;
  report.env_num["input_inlet_velocity"] = options.inlet_velocity;

  const std::string checkpoint =
      (std::filesystem::path(args.scratch_dir) / "aorta.ckpt").string();
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(args.trace);
  const int setup_reps = args.smoke ? 1 : 3;

  Instance in;
  for (int rep = 0; rep < setup_reps; ++rep) {
    in = Instance{};
    const auto t0 = Clock::now();
    Span span("setup");
    in = set_up(args, options);
    for (int s = 0; s < kWarmupSteps; ++s) {
      Span step("harvey:DistributedSolver::step");
      in.solver->step();
    }
    report.setup_s.push_back(seconds_since(t0));
  }
  tracer.set_enabled(false);
  harvey::DistributedSolver& solver = *in.solver;

  const std::int64_t n = in.lattice->size();
  constexpr double kState = lbm::kQ * sizeof(double);
  report.env_num["points"] = static_cast<double>(n);
  // Two distribution arrays, the adjacency and node types, plus the
  // rollback snapshot; ghosts and sentinel digests not counted.
  report.env_num["working_set_bytes"] =
      static_cast<double>(n) * (2 * kState + lbm::kQ * sizeof(PointIndex) + 1 + kState);

  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  std::int64_t steps =
      window(solver, window_s, checkpoint, &report, &report.window_s);
  report.work_items = static_cast<double>(n) * static_cast<double>(steps);

  if (args.trace) {
    tracer.set_enabled(true);
    Span span("window");
    auto& engine = hal::DeviceEngine::instance();
    const hal::EngineCounters hal0 = engine.counters();
    const resilience::RunStats rs0 = solver.resilience_stats();
    std::int64_t msgs0 = 0, bytes0 = 0;
    {
      Span ledger("comm:Network::ledger");
      msgs0 = solver.network().message_count();
      bytes0 = solver.network().total_bytes();
    }
    const std::int64_t traced =
        window(solver, window_s, checkpoint, nullptr, &report.traced_window_s);
    report.traced_work_items = static_cast<double>(n) * static_cast<double>(traced);
    {
      Span ledger("comm:Network::ledger");
      report.layer["comm.halo_msgs_per_step"] =
          static_cast<double>(solver.network().message_count() - msgs0) /
          static_cast<double>(traced);
      report.layer["comm.halo_bytes_per_step"] =
          static_cast<double>(solver.network().total_bytes() - bytes0) /
          static_cast<double>(traced);
    }
    const hal::EngineCounters hal1 = engine.counters();
    report.layer["hal.launches_per_step"] =
        static_cast<double>(hal1.kernel_launches - hal0.kernel_launches) /
        static_cast<double>(traced);
    report.layer["hal.indices_per_step"] =
        static_cast<double>(hal1.kernel_indices - hal0.kernel_indices) /
        static_cast<double>(traced);
    const resilience::RunStats& rs1 = solver.resilience_stats();
    report.layer["resilience.sdc_checks_per_step"] =
        static_cast<double>(rs1.sdc_checks - rs0.sdc_checks) /
        static_cast<double>(traced);
    report.layer["resilience.snapshots_per_step"] =
        static_cast<double>(rs1.snapshots - rs0.snapshots) /
        static_cast<double>(traced);
    steps += traced;
  }
  report.attempted += steps;
  report.peak_rss_mb = peak_rss_mb();

  if (args.trace) {
    Span probes("probes");
    for (int k = 0; k < 5; ++k) {
      Span span("resilience:check_health");
      (void)solver.check_health();
    }
    if (std::filesystem::exists(checkpoint))
      report.layer["io.checkpoint_mb"] =
          static_cast<double>(std::filesystem::file_size(checkpoint)) /
          1048576.0;

    std::int64_t max_owned = 0, total_owned = 0;
    for (Rank r = 0; r < kRanks; ++r) {
      max_owned = std::max(max_owned, solver.owned_count(r));
      total_owned += solver.owned_count(r);
    }
    report.layer["harvey.imbalance"] =
        static_cast<double>(max_owned) * kRanks / static_cast<double>(total_owned);

    {
      // The same partition with resilience off: the plain step.
      harvey::DistributedSolver plain(in.lattice, in.partition, options);
      plain.set_execution_model(kModel);
      plain.step();
      for (int s = 0; s < (args.smoke ? 4 : 12); ++s) {
        Span span("harvey:DistributedSolver::step(plain)");
        plain.step();
      }
    }
    const int hal_steps = args.smoke ? 4 : 8;
    hal_probe(in.lattice, options, 1, hal_steps, report);
    hal_probe(in.lattice, options, 2, hal_steps, report);
    {
      Span span("lbm:serial_kernel_loop");
      report.layer["lbm.serial_mflups"] = serial_kernel_mflups(
          *in.lattice, options.propagation, options.tau, 0.0,
          args.smoke ? 8 : 6);
    }
    report.layer["lbm.computed_bytes_per_point"] =
        computed_bytes_per_point(options.propagation, 1.0);
    report.layer["lbm.model_bytes_per_point"] =
        lbm::propagation_bytes_per_point(options.propagation);
  }
  tracer.set_enabled(false);

  // ---- Output checks (outside every timed window) ----
  const resilience::RunStats& stats = solver.resilience_stats();
  report.layer["resilience.rollbacks"] = static_cast<double>(stats.rollbacks);
  report.layer["resilience.retransmits"] =
      static_cast<double>(stats.retransmits);
  // In a fault-free run every rollback or retransmit is a failed operation.
  report.failed += stats.rollbacks + stats.retransmits;
  report.check("no_faults_detected", stats.faults_detected() == 0,
               std::to_string(stats.faults_detected()) + " detections");
  {
    lbm::Solver reference(in.lattice, options);
    reference.run(static_cast<int>(solver.step_count()));
    const std::vector<double> got = solver.global_distributions();
    const std::vector<double>& want = reference.distributions();
    const bool same =
        got.size() == want.size() &&
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0;
    report.check("distributed_matches_serial_pull", same,
                 std::to_string(solver.step_count()) + " steps, " +
                     std::to_string(got.size()) + " values");
  }
  std::filesystem::remove(checkpoint);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
