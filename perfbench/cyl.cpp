// cyl_aa_device: periodic cylinder (r=24, L=1024, 1.85M points), body
// force, AA propagation, through harvey::DeviceSolver on the kokkosx
// dialect (hal::Model::kKokkosCuda) with the DeviceEngine at 2 threads.
//
// Why: the lbm kernel and the hal launch path do nearly all the work; the
// AA state plus the int64 adjacency (~305 B/point, ~560 MB) is larger
// than the last-level cache, so a change that moves fewer bytes shows.

#include <cmath>
#include <cstring>
#include <iomanip>
#include <memory>
#include <sstream>

#include "base/rng.hpp"
#include "geom/cylinder.hpp"
#include "hal/device.hpp"
#include "harness.hpp"
#include "harvey/device_solver.hpp"
#include "lbm/solver.hpp"
#include "resilience/policy.hpp"

namespace perfbench {

using namespace hemo;

namespace {

constexpr int kThreads = 2;
constexpr int kWarmupSteps = 2;  // one AA pair: both kernels paged in
constexpr int kPrefixSteps = 3;  // even, odd, even: both parities checked

std::shared_ptr<const lbm::SparseLattice> voxelize(const Args& args) {
  Span span("geom:make_cylinder_lattice");
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = args.smoke ? 6.0 : 24.0;
  spec.axial_per_scale = args.smoke ? 32.0 : 1024.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kPeriodic);
}

/// Max |u| over all points of a canonical distribution snapshot.
double max_speed(const std::vector<double>& f, std::int64_t n,
                 const lbm::SolverOptions& o) {
  double best = 0.0;
  double fi[lbm::kQ];
  for (std::int64_t i = 0; i < n; ++i) {
    for (int q = 0; q < lbm::kQ; ++q)
      fi[q] = f[static_cast<std::size_t>(q) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(i)];
    const lbm::Moments m = lbm::moments_of(fi, o.body_force.x, o.body_force.y,
                                           o.body_force.z);
    const double u = std::sqrt(m.ux * m.ux + m.uy * m.uy + m.uz * m.uz);
    if (!std::isfinite(u)) return u;
    best = std::max(best, u);
  }
  return best;
}

/// Neumaier-compensated sum.
double compensated_sum(const std::vector<double>& values) {
  double sum = 0.0, carry = 0.0;
  for (const double v : values) {
    const double t = sum + v;
    carry += std::abs(sum) >= std::abs(v) ? (sum - t) + v : (v - t) + sum;
    sum = t;
  }
  return sum + carry;
}

/// One step pair (even + odd AA kernel): the two steps differ in cost, so
/// a single step's time is bimodal and its median unsteady.
double timed_pair_ms(harvey::DeviceSolver& solver) {
  const auto t0 = Clock::now();
  {
    Span span("hal:DeviceSolver::step");
    solver.step();
  }
  {
    Span span("hal:DeviceSolver::step");
    solver.step();
  }
  return seconds_since(t0) * 1e3;
}

}  // namespace

int run_cyl(const Args& args, Report& report) {
  SplitMix64 rng(args.seed);
  lbm::SolverOptions options;
  options.tau = 0.9;
  options.body_force = {0.0, 0.0, rng.uniform(1e-5, 3e-5)};
  options.initial_velocity = {0.0, 0.0, rng.uniform(0.0, 0.02)};
  options.propagation = lbm::Propagation::kAAInPlace;
  const hal::Model model = hal::Model::kKokkosCuda;
  auto& engine = hal::DeviceEngine::instance();

  report.op_name = "step (an even+odd AA pair, halved)";
  report.work_unit = "lattice-point update";
  report.tail_percentile = 50.0;
  report.env["dialect"] = std::string(hal::name_of(model));
  report.env["propagation"] = lbm::propagation_name(options.propagation);
  report.env_num["threads"] = kThreads;
  report.env_num["input_force_z"] = options.body_force.z;

  Tracer& tracer = Tracer::instance();
  const int setup_reps = args.smoke ? 1 : 3;
  const double window = args.trace ? args.seconds / 2 : args.seconds;

  // Each set-up repetition builds a fresh instance and times one segment
  // of the untraced window on it, so placement effects of one allocation
  // (pages, cache sets) are averaged over the instances of a run.
  std::shared_ptr<const lbm::SparseLattice> lattice;
  std::unique_ptr<harvey::DeviceSolver> solver;
  double mass0 = 0.0, plain_mass0 = 0.0;
  std::int64_t steps = 0;  // steps of the last instance since mass0
  for (int rep = 0; rep < setup_reps; ++rep) {
    solver.reset();
    lattice.reset();
    tracer.set_enabled(args.trace);
    const auto t0 = Clock::now();
    {
      Span span("setup");
      lattice = voxelize(args);
      engine.set_threads(kThreads);
      {
        Span construct("harvey:DeviceSolver::DeviceSolver");
        solver =
            std::make_unique<harvey::DeviceSolver>(lattice, options, model);
      }
      for (int s = 0; s < kWarmupSteps; ++s) {
        Span step("hal:DeviceSolver::step");
        solver->step();
      }
    }
    report.setup_s.push_back(seconds_since(t0));
    tracer.set_enabled(false);

    if (rep == setup_reps - 1) {
      // Mass is summed with compensation: a plain sum of 35M values
      // rounds by far more than the lattice update does.
      mass0 = compensated_sum(solver->distributions());
      plain_mass0 = solver->total_mass();
    }
    const std::int64_t n = lattice->size();
    std::int64_t segment_steps = 0;
    const double base = report.window_s;
    const auto w0 = Clock::now();
    while (seconds_since(w0) < window / setup_reps || segment_steps < 2) {
      const double ms = timed_pair_ms(*solver) / 2.0;
      report.record_op(ms, base + seconds_since(w0),
                       2.0 * static_cast<double>(n));
      segment_steps += 2;
    }
    report.window_s += seconds_since(w0);
    report.work_items +=
        static_cast<double>(n) * static_cast<double>(segment_steps);
    report.attempted += segment_steps;
    steps = segment_steps;
  }

  const std::int64_t n = lattice->size();
  report.env_num["points"] = static_cast<double>(n);
  // AA state + int64 adjacency + node type.
  report.env_num["working_set_bytes"] =
      static_cast<double>(n) *
      (lbm::kQ * sizeof(double) + lbm::kQ * sizeof(PointIndex) + 1.0);

  if (args.trace) {
    tracer.set_enabled(true);
    Span span("window");
    const hal::EngineCounters before = engine.counters();
    std::int64_t traced_steps = 0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < window || traced_steps < 2) {
      timed_pair_ms(*solver);
      traced_steps += 2;
    }
    report.traced_window_s = seconds_since(t0);
    report.traced_work_items =
        static_cast<double>(n) * static_cast<double>(traced_steps);
    const hal::EngineCounters after = engine.counters();
    report.layer["hal.launches_per_step"] =
        static_cast<double>(after.kernel_launches - before.kernel_launches) /
        static_cast<double>(traced_steps);
    report.layer["hal.indices_per_step"] =
        static_cast<double>(after.kernel_indices - before.kernel_indices) /
        static_cast<double>(traced_steps);
    steps += traced_steps;
    report.attempted += traced_steps;
  }
  report.peak_rss_mb = peak_rss_mb();

  if (args.trace) {
    Span probes("probes");
    // The same DeviceSolver at 1 and at 2 engine threads, in AA pairs: the
    // dialect tax and the thread scaling are both taken from these.
    for (const int threads : {1, kThreads}) {
      engine.set_threads(threads);
      const std::string name =
          "hal:DeviceSolver::step@" + std::to_string(threads) + "t";
      for (int s = 0; s < 4; ++s) {
        Span span(name);
        solver->step();
      }
      steps += 4;
    }

    const hal::EngineCounters before = engine.counters();
    {
      Span span("hal:DeviceSolver::observe");
      (void)solver->total_mass();
      (void)solver->distributions();
    }
    report.layer["hal.d2h_bytes_per_observe"] =
        static_cast<double>(engine.counters().bytes_d2h - before.bytes_d2h);

    {
      Span span("lbm:serial_kernel_loop");
      report.layer["lbm.serial_mflups"] = serial_kernel_mflups(
          *lattice, options.propagation, options.tau, options.body_force.z,
          args.smoke ? 4 : 2);
    }
    std::int64_t non_bulk = 0;
    for (std::int64_t i = 0; i < n; ++i)
      non_bulk += lattice->node_type(i) != lbm::NodeType::kBulk;
    // Odd AA steps read the adjacency at every point, even steps only at
    // boundary-typed points.
    const double index_share =
        0.5 + 0.5 * static_cast<double>(non_bulk) / static_cast<double>(n);
    report.layer["lbm.computed_bytes_per_point"] =
        computed_bytes_per_point(options.propagation, index_share);
    report.layer["lbm.model_bytes_per_point"] =
        lbm::propagation_bytes_per_point(options.propagation);
  }
  tracer.set_enabled(false);

  // ---- Output checks (outside every timed window) ----
  {
    const std::vector<double> f = solver->distributions();
    const double mass1 = compensated_sum(f);
    const double tol = resilience::conserved_mass_tolerance(
        static_cast<std::int64_t>(lbm::kQ) * n, steps);
    std::ostringstream d;
    d << std::setprecision(3) << "|dm|=" << std::abs(mass1 - mass0)
      << " tol=" << tol << " over " << steps
      << " steps (DeviceSolver::total_mass, a plain sum, moved by "
      << std::abs(solver->total_mass() - plain_mass0) << ")";
    report.check("mass_conserved", std::abs(mass1 - mass0) <= tol, d.str());

    const double u = max_speed(f, n, options);
    std::ostringstream speed;
    speed << "max|u|=" << u;
    report.check("max_speed_finite", std::isfinite(u), speed.str());
  }
  solver.reset();

  // Bit-identity with the serial pull reference over a prefix of steps.
  {
    harvey::DeviceSolver device(lattice, options, model);
    lbm::SolverOptions pull = options;
    pull.propagation = lbm::Propagation::kPullSoA;
    lbm::Solver reference(lattice, pull);
    device.run(kPrefixSteps);
    reference.run(kPrefixSteps);
    const std::vector<double> got = device.distributions();
    const std::vector<double>& want = reference.distributions();
    const bool same =
        got.size() == want.size() &&
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0;
    report.check("aa_device_matches_serial_pull", same,
                 std::to_string(kPrefixSteps) + " steps, " +
                     std::to_string(got.size()) + " values");
  }
  return report.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
