#include "harness.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "lbm/kernels.hpp"

namespace perfbench {

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks.push_back({name, ok, detail});
  ++attempted;
  if (!ok) ++failed;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

thread_local std::vector<int> t_stack;  // open span ids of this thread
thread_local int t_thread = -1;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const std::string& name) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  static int next_thread = 0;
  if (t_thread < 0) t_thread = next_thread++;
  Record r;
  r.id = static_cast<int>(spans_.size());
  r.parent = t_stack.empty() ? -1 : t_stack.back();
  r.thread = t_thread;
  r.name = name;
  r.start_ns = start;
  spans_.push_back(std::move(r));
  t_stack.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  for (const Record& r : spans_) {
    os << "{\"id\": " << r.id << ", \"parent\": " << r.parent
       << ", \"thread\": " << r.thread << ", \"name\": \""
       << json_escape(r.name) << "\", \"start_ns\": " << r.start_ns
       << ", \"end_ns\": " << r.end_ns << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Host probes
// ---------------------------------------------------------------------------

namespace {

double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }
double rss_mb() { return status_mb("VmRSS:"); }

std::int64_t llc_bytes() {
  std::int64_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty())
      continue;
    std::int64_t bytes = std::stoll(size);
    const char unit = size.back();
    if (unit == 'K') bytes <<= 10;
    if (unit == 'M') bytes <<= 20;
    if (level >= best_level) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

double triad_gbs(std::int64_t bytes_per_array, int reps) {
  const auto n = static_cast<std::size_t>(bytes_per_array / 8);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double s = 3.0;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = seconds_since(t0);
    best = std::max(best, 3.0 * static_cast<double>(n) * 8.0 / dt / 1e9);
  }
  // Keeps the stores observable.
  if (a[n / 2] != 7.0) best = -best;
  return best;
}

void stamp_environment(Report& report, const Args& args) {
  report.env["build_type"] = PERFBENCH_BUILD_TYPE;
  report.env["compiler"] = PERFBENCH_COMPILER;
#ifdef __OPTIMIZE__
  report.env["optimized"] = "yes";
#else
  report.env["optimized"] = "no";
#endif
  report.env_num["nproc"] =
      static_cast<double>(std::thread::hardware_concurrency());
  report.env_num["llc_bytes"] = static_cast<double>(llc_bytes());
  report.env_num["seed"] = static_cast<double>(args.seed);
  report.env_num["seconds"] = args.seconds;
}

// ---------------------------------------------------------------------------
// lbm serial baseline
// ---------------------------------------------------------------------------

double serial_kernel_mflups(const hemo::lbm::SparseLattice& lattice,
                            hemo::lbm::Propagation pattern, double tau,
                            double force_z, int steps) {
  using namespace hemo::lbm;
  const std::int64_t n = lattice.size();
  const auto values = static_cast<std::size_t>(kQ) * static_cast<std::size_t>(n);
  std::vector<std::uint8_t> types(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    types[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(lattice.node_type(i));

  std::vector<double> f_a(values), f_b;
  for (int q = 0; q < kQ; ++q)
    std::fill_n(f_a.begin() + static_cast<std::ptrdiff_t>(q) * n, n,
                equilibrium(q, 1.0, 0.0, 0.0, 0.0));
  if (pattern == Propagation::kPullSoA) f_b.resize(values);

  KernelArgs a;
  a.adjacency = lattice.adjacency().data();
  a.node_type = types.data();
  a.n = n;
  a.omega = 1.0 / tau;
  a.force_z = force_z;

  std::int64_t parity = 0;
  auto one_step = [&] {
    if (pattern == Propagation::kAAInPlace) {
      a.f = f_a.data();
      if (parity % 2 == 0) {
        for (std::int64_t i = 0; i < n; ++i) stream_collide_point_aa_even(a, i);
      } else {
        for (std::int64_t i = 0; i < n; ++i) stream_collide_point_aa_odd(a, i);
      }
    } else {
      a.f_in = f_a.data();
      a.f_out = f_b.data();
      for (std::int64_t i = 0; i < n; ++i) stream_collide_point(a, i);
      f_a.swap(f_b);
    }
    ++parity;
  };

  one_step();
  one_step();
  const auto t0 = Clock::now();
  for (int s = 0; s < steps; ++s) one_step();
  const double dt = seconds_since(t0);
  return static_cast<double>(n) * steps / dt / 1e6;
}

double computed_bytes_per_point(hemo::lbm::Propagation pattern,
                                double index_share) {
  constexpr double kState = hemo::lbm::kQ * sizeof(double);
  constexpr double kIndex = hemo::lbm::kQ * sizeof(hemo::PointIndex);
  constexpr double kType = 1.0;
  if (pattern == hemo::lbm::Propagation::kPullSoA)
    return kState /*read*/ + kState /*write*/ + kState /*write-allocate*/ +
           kIndex * index_share + kType;
  return kState /*read*/ + kState /*write, in place*/ +
         kIndex * index_share + kType;
}

}  // namespace perfbench
