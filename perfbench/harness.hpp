#pragma once
// Shared pieces of the benchmark harness: run arguments, the raw report a
// workload fills in, the in-memory span tracer, and host probes.
//
// The harness only measures.  It writes raw samples, exact counters and
// spans as JSON; perfbench/metrics.py turns them into the named metrics.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "lbm/propagation.hpp"
#include "lbm/sparse_lattice.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;         // tiny inputs, for the self-test
  std::string scratch_dir;    // temp files (journal, checkpoints)
};

/// One output check, run outside every timed window.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one run measured, before any statistics.
struct Report {
  std::map<std::string, std::string> env;  // environment stamp
  std::map<std::string, double> env_num;

  std::vector<double> setup_s;     // one entry per set-up repetition
  std::string op_name;             // what one timed operation is
  double tail_percentile = 50.0;   // tail the run size is chosen for
  std::vector<double> op_ms;       // untraced window, one per operation
  std::vector<double> op_end_s;    // when each op ended, window time
  std::vector<double> op_work;     // work items each op completed
  double window_s = 0.0;           // untraced window wall time
  double work_items = 0.0;         // work done in the untraced window
  std::string work_unit;           // what one work item is
  double traced_window_s = 0.0;    // trace mode: the traced window
  double traced_work_items = 0.0;
  double peak_rss_mb = 0.0;        // VmHWM at the end of the windows

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Check> checks;

  /// Exact counters and directly measured per-layer values (trace mode).
  std::map<std::string, double> layer;

  void check(const std::string& name, bool ok, const std::string& detail);
  void record_op(double ms, double end_s, double work) {
    op_ms.push_back(ms);
    op_end_s.push_back(end_s);
    op_work.push_back(work);
  }
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Spans are kept in memory and written out when the run ends.  Names are
/// "<module>:<call>"; the module is the HemoFlow library the call enters.
/// When disabled, opening a span is one relaxed branch.
class Tracer {
 public:
  struct Record {
    int id = 0;
    int parent = -1;
    int thread = 0;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int open(const std::string& name);
  void close(int id);

  /// JSON lines, one span per line.
  void write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // guarded by mu_
};

/// RAII span around one call; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const std::string& name)
      : id_(Tracer::instance().enabled() ? Tracer::instance().open(name)
                                         : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Clocks and host probes
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak (VmHWM) and current (VmRSS) resident set of this process, in MiB.
double peak_rss_mb();
double rss_mb();

/// Last-level cache size in bytes, from sysfs (0 if unreadable).
std::int64_t llc_bytes();

/// STREAM triad a = b + s*c over arrays of `bytes_per_array` bytes each,
/// single-threaded; best of `reps` passes, in GB/s (3 arrays' bytes per
/// pass, write-allocate not counted, as STREAM reports it).
double triad_gbs(std::int64_t bytes_per_array, int reps);

/// Host-side stamps shared by every workload (LLC, nproc, build).
void stamp_environment(Report& report, const Args& args);

/// Plain single-threaded loop over the public per-point kernels on
/// `lattice` with `pattern`; returns MFLUPS over `steps` steps (after one
/// untimed step per parity).  This is the serial baseline of the lbm
/// layer: no dialect, no engine, no solver object.
double serial_kernel_mflups(const hemo::lbm::SparseLattice& lattice,
                            hemo::lbm::Propagation pattern, double tau,
                            double force_z, int steps);

/// Bytes one lattice-point update moves, computed from array sizes:
/// distribution reads + writes, the int64 adjacency read, and the
/// write-allocate of a separate output array (pull only).  `index_share`
/// is the fraction of updates that read the adjacency (AA even steps of
/// bulk points do not).
double computed_bytes_per_point(hemo::lbm::Propagation pattern,
                                double index_share);

int run_cyl(const Args& args, Report& report);
int run_aorta(const Args& args, Report& report);
int run_serve_mix(const Args& args, Report& report);

}  // namespace perfbench
