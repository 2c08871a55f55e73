#pragma once
// DeviceEngine: the execution substrate beneath every programming-model
// dialect in hemo::hal.  It stands in for a GPU: it owns "device"
// allocations, executes data-parallel index ranges (optionally across host
// threads), and keeps byte/launch counters that the tests and the cluster
// simulator consume.
//
// All four dialects (cudax, hipx, syclx, kokkosx) lower onto this engine,
// mirroring how CUDA/HIP/SYCL/Kokkos all drive the same physical device in
// the paper's study.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

namespace hemo::hal {

struct EngineCounters {
  std::int64_t allocations = 0;
  std::int64_t bytes_allocated = 0;
  std::int64_t bytes_h2d = 0;
  std::int64_t bytes_d2h = 0;
  std::int64_t bytes_d2d = 0;
  std::int64_t kernel_launches = 0;
  // Work items executed, summed over launches.  A coarsened launch runs
  // one work item per block of points (lbm::kBlock), so for the solvers'
  // stream-collide launches this counts blocks, not lattice points.
  std::int64_t kernel_indices = 0;
};

class DeviceEngine {
 public:
  DeviceEngine() = default;
  DeviceEngine(const DeviceEngine&) = delete;
  DeviceEngine& operator=(const DeviceEngine&) = delete;
  ~DeviceEngine();

  /// Process-wide default engine used by the C-style dialect APIs
  /// (cudax/hipx) that, like their real counterparts, have an implicit
  /// current device.
  static DeviceEngine& instance();

  /// Allocates `bytes` of device memory; returns nullptr on failure
  /// (zero-byte requests yield a unique non-null pointer, as CUDA does).
  void* allocate(std::size_t bytes);
  /// Frees a pointer previously returned by allocate; returns false if the
  /// pointer is unknown (the dialects translate that into their own error
  /// idiom).
  bool deallocate(void* ptr);
  /// True if ptr was returned by allocate and not yet freed.
  bool owns(void* ptr) const;
  /// Size of the allocation at ptr, or 0 if unknown.
  std::size_t allocation_size(void* ptr) const;

  void copy_h2d(void* dst, const void* src, std::size_t bytes);
  void copy_d2h(void* dst, const void* src, std::size_t bytes);
  void copy_d2d(void* dst, const void* src, std::size_t bytes);

  /// Executes fn(i) for every i in [0, n).  With more than one worker
  /// thread the range is split into contiguous chunks; the kernel bodies
  /// used in HemoFlow write only to the points of work item i, so chunking
  /// is race-free.  Templated on the functor so the per-index body
  /// inlines; only the hand-off of a chunk to a worker is type-erased.
  template <typename Fn>
  void parallel_for(std::int64_t n, Fn&& fn) {
    ++counters_.kernel_launches;
    counters_.kernel_indices += n;
    if (n <= 0) return;
    if (threads_ <= 1 || n < 2 * threads_) {
      for (std::int64_t i = 0; i < n; ++i) fn(i);
      return;
    }
    run_chunks(n, [&fn](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) fn(i);
    });
  }

  /// Number of worker threads used by parallel_for (default 1).
  void set_threads(int threads);
  int threads() const { return threads_; }

  const EngineCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = EngineCounters{}; }

  /// Number of live allocations (leak checks in tests).
  std::size_t live_allocations() const { return allocations_.size(); }

 private:
  /// Splits [0, n) into threads() contiguous chunks and runs chunk(lo, hi)
  /// for each on its own thread, returning once all have finished.
  void run_chunks(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& chunk);

  std::unordered_map<void*, std::unique_ptr<std::byte[]>> allocations_;
  std::unordered_map<const void*, std::size_t> sizes_;
  EngineCounters counters_;
  int threads_ = 1;
};

}  // namespace hemo::hal
