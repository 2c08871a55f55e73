#pragma once
// The one place that decides which dialect API serves a hal::Model:
//
//   launch(model, items, body)  runs body(i) for i in [0, items) through
//                               the model's own launch API;
//   DeviceArray<T>              allocates, uploads, downloads and frees
//                               through the model's own memory API;
//   ModelRuntime                scopes the Kokkos runtime a Kokkos model
//                               needs.
//
// Application code (harvey) launches and moves data only through these,
// so its kernels are single-source.  The per-dialect duplication the
// paper measures (Tables 2 and 3) lives in the porting corpus
// (src/port/corpus), not in the runtime.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "base/contracts.hpp"
#include "hal/cudax.hpp"
#include "hal/hipx.hpp"
#include "hal/kokkosx.hpp"
#include "hal/model.hpp"
#include "hal/syclx.hpp"

namespace hemo::hal {

/// The dialect API a model is programmed in: every Kokkos backend goes
/// through kokkosx.
enum class Dialect { kCudax, kHipx, kSyclx, kKokkosx };

constexpr Dialect dialect_of(Model m) {
  if (is_kokkos(m)) return Dialect::kKokkosx;
  if (m == Model::kCuda) return Dialect::kCudax;
  return m == Model::kHip ? Dialect::kHipx : Dialect::kSyclx;
}

/// Runs body(i) for every i in [0, items) through `model`'s dialect and
/// returns once all of it has run.  cudax/hipx round the grid up to whole
/// 256-thread blocks and return early on the tail threads, so their
/// EngineCounters::kernel_indices counts the rounded grid; syclx and
/// kokkosx launch exactly `items`.
template <typename Body>
void launch(Model model, std::int64_t items, Body body) {
  HEMO_EXPECTS(items > 0);
  constexpr unsigned kBlock = 256;
  const auto grid = static_cast<unsigned>((items + kBlock - 1) / kBlock);
  const auto guarded = [items, body](std::int64_t i) {
    if (i < items) body(i);
  };
  switch (dialect_of(model)) {
    case Dialect::kCudax:
      HEMO_ENSURES(cudaxLaunchKernel(dim3x(grid), dim3x(kBlock),
                                     guarded) == cudaxSuccess);
      HEMO_ENSURES(cudaxDeviceSynchronize() == cudaxSuccess);
      return;
    case Dialect::kHipx:
      HEMO_ENSURES(hipxLaunchKernel(dim3x(grid), dim3x(kBlock),
                                    guarded) == hipxSuccess);
      HEMO_ENSURES(hipxDeviceSynchronize() == hipxSuccess);
      return;
    case Dialect::kSyclx: {
      syclx::queue queue;
      queue.parallel_for(syclx::range<1>(static_cast<std::size_t>(items)),
                         [body](syclx::id<1> i) {
                           body(static_cast<std::int64_t>(i));
                         });
      queue.wait();
      return;
    }
    case Dialect::kKokkosx:
      kokkosx::parallel_for("hal::launch", kokkosx::RangePolicy(0, items),
                            body);
      kokkosx::fence();
      return;
  }
}

/// A move-only array of `T` in the device memory of one model.  For a
/// Kokkos model a View owns the allocation and transfers stage through a
/// host mirror; data() is the raw device pointer either way (the data()
/// idiom the paper adopted to reuse CUDA kernel bodies under Kokkos).
template <typename T>
class DeviceArray {
 public:
  DeviceArray() = default;

  /// Allocates `count` uninitialized elements.
  DeviceArray(Model model, std::size_t count) : model_(model), count_(count) {
    const std::size_t bytes = count * sizeof(T);
    void* p = nullptr;
    switch (dialect_of(model)) {
      case Dialect::kCudax:
        HEMO_ENSURES(cudaxMalloc(&p, bytes) == cudaxSuccess);
        break;
      case Dialect::kHipx:
        HEMO_ENSURES(hipxMalloc(&p, bytes) == hipxSuccess);
        break;
      case Dialect::kSyclx: {
        syclx::queue queue;
        p = syclx::malloc_device<T>(count, queue);
        break;
      }
      case Dialect::kKokkosx:
        view_ = kokkosx::View<T*>("hal::DeviceArray", count);
        p = view_.data();
        break;
    }
    data_ = static_cast<T*>(p);
  }

  /// Allocates host.size() elements and uploads `host` into them.
  DeviceArray(Model model, std::span<const T> host)
      : DeviceArray(model, host.size()) {
    upload(host.data());
  }

  ~DeviceArray() {
    if (data_ == nullptr) return;
    switch (dialect_of(model_)) {
      case Dialect::kCudax: cudaxFree(data_); break;
      case Dialect::kHipx: hipxFree(data_); break;
      case Dialect::kSyclx: {
        syclx::queue queue;
        syclx::free(data_, queue);
        break;
      }
      case Dialect::kKokkosx: break;  // view_ releases it
    }
  }

  DeviceArray(const DeviceArray&) = delete;
  DeviceArray& operator=(const DeviceArray&) = delete;
  DeviceArray(DeviceArray&& other) noexcept
      : model_(other.model_),
        count_(std::exchange(other.count_, 0)),
        data_(std::exchange(other.data_, nullptr)),
        view_(std::move(other.view_)) {}
  /// Swaps, so `other` releases what this array held.
  DeviceArray& operator=(DeviceArray&& other) noexcept {
    std::swap(model_, other.model_);
    std::swap(count_, other.count_);
    std::swap(data_, other.data_);
    std::swap(view_, other.view_);
    return *this;
  }

  /// Copies size() elements from `host` into the array.
  void upload(const T* host) {
    const std::size_t bytes = count_ * sizeof(T);
    switch (dialect_of(model_)) {
      case Dialect::kCudax:
        HEMO_ENSURES(cudaxMemcpy(data_, host, bytes,
                                 cudaxMemcpyHostToDevice) == cudaxSuccess);
        break;
      case Dialect::kHipx:
        HEMO_ENSURES(hipxMemcpy(data_, host, bytes, hipxMemcpyHostToDevice) ==
                     hipxSuccess);
        break;
      case Dialect::kSyclx: {
        syclx::queue queue;
        queue.memcpy(data_, host, bytes);
        queue.wait();
        break;
      }
      case Dialect::kKokkosx: {
        auto mirror = kokkosx::create_mirror_view(view_);
        std::memcpy(mirror.data(), host, bytes);
        kokkosx::deep_copy(view_, mirror);
        break;
      }
    }
  }

  /// Host copy of the whole array.
  std::vector<T> download() const {
    std::vector<T> out(count_);
    const std::size_t bytes = count_ * sizeof(T);
    switch (dialect_of(model_)) {
      case Dialect::kCudax:
        HEMO_ENSURES(cudaxMemcpy(out.data(), data_, bytes,
                                 cudaxMemcpyDeviceToHost) == cudaxSuccess);
        break;
      case Dialect::kHipx:
        HEMO_ENSURES(hipxMemcpy(out.data(), data_, bytes,
                                hipxMemcpyDeviceToHost) == hipxSuccess);
        break;
      case Dialect::kSyclx: {
        syclx::queue queue;
        queue.memcpy(out.data(), data_, bytes);
        queue.wait();
        break;
      }
      case Dialect::kKokkosx: {
        auto mirror = kokkosx::create_mirror_view(view_);
        kokkosx::deep_copy(mirror, view_);
        std::memcpy(out.data(), mirror.data(), bytes);
        break;
      }
    }
    return out;
  }

  T* data() const { return data_; }
  std::size_t size() const { return count_; }

 private:
  Model model_ = Model::kCuda;
  std::size_t count_ = 0;
  T* data_ = nullptr;
  kokkosx::View<T*> view_;  // Kokkos models only
};

/// Scopes the process-wide Kokkos runtime for a Kokkos model: initializes
/// it with the model's backend when it is not yet up, and finalizes on
/// destruction only a runtime it started itself.  A no-op for the other
/// models.
class ModelRuntime {
 public:
  explicit ModelRuntime(Model model) {
    if (!is_kokkos(model)) return;
    const Backend backend = backend_of(model);
    if (kokkosx::is_initialized()) {
      // One Kokkos backend per process, as with real Kokkos builds.
      HEMO_EXPECTS(kokkosx::current_backend() == backend);
    } else {
      kokkosx::initialize(backend);
      owns_ = true;
    }
  }
  ~ModelRuntime() {
    if (owns_) kokkosx::finalize();
  }
  ModelRuntime(const ModelRuntime&) = delete;
  ModelRuntime& operator=(const ModelRuntime&) = delete;

 private:
  bool owns_ = false;
};

}  // namespace hemo::hal
