#include "harvey/device_solver.hpp"

#include <cstring>

#include "base/contracts.hpp"
#include "hal/cudax.hpp"
#include "hal/device.hpp"
#include "hal/hipx.hpp"
#include "hal/kokkosx.hpp"
#include "hal/syclx.hpp"
#include "lbm/aa_layout.hpp"

namespace hemo::harvey {

namespace {

/// Host-side staging of lattice metadata shared by all dialect paths.
/// For the AA pattern the initial equilibrium snapshot is decanonicalized
/// into the even-parity in-place layout before upload, so step 1 on the
/// device is bit-identical to the pull path from the very first gather.
struct HostState {
  std::vector<std::uint8_t> node_type;
  std::vector<double> f_init;

  HostState(const lbm::SparseLattice& lattice,
            const lbm::SolverOptions& options) {
    const auto n = static_cast<std::size_t>(lattice.size());
    node_type.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      node_type[i] = static_cast<std::uint8_t>(
          lattice.node_type(static_cast<PointIndex>(i)));
    f_init.resize(static_cast<std::size_t>(lbm::kQ) * n);
    const Vec3& u0 = options.initial_velocity;
    for (int q = 0; q < lbm::kQ; ++q) {
      const double feq =
          lbm::equilibrium(q, options.initial_density, u0.x, u0.y, u0.z);
      std::fill_n(f_init.begin() + static_cast<std::ptrdiff_t>(q) *
                                       static_cast<std::ptrdiff_t>(n),
                  n, feq);
    }
    if (options.propagation == lbm::Propagation::kAAInPlace) {
      std::vector<double> canonical = f_init;
      lbm::aa_decanonicalize(lattice.adjacency().data(), lattice.size(),
                             /*steps_done=*/0, canonical.data(),
                             f_init.data());
    }
  }
};

lbm::KernelArgs make_args(const double* f_in, double* f_out,
                          const PointIndex* adjacency,
                          const std::uint8_t* node_type, std::int64_t n,
                          const lbm::SolverOptions& o) {
  lbm::KernelArgs a;
  a.f_in = f_in;
  a.f_out = f_out;
  a.adjacency = adjacency;
  a.node_type = node_type;
  a.n = n;
  a.omega = 1.0 / o.tau;
  a.force_x = o.body_force.x;
  a.force_y = o.body_force.y;
  a.force_z = o.body_force.z;
  a.inlet_velocity = o.inlet_velocity;
  a.outlet_density = o.outlet_density;
  return a;
}

/// Args for an AA launch: the single array is all three of f_in/f_out/f
/// (the AA kernels only read .f, but keeping the pull fields pointed at
/// the same storage keeps make_args-built args fully initialized).
lbm::KernelArgs make_aa_args(double* f, const PointIndex* adjacency,
                             const std::uint8_t* node_type, std::int64_t n,
                             const lbm::SolverOptions& o) {
  lbm::KernelArgs a = make_args(f, f, adjacency, node_type, n, o);
  a.f = f;
  return a;
}

}  // namespace

struct DeviceSolver::Impl {
  virtual ~Impl() = default;
  /// One step; `steps_done` is the count completed so far — its parity
  /// selects the even/odd AA kernel (ignored by the pull path).
  virtual void step(const lbm::SolverOptions& options,
                    std::int64_t steps_done) = 0;
  /// Raw distribution array in the pattern's own layout (the pull path's
  /// post-collision SoA, or the AA in-place array); DeviceSolver
  /// canonicalizes on the host.
  virtual std::vector<double> distributions() const = 0;
  /// Device pointer to that raw array, for reads of single values.
  virtual const double* live_data() const = 0;
};

namespace {

// ---------------------------------------------------------------------------
// cudax / hipx paths.  The two are written out separately — not factored
// through a template — because they stand in for two separately maintained
// ports of the same CUDA-shaped code, exactly the maintainability situation
// the paper discusses.  hipx mirrors cudax call-for-call.
// ---------------------------------------------------------------------------

class CudaxImpl final : public DeviceSolver::Impl {
 public:
  CudaxImpl(const lbm::SparseLattice& lattice, const HostState& host,
            lbm::Propagation pattern)
      : n_(lattice.size()), pattern_(pattern) {
    const std::size_t fbytes =
        static_cast<std::size_t>(lbm::kQ) * n_ * sizeof(double);
    HEMO_ENSURES(cudaxMalloc(&f_a_, fbytes) == cudaxSuccess);
    if (pattern_ == lbm::Propagation::kPullSoA)  // AA runs in place
      HEMO_ENSURES(cudaxMalloc(&f_b_, fbytes) == cudaxSuccess);
    HEMO_ENSURES(cudaxMalloc(&adjacency_, lattice.adjacency().size() *
                                              sizeof(PointIndex)) ==
                 cudaxSuccess);
    HEMO_ENSURES(cudaxMalloc(&node_type_, host.node_type.size()) ==
                 cudaxSuccess);
    HEMO_ENSURES(cudaxMemcpy(f_a_, host.f_init.data(), fbytes,
                             cudaxMemcpyHostToDevice) == cudaxSuccess);
    HEMO_ENSURES(cudaxMemcpy(adjacency_, lattice.adjacency().data(),
                             lattice.adjacency().size() * sizeof(PointIndex),
                             cudaxMemcpyHostToDevice) == cudaxSuccess);
    HEMO_ENSURES(cudaxMemcpy(node_type_, host.node_type.data(),
                             host.node_type.size(),
                             cudaxMemcpyHostToDevice) == cudaxSuccess);
  }

  ~CudaxImpl() override {
    cudaxFree(f_a_);
    cudaxFree(f_b_);
    cudaxFree(adjacency_);
    cudaxFree(node_type_);
  }

  void step(const lbm::SolverOptions& options,
            std::int64_t steps_done) override {
    const unsigned block = 256;
    const std::int64_t blocks = lbm::block_count(n_);
    const auto grid = static_cast<unsigned>(
        (blocks + block - 1) / static_cast<std::int64_t>(block));
    const std::int64_t n = n_;
    if (pattern_ == lbm::Propagation::kAAInPlace) {
      const lbm::KernelArgs args = make_aa_args(
          static_cast<double*>(f_a_),
          static_cast<const PointIndex*>(adjacency_),
          static_cast<const std::uint8_t*>(node_type_), n_, options);
      if (steps_done % 2 == 0) {
        HEMO_ENSURES(cudaxLaunchKernel(dim3x(grid), dim3x(block),
                                       [args, n, blocks](std::int64_t b) {
                                         if (b >= blocks) return;
                                         lbm::stream_collide_block_aa_even(
                                             args, b, n);
                                       }) == cudaxSuccess);
      } else {
        HEMO_ENSURES(cudaxLaunchKernel(dim3x(grid), dim3x(block),
                                       [args, n, blocks](std::int64_t b) {
                                         if (b >= blocks) return;
                                         lbm::stream_collide_block_aa_odd(
                                             args, b, n);
                                       }) == cudaxSuccess);
      }
      HEMO_ENSURES(cudaxDeviceSynchronize() == cudaxSuccess);
      return;
    }
    const lbm::KernelArgs args = make_args(
        static_cast<const double*>(f_a_), static_cast<double*>(f_b_),
        static_cast<const PointIndex*>(adjacency_),
        static_cast<const std::uint8_t*>(node_type_), n_, options);
    HEMO_ENSURES(cudaxLaunchKernel(dim3x(grid), dim3x(block),
                                   [args, n, blocks](std::int64_t b) {
                                     if (b >= blocks) return;
                                     lbm::stream_collide_block(args, b, n);
                                   }) == cudaxSuccess);
    HEMO_ENSURES(cudaxDeviceSynchronize() == cudaxSuccess);
    std::swap(f_a_, f_b_);
  }

  std::vector<double> distributions() const override {
    std::vector<double> out(static_cast<std::size_t>(lbm::kQ) * n_);
    HEMO_ENSURES(cudaxMemcpy(out.data(), f_a_, out.size() * sizeof(double),
                             cudaxMemcpyDeviceToHost) == cudaxSuccess);
    return out;
  }

  const double* live_data() const override {
    return static_cast<const double*>(f_a_);
  }

 private:
  std::int64_t n_;
  lbm::Propagation pattern_;
  void* f_a_ = nullptr;
  void* f_b_ = nullptr;
  void* adjacency_ = nullptr;
  void* node_type_ = nullptr;
};

class HipxImpl final : public DeviceSolver::Impl {
 public:
  HipxImpl(const lbm::SparseLattice& lattice, const HostState& host,
           lbm::Propagation pattern)
      : n_(lattice.size()), pattern_(pattern) {
    const std::size_t fbytes =
        static_cast<std::size_t>(lbm::kQ) * n_ * sizeof(double);
    HEMO_ENSURES(hipxMalloc(&f_a_, fbytes) == hipxSuccess);
    if (pattern_ == lbm::Propagation::kPullSoA)  // AA runs in place
      HEMO_ENSURES(hipxMalloc(&f_b_, fbytes) == hipxSuccess);
    HEMO_ENSURES(hipxMalloc(&adjacency_, lattice.adjacency().size() *
                                             sizeof(PointIndex)) ==
                 hipxSuccess);
    HEMO_ENSURES(hipxMalloc(&node_type_, host.node_type.size()) ==
                 hipxSuccess);
    HEMO_ENSURES(hipxMemcpy(f_a_, host.f_init.data(), fbytes,
                            hipxMemcpyHostToDevice) == hipxSuccess);
    HEMO_ENSURES(hipxMemcpy(adjacency_, lattice.adjacency().data(),
                            lattice.adjacency().size() * sizeof(PointIndex),
                            hipxMemcpyHostToDevice) == hipxSuccess);
    HEMO_ENSURES(hipxMemcpy(node_type_, host.node_type.data(),
                            host.node_type.size(),
                            hipxMemcpyHostToDevice) == hipxSuccess);
  }

  ~HipxImpl() override {
    hipxFree(f_a_);
    hipxFree(f_b_);
    hipxFree(adjacency_);
    hipxFree(node_type_);
  }

  void step(const lbm::SolverOptions& options,
            std::int64_t steps_done) override {
    const unsigned block = 256;
    const std::int64_t blocks = lbm::block_count(n_);
    const auto grid = static_cast<unsigned>(
        (blocks + block - 1) / static_cast<std::int64_t>(block));
    const std::int64_t n = n_;
    if (pattern_ == lbm::Propagation::kAAInPlace) {
      const lbm::KernelArgs args = make_aa_args(
          static_cast<double*>(f_a_),
          static_cast<const PointIndex*>(adjacency_),
          static_cast<const std::uint8_t*>(node_type_), n_, options);
      if (steps_done % 2 == 0) {
        HEMO_ENSURES(hipxLaunchKernel(dim3x(grid), dim3x(block),
                                      [args, n, blocks](std::int64_t b) {
                                        if (b >= blocks) return;
                                        lbm::stream_collide_block_aa_even(
                                            args, b, n);
                                      }) == hipxSuccess);
      } else {
        HEMO_ENSURES(hipxLaunchKernel(dim3x(grid), dim3x(block),
                                      [args, n, blocks](std::int64_t b) {
                                        if (b >= blocks) return;
                                        lbm::stream_collide_block_aa_odd(
                                            args, b, n);
                                      }) == hipxSuccess);
      }
      HEMO_ENSURES(hipxDeviceSynchronize() == hipxSuccess);
      return;
    }
    const lbm::KernelArgs args = make_args(
        static_cast<const double*>(f_a_), static_cast<double*>(f_b_),
        static_cast<const PointIndex*>(adjacency_),
        static_cast<const std::uint8_t*>(node_type_), n_, options);
    HEMO_ENSURES(hipxLaunchKernel(dim3x(grid), dim3x(block),
                                  [args, n, blocks](std::int64_t b) {
                                    if (b >= blocks) return;
                                    lbm::stream_collide_block(args, b, n);
                                  }) == hipxSuccess);
    HEMO_ENSURES(hipxDeviceSynchronize() == hipxSuccess);
    std::swap(f_a_, f_b_);
  }

  std::vector<double> distributions() const override {
    std::vector<double> out(static_cast<std::size_t>(lbm::kQ) * n_);
    HEMO_ENSURES(hipxMemcpy(out.data(), f_a_, out.size() * sizeof(double),
                            hipxMemcpyDeviceToHost) == hipxSuccess);
    return out;
  }

  const double* live_data() const override {
    return static_cast<const double*>(f_a_);
  }

 private:
  std::int64_t n_;
  lbm::Propagation pattern_;
  void* f_a_ = nullptr;
  void* f_b_ = nullptr;
  void* adjacency_ = nullptr;
  void* node_type_ = nullptr;
};

// ---------------------------------------------------------------------------
// syclx path: USM pointers, queue submission, exceptions for errors.
// ---------------------------------------------------------------------------

class SyclxImpl final : public DeviceSolver::Impl {
 public:
  SyclxImpl(const lbm::SparseLattice& lattice, const HostState& host,
            lbm::Propagation pattern)
      : n_(lattice.size()), pattern_(pattern) {
    namespace sx = hal::syclx;
    const std::size_t fcount = static_cast<std::size_t>(lbm::kQ) * n_;
    f_a_ = sx::malloc_device<double>(fcount, queue_);
    if (pattern_ == lbm::Propagation::kPullSoA)  // AA runs in place
      f_b_ = sx::malloc_device<double>(fcount, queue_);
    adjacency_ = sx::malloc_device<PointIndex>(lattice.adjacency().size(),
                                               queue_);
    node_type_ = sx::malloc_device<std::uint8_t>(host.node_type.size(), queue_);
    queue_.memcpy(f_a_, host.f_init.data(), fcount * sizeof(double));
    queue_.memcpy(adjacency_, lattice.adjacency().data(),
                  lattice.adjacency().size() * sizeof(PointIndex));
    queue_.memcpy(node_type_, host.node_type.data(), host.node_type.size());
    queue_.wait();
  }

  ~SyclxImpl() override {
    namespace sx = hal::syclx;
    sx::free(f_a_, queue_);
    if (f_b_ != nullptr) sx::free(f_b_, queue_);
    sx::free(adjacency_, queue_);
    sx::free(node_type_, queue_);
  }

  void step(const lbm::SolverOptions& options,
            std::int64_t steps_done) override {
    namespace sx = hal::syclx;
    const std::int64_t blocks = lbm::block_count(n_);
    if (pattern_ == lbm::Propagation::kAAInPlace) {
      const lbm::KernelArgs args =
          make_aa_args(f_a_, adjacency_, node_type_, n_, options);
      const bool even = steps_done % 2 == 0;
      const std::int64_t n = n_;
      queue_.submit([&](sx::handler& h) {
        h.parallel_for(sx::range<1>(static_cast<std::size_t>(blocks)),
                       [args, even, n](sx::id<1> i) {
                         const auto b = static_cast<std::int64_t>(i);
                         if (even) {
                           lbm::stream_collide_block_aa_even(args, b, n);
                         } else {
                           lbm::stream_collide_block_aa_odd(args, b, n);
                         }
                       });
      });
      queue_.wait();
      return;
    }
    const lbm::KernelArgs args =
        make_args(f_a_, f_b_, adjacency_, node_type_, n_, options);
    const std::int64_t n = n_;
    queue_.submit([&](sx::handler& h) {
      h.parallel_for(sx::range<1>(static_cast<std::size_t>(blocks)),
                     [args, n](sx::id<1> i) {
                       lbm::stream_collide_block(
                           args, static_cast<std::int64_t>(i), n);
                     });
    });
    queue_.wait();
    std::swap(f_a_, f_b_);
  }

  std::vector<double> distributions() const override {
    std::vector<double> out(static_cast<std::size_t>(lbm::kQ) * n_);
    const_cast<hal::syclx::queue&>(queue_).memcpy(
        out.data(), f_a_, out.size() * sizeof(double));
    return out;
  }

  const double* live_data() const override { return f_a_; }

 private:
  hal::syclx::queue queue_;
  std::int64_t n_;
  lbm::Propagation pattern_;
  double* f_a_ = nullptr;
  double* f_b_ = nullptr;
  PointIndex* adjacency_ = nullptr;
  std::uint8_t* node_type_ = nullptr;
};

// ---------------------------------------------------------------------------
// kokkosx path: Views own the device memory, deep_copy stages data in, and
// kernels receive raw pointers through the launch interface (the data()
// idiom the paper adopted to reuse CUDA kernel bodies).
// ---------------------------------------------------------------------------

class KokkosxImpl final : public DeviceSolver::Impl {
 public:
  KokkosxImpl(const lbm::SparseLattice& lattice, const HostState& host,
              hal::Backend backend, lbm::Propagation pattern)
      : n_(lattice.size()),
        pattern_(pattern),
        f_a_("f_a", static_cast<std::size_t>(lbm::kQ) * n_),
        adjacency_("adjacency", lattice.adjacency().size()),
        node_type_("node_type", host.node_type.size()) {
    namespace kx = hal::kokkosx;
    HEMO_EXPECTS(kx::is_initialized() && kx::current_backend() == backend);
    if (pattern_ == lbm::Propagation::kPullSoA)  // AA runs in place
      f_b_ = kx::View<double*>("f_b", static_cast<std::size_t>(lbm::kQ) * n_);

    auto stage = [](auto& view, const auto* src) {
      auto mirror = kx::create_mirror_view(view);
      std::memcpy(mirror.data(), src,
                  view.extent(0) * sizeof(*view.data()));
      kx::deep_copy(view, mirror);
    };
    stage(f_a_, host.f_init.data());
    stage(adjacency_, lattice.adjacency().data());
    stage(node_type_, host.node_type.data());
  }

  void step(const lbm::SolverOptions& options,
            std::int64_t steps_done) override {
    namespace kx = hal::kokkosx;
    const kx::RangePolicy blocks(0, lbm::block_count(n_));
    const std::int64_t n = n_;
    if (pattern_ == lbm::Propagation::kAAInPlace) {
      const lbm::KernelArgs args = make_aa_args(
          f_a_.data(), adjacency_.data(), node_type_.data(), n_, options);
      if (steps_done % 2 == 0) {
        kx::parallel_for("stream_collide_aa_even", blocks,
                         [args, n](std::int64_t b) {
                           lbm::stream_collide_block_aa_even(args, b, n);
                         });
      } else {
        kx::parallel_for("stream_collide_aa_odd", blocks,
                         [args, n](std::int64_t b) {
                           lbm::stream_collide_block_aa_odd(args, b, n);
                         });
      }
      kx::fence();
      return;
    }
    const lbm::KernelArgs args = make_args(f_a_.data(), f_b_.data(),
                                           adjacency_.data(),
                                           node_type_.data(), n_, options);
    kx::parallel_for("stream_collide", blocks, [args, n](std::int64_t b) {
      lbm::stream_collide_block(args, b, n);
    });
    kx::fence();
    std::swap(f_a_, f_b_);
  }

  std::vector<double> distributions() const override {
    namespace kx = hal::kokkosx;
    auto mirror = kx::create_mirror_view(f_a_);
    kx::deep_copy(mirror, f_a_);
    return std::vector<double>(mirror.data(), mirror.data() + f_a_.extent(0));
  }

  const double* live_data() const override { return f_a_.data(); }

 private:
  std::int64_t n_;
  lbm::Propagation pattern_;
  hal::kokkosx::View<double*> f_a_;
  hal::kokkosx::View<double*> f_b_;
  hal::kokkosx::View<PointIndex*> adjacency_;
  hal::kokkosx::View<std::uint8_t*> node_type_;
};

}  // namespace

DeviceSolver::DeviceSolver(std::shared_ptr<const lbm::SparseLattice> lattice,
                           lbm::SolverOptions options, hal::Model model)
    : lattice_(std::move(lattice)), options_(options), model_(model) {
  HEMO_EXPECTS(lattice_ != nullptr);
  HEMO_EXPECTS(options_.tau > 0.5);
  const HostState host(*lattice_, options_);
  const lbm::Propagation pattern = options_.propagation;
  switch (model_) {
    case hal::Model::kCuda:
      impl_ = std::make_unique<CudaxImpl>(*lattice_, host, pattern);
      break;
    case hal::Model::kHip:
      impl_ = std::make_unique<HipxImpl>(*lattice_, host, pattern);
      break;
    case hal::Model::kSycl:
      impl_ = std::make_unique<SyclxImpl>(*lattice_, host, pattern);
      break;
    case hal::Model::kKokkosCuda:
    case hal::Model::kKokkosHip:
    case hal::Model::kKokkosSycl:
    case hal::Model::kKokkosOpenAcc: {
      namespace kx = hal::kokkosx;
      const hal::Backend backend = hal::backend_of(model_);
      if (!kx::is_initialized()) {
        kx::initialize(backend);
        owns_kokkos_runtime_ = true;
      } else {
        // One Kokkos backend per process, as with real Kokkos builds.
        HEMO_EXPECTS(kx::current_backend() == backend);
      }
      impl_ = std::make_unique<KokkosxImpl>(*lattice_, host, backend, pattern);
      break;
    }
  }
}

DeviceSolver::~DeviceSolver() {
  impl_.reset();  // release device views before tearing down the runtime
  if (owns_kokkos_runtime_) hal::kokkosx::finalize();
}

void DeviceSolver::step() {
  impl_->step(options_, steps_done_);
  ++steps_done_;
}

void DeviceSolver::run(int steps) {
  HEMO_EXPECTS(steps >= 0);
  for (int s = 0; s < steps; ++s) step();
}

std::vector<double> DeviceSolver::distributions() const {
  std::vector<double> raw = impl_->distributions();
  if (options_.propagation != lbm::Propagation::kAAInPlace) return raw;
  std::vector<double> canonical(raw.size());
  lbm::aa_canonicalize(lattice_->adjacency().data(), lattice_->size(),
                       steps_done_, raw.data(), canonical.data());
  return canonical;
}

std::vector<double> DeviceSolver::live_distributions() const {
  return impl_->distributions();
}

std::vector<lbm::TileDigest> DeviceSolver::tile_digests(
    std::int64_t tile_points) const {
  const std::vector<double> live = impl_->distributions();
  return lbm::digest_tiles(live.data(), lattice_->size(), lattice_->size(),
                           tile_points, live_layout());
}

lbm::Moments DeviceSolver::moments(PointIndex i) const {
  HEMO_EXPECTS(i >= 0 && i < lattice_->size());
  // Only point i's 19 canonical values cross to the host, each read from
  // the live slot that holds it at the current AA parity.
  const std::int64_t n = lattice_->size();
  const bool aa = options_.propagation == lbm::Propagation::kAAInPlace;
  const double* live = impl_->live_data();
  double fi[lbm::kQ];
  for (int q = 0; q < lbm::kQ; ++q) {
    const std::size_t slot =
        aa ? lbm::aa_canonical_slot(lattice_->adjacency().data(), n,
                                    steps_done_, q, i)
           : static_cast<std::size_t>(q) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(i);
    hal::DeviceEngine::instance().copy_d2h(&fi[q], live + slot,
                                           sizeof(double));
  }
  return lbm::moments_of(fi, options_.body_force.x, options_.body_force.y,
                         options_.body_force.z);
}

double DeviceSolver::total_mass() const {
  const std::vector<double> f = distributions();
  double mass = 0.0;
  for (double v : f) mass += v;
  return mass;
}

}  // namespace hemo::harvey
